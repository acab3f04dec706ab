(** hhvm_run: command-line driver for the MiniPHP VM + JIT.

    Subcommands (a bare invocation defaults to $(b,run)):

        hhvm_run run prog.mphp                    # region JIT (default)
        hhvm_run prog.mphp                        # same (implicit run)
        hhvm_run run --mode interp prog.mphp      # interpreter only
        hhvm_run run --dump-bc prog.mphp          # show HHBC and exit
        hhvm_run run --stats --no-rce prog.mphp

        hhvm_run serve                            # endpoint mix, cold start
        hhvm_run serve --jumpstart warm.img       # skip the warmup cliff
        hhvm_run warmup --dump warm.img           # write a jumpstart image
        hhvm_run report --serving-report out.json # telemetry-focused mix run
        hhvm_run report --request-workers 4       # plus a parallel burst
        hhvm_run report --vmstats=json
        hhvm_run --trace link,exit --trace-out t.trace.jsonl prog.mphp

    Every engine knob is a flag: the flags fill one [Core.Jit_options]
    record, which is the engine's only configuration input. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let mode_name = function
  | Core.Jit_options.Interp -> "interp"
  | Core.Jit_options.Tracelet -> "tracelet"
  | Core.Jit_options.ProfileOnly -> "profile"
  | Core.Jit_options.Region -> "region"

let mode_conv =
  let parse = function
    | "interp" -> Ok Core.Jit_options.Interp
    | "tracelet" -> Ok Core.Jit_options.Tracelet
    | "profile" -> Ok Core.Jit_options.ProfileOnly
    | "region" -> Ok Core.Jit_options.Region
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print fmt m = Format.pp_print_string fmt (mode_name m) in
  Arg.conv (parse, print)

let tc_sort_conv =
  let parse = function
    | "execs" -> Ok Core.Tc_print.By_execs
    | "cycles" -> Ok Core.Tc_print.By_cycles
    | "cold" -> Ok Core.Tc_print.By_cold
    | s -> Error (`Msg (Printf.sprintf "unknown tc-print sort %S" s))
  in
  let print fmt m =
    Format.pp_print_string fmt (Core.Tc_print.sort_mode_name m)
  in
  Arg.conv (parse, print)

(** Inconsistent-option diagnostics: one exit path, always non-zero. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg -> Printf.eprintf "hhvm_run: %s\n" msg; exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Shared option groups                                                *)
(* ------------------------------------------------------------------ *)

(** JIT/engine options shared by every subcommand.  A count flag out of
    range is a usage error (exit 2). *)
let opts_term : Core.Jit_options.t Term.t =
  let mode =
    Arg.(value & opt mode_conv Core.Jit_options.Region
         & info [ "mode"; "m" ] ~docv:"MODE"
           ~doc:"Execution mode: interp, tracelet, profile, or region")
  in
  let no_rce = Arg.(value & flag & info [ "no-rce" ] ~doc:"Disable RCE") in
  let no_inlining =
    Arg.(value & flag & info [ "no-inlining" ] ~doc:"Disable partial inlining")
  in
  let no_relax =
    Arg.(value & flag & info [ "no-guard-relax" ] ~doc:"Disable guard relaxation")
  in
  let no_dispatch =
    Arg.(value & flag
         & info [ "no-method-dispatch" ]
           ~doc:"Disable method-dispatch optimization and inline caches")
  in
  let no_stats =
    Arg.(value & flag
         & info [ "no-stats" ]
           ~doc:"Disable vmstats probes (the overhead baseline)")
  in
  let jit_workers =
    Arg.(value & opt int 1
         & info [ "jit-workers" ] ~docv:"N"
           ~doc:"Parallel retranslate-all: compile optimized translations \
                 on N >= 1 domains (publish stays serial and deterministic, \
                 so output is identical for any N)")
  in
  let request_workers =
    Arg.(value & opt int 1
         & info [ "request-workers" ] ~docv:"N"
           ~doc:"Parallel request serving: fan the endpoint request mix \
                 across N >= 1 domains over the shared translation cache \
                 (1 serves on the calling domain).  Per-request outputs and \
                 the aggregate output hash are identical for any N")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"CATS"
           ~doc:"Enable JIT trace-event categories (comma-separated: \
                 translate, retranslate-all, link, exit, guard; or 'all')")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write trace events as JSONL to FILE")
  in
  let spans =
    Arg.(value & flag
         & info [ "spans" ]
           ~doc:"Record a per-request span timeline (epoch adoption, JIT \
                 vs interp cycles, translation misses, lease waits, \
                 retranslate pauses) during serving bursts, plus the \
                 cycle-attribution profiler.  Off by default; overhead is \
                 bounded at a few percent because phase cycles come from \
                 ledger deltas at request boundaries, not per-instruction \
                 probes")
  in
  let snapshot_out =
    Arg.(value & opt (some string) None
         & info [ "snapshot-out" ] ~docv:"FILE"
           ~doc:"Stream gauge snapshots (lease state, code bytes, epoch) \
                 as JSONL to FILE during serving bursts")
  in
  let snapshot_interval =
    Arg.(value & opt int 0
         & info [ "snapshot-interval" ] ~docv:"N"
           ~doc:"Emit one snapshot line every N completed requests \
                 (0 disables)")
  in
  let tc_evict_threshold =
    Arg.(value & opt int 0
         & info [ "tc-evict-threshold" ] ~docv:"N"
           ~doc:"Code-cache lifecycle: each tick decays every optimized \
                 translation's liveness score (halve, then add execs \
                 since the last tick) and evicts those below N — links \
                 unpatched, srckey chains pruned, published without a \
                 serving pause.  Outputs are unaffected: evicted code \
                 falls back to lazy translation or the interpreter (0 \
                 disables, the default)")
  in
  let tc_compact =
    Arg.(value & flag
         & info [ "tc-compact" ]
           ~doc:"After a lifecycle eviction, compact the Main/Cold \
                 sections: relocate surviving optimized translations to \
                 close the holes, restoring i-cache/I-TLB density and \
                 returning the evicted bytes to the code budget")
  in
  let mk mode no_rce no_inlining no_relax no_dispatch no_stats jit_workers
      request_workers trace trace_out spans snapshot_out snapshot_interval
      tc_evict_threshold tc_compact =
    if jit_workers < 1 then
      usage_error "--jit-workers must be at least 1 (got %d)" jit_workers;
    if request_workers < 1 then
      usage_error "--request-workers must be at least 1 (got %d)"
        request_workers;
    if snapshot_interval < 0 then
      usage_error "--snapshot-interval must not be negative (got %d)"
        snapshot_interval;
    if tc_evict_threshold < 0 then
      usage_error "--tc-evict-threshold must not be negative (got %d)"
        tc_evict_threshold;
    let opts = Core.Jit_options.default () in
    opts.mode <- mode;
    opts.jit_workers <- jit_workers;
    opts.request_workers <- request_workers;
    opts.rce <- not no_rce;
    opts.inlining <- not no_inlining;
    opts.guard_relax <- not no_relax;
    opts.method_dispatch <- not no_dispatch;
    opts.inline_cache <- not no_dispatch;
    opts.stats <- not no_stats;
    opts.trace <- trace;
    opts.trace_out <- trace_out;
    opts.spans <- spans;
    opts.snapshot_out <- snapshot_out;
    opts.snapshot_interval <- snapshot_interval;
    opts.tc_evict_threshold <- tc_evict_threshold;
    opts.tc_compact <- tc_compact;
    opts
  in
  Term.(const mk $ mode $ no_rce $ no_inlining $ no_relax $ no_dispatch
        $ no_stats $ jit_workers $ request_workers $ trace $ trace_out
        $ spans $ snapshot_out $ snapshot_interval $ tc_evict_threshold
        $ tc_compact)

type telemetry = {
  te_vmstats : string option;
  te_tc_print : int option;
  te_tc_sort : Core.Tc_print.sort_mode;
}

(** Post-run telemetry reports shared by every subcommand. *)
let telemetry_term : telemetry Term.t =
  let vmstats =
    Arg.(value & opt ~vopt:(Some "text") (some string) None
         & info [ "vmstats" ] ~docv:"FMT"
           ~doc:"Dump the vmstats telemetry registry after the run \
                 (FMT: text or json)")
  in
  let tc_print =
    Arg.(value & opt ~vopt:(Some 20) (some int) None
         & info [ "tc-print" ] ~docv:"N"
           ~doc:"Print the top-N translations by execution count, with \
                 guard chains and link targets")
  in
  let tc_sort =
    Arg.(value & opt tc_sort_conv Core.Tc_print.By_execs
         & info [ "tc-print-sort" ] ~docv:"KEY"
           ~doc:"Ranking key for $(b,--tc-print): execs (default), \
                 cycles, or cold (coldest first by decayed liveness score \
                 — the order a lifecycle eviction would reap).  All \
                 orders are total (final tie on translation id), so \
                 reports are byte-stable across runs")
  in
  let mk te_vmstats te_tc_print te_tc_sort =
    { te_vmstats; te_tc_print; te_tc_sort }
  in
  Term.(const mk $ vmstats $ tc_print $ tc_sort)

(** Post-run telemetry reports: tc-print ranking, vmstats dump, trace
    flush.  Gauges are synced from the engine just before dumping. *)
let report_telemetry (engine : Core.Engine.t) (te : telemetry) : unit =
  (match te.te_tc_print with
   | Some n ->
     print_string (Core.Tc_print.report ~top:n ~sort:te.te_tc_sort engine)
   | None -> ());
  (match te.te_vmstats with
   | Some fmt ->
     Core.Engine.sync_vmstats engine;
     if fmt = "json" then print_endline (Obs.Vmstats.to_json ())
     else print_string (Obs.Vmstats.dump_text ())
   | None -> ());
  Obs.Trace.close ();
  Obs.Snapshot.close ()

(* ------------------------------------------------------------------ *)
(* run (default): execute a source file                                *)
(* ------------------------------------------------------------------ *)

let run opts te file entry dump_bc dump_regions stats repeat =
  if repeat < 1 then usage_error "--repeat must be at least 1 (got %d)" repeat;
  let file =
    match file with
    | Some f -> f
    | None ->
      usage_error
        "FILE required (the endpoint mix runs under the 'report' and \
         'serve' subcommands)"
  in
  let src = read_file file in
  let unit_ = Vm.Loader.load src in
  ignore (Hhbbc.Assert_insert.run unit_);
  ignore (Hhbbc.Bc_opt.run unit_);
  if dump_bc then begin
    print_string (Hhbc.Disasm.unit_to_string unit_);
    exit 0
  end;
  let engine = Core.Engine.install ~opts unit_ in
  let call () =
    match Hhbc.Hunit.find_func unit_ entry with
    | None ->
      Printf.eprintf "error: function %s not found\n" entry;
      exit 1
    | Some _ ->
      let r, out =
        Vm.Output.capture (fun () -> Vm.Interp.call_by_name unit_ entry [])
      in
      Runtime.Heap.decref r;
      print_string out
  in
  (try
     for i = 1 to repeat do
       call ();
       if opts.mode = Core.Jit_options.Region && i = max 1 (repeat / 2)
       then ignore (Core.Engine.retranslate_all engine)
     done
   with
   | Vm.Interp.Php_exception v ->
     Printf.eprintf "\nFatal error: uncaught exception: %s\n"
       (Runtime.Value.debug_string v);
     Runtime.Heap.decref v;
     exit 255
   | Runtime.Value.Php_fatal msg ->
     Printf.eprintf "\nFatal error: %s\n" msg;
     exit 255);
  if dump_regions then begin
    print_endline "\n=== profiled regions ===";
    Hashtbl.iter
      (fun fid _ ->
         let f = Hhbc.Hunit.func unit_ fid in
         List.iter
           (fun region ->
              Printf.printf "--- %s ---\n%s" f.fn_name
                (Region.Rdesc.to_string ~func:f (Region.Relax.run region)))
           (Region.Form.form_func_regions fid))
      Region.Transcfg.blocks_by_func
  end;
  if stats then begin
    Printf.printf "\n--- stats ---\n";
    Printf.printf "cycles: %d (interp %d, compiled %d)\n"
      (Runtime.Ledger.read ())
      (Runtime.Ledger.interp_cycles ()) (Runtime.Ledger.jit_cycles ());
    Printf.printf "translations: %d live, %d profiling, %d optimized\n"
      engine.Core.Engine.n_live engine.Core.Engine.n_profiling
      engine.Core.Engine.n_optimized;
    Printf.printf "code cache: %d bytes\n" (Core.Engine.code_bytes engine);
    let hs = Runtime.Heap.stats () in
    Printf.printf "heap: %d allocated, %d freed, %d live; %d increfs, %d decrefs\n"
      hs.Runtime.Heap.allocated hs.Runtime.Heap.freed
      hs.Runtime.Heap.live hs.Runtime.Heap.incref_ops
      hs.Runtime.Heap.decref_ops;
    let leaks = Runtime.Heap.live_allocations () in
    if leaks <> [] then
      Printf.printf "LEAKS: %s\n" (String.concat ", " leaks)
  end;
  report_telemetry engine te

let run_term =
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE"
           ~doc:"MiniPHP source file")
  in
  let entry =
    Arg.(value & opt string "main"
         & info [ "entry"; "e" ] ~docv:"FUNC" ~doc:"Entry function")
  in
  let dump_bc =
    Arg.(value & flag & info [ "dump-bc" ] ~doc:"Dump HHBC and exit")
  in
  let dump_regions =
    Arg.(value & flag
         & info [ "dump-regions" ] ~doc:"Dump profiled regions after running")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print execution statistics")
  in
  let repeat =
    Arg.(value & opt int 2
         & info [ "repeat"; "n" ] ~docv:"N"
           ~doc:"Run the entry function N times (region mode retranslates \
                 half-way)")
  in
  Term.(const run $ opts_term $ telemetry_term $ file $ entry $ dump_bc
        $ dump_regions $ stats $ repeat)

(* ------------------------------------------------------------------ *)
(* serve: the endpoint request stream, cold or jumpstarted             *)
(* ------------------------------------------------------------------ *)

let serve opts te jumpstart requests trigger =
  if requests < 1 then
    usage_error "--requests must be at least 1 (got %d)" requests;
  if jumpstart <> None && opts.Core.Jit_options.mode <> Core.Jit_options.Region
  then
    usage_error
      "--jumpstart needs the region JIT (--mode %s cannot adopt an \
       optimized-code image); drop --jumpstart or use --mode region"
      (mode_name opts.Core.Jit_options.mode);
  let eng, u, origin, jumpstarted =
    match jumpstart with
    | Some path ->
      let r = Server.Startup.restore ~opts ~path () in
      let jumpstarted = r.Server.Startup.rs_jumpstarted in
      let origin =
        if jumpstarted then Printf.sprintf "jumpstarted from %s" path
        else "cold start (jumpstart image rejected)"
      in
      (r.Server.Startup.rs_engine, r.Server.Startup.rs_unit, origin,
       jumpstarted)
    | None ->
      let u = Server.Startup.load_unit () in
      (Core.Engine.install ~opts u, u, "cold start", false)
  in
  (* a jumpstarted engine is already at steady state: never retranslate.
     A cold engine (including a rejected image) runs the normal warmup
     cliff with retranslate-all at the profiling trigger. *)
  let retranslate_at =
    if jumpstarted then None else Some (min trigger requests)
  in
  let _, outputs, _, _, _ =
    Server.Startup.serve_measured u eng ~total:requests ~retranslate_at
  in
  Printf.printf "serve: %s\n" origin;
  Printf.printf "serve: %d requests, output hash %d\n"
    requests (Server.Serving.output_hash outputs);
  Printf.printf
    "serve: translations: %d profiling, %d optimized; retranslate runs %d\n"
    eng.Core.Engine.n_profiling eng.Core.Engine.n_optimized
    (Obs.Vmstats.counter_value "retranslate.runs");
  if opts.Core.Jit_options.tc_evict_threshold > 0 then
    Printf.printf
      "serve: tc lifecycle: evicted %d translations (%d bytes), %d hole \
       bytes, %d bytes reclaimed\n"
      (Obs.Vmstats.counter_value "tc.evicted")
      (Obs.Vmstats.counter_value "tc.evicted_bytes")
      (Simcpu.Codecache.holes_bytes eng.Core.Engine.cache)
      (Obs.Vmstats.counter_value "codecache.reclaimed_bytes");
  report_telemetry eng te

let serve_term =
  let jumpstart =
    Arg.(value & opt (some string) None
         & info [ "jumpstart" ] ~docv:"FILE"
           ~doc:"Adopt a jumpstart image (written by $(b,warmup --dump)) \
                 before serving: the process starts directly in optimized \
                 code, skipping profiling and retranslate-all.  A missing, \
                 stale, or corrupted image logs one line and falls back to \
                 a cold start")
  in
  let requests =
    Arg.(value & opt int 800
         & info [ "requests" ] ~docv:"N"
           ~doc:"Serve N requests from the deterministic endpoint stream")
  in
  let trigger =
    Arg.(value & opt int 600
         & info [ "trigger" ] ~docv:"N"
           ~doc:"Cold start: fire retranslate-all after request N")
  in
  Term.(const serve $ opts_term $ telemetry_term $ jumpstart $ requests
        $ trigger)

(* ------------------------------------------------------------------ *)
(* warmup: produce a jumpstart image                                   *)
(* ------------------------------------------------------------------ *)

let warmup opts dump trigger =
  if opts.Core.Jit_options.mode <> Core.Jit_options.Region then
    usage_error
      "warmup needs the region JIT (--mode %s never produces the \
       optimized image a jumpstart records)"
      (mode_name opts.Core.Jit_options.mode);
  if trigger < 1 then
    usage_error "--trigger must be at least 1 (got %d)" trigger;
  match Server.Startup.dump ~opts ~trigger_requests:trigger ~path:dump () with
  | Ok bytes ->
    Printf.printf "warmup: dumped jumpstart image to %s (%d bytes, %d \
                   requests served)\n" dump bytes trigger
  | Error msg ->
    Printf.eprintf "warmup: %s\n" msg;
    exit 1

let warmup_term =
  let dump =
    Arg.(required & opt (some string) None
         & info [ "dump" ] ~docv:"FILE"
           ~doc:"Write the jumpstart image (profile counters, TransCFG, \
                 and the optimized publish sequence) to FILE")
  in
  let trigger =
    Arg.(value & opt int 600
         & info [ "trigger" ] ~docv:"N"
           ~doc:"Serve N requests before retranslate-all and capture")
  in
  Term.(const warmup $ opts_term $ dump $ trigger)

(* ------------------------------------------------------------------ *)
(* report: telemetry-focused perflab mix run                           *)
(* ------------------------------------------------------------------ *)

let report (opts : Core.Jit_options.t) (te : telemetry)
    (serving_report : string option) (profile_folded : string option) =
  (* replay the Perflab endpoint mix: the standard workload for
     inspecting steady-state JIT telemetry *)
  let base = Server.Perflab.default_config () in
  let cfg = { base with Server.Perflab.c_opts = opts } in
  let r = Server.Perflab.measure cfg in
  Printf.printf "perflab[%s]: %.1f +- %.1f cycles/request, %d code bytes\n"
    (mode_name opts.mode)
    r.Server.Perflab.r_weighted r.Server.Perflab.r_ci99
    r.Server.Perflab.r_code_bytes;
  (* with request-serving parallelism requested, follow the perflab run
     with a multi-domain serving burst over the now-warm engine and
     report throughput *)
  let eng = r.Server.Perflab.r_engine in
  (* the deterministic serving report must run BEFORE any parallel
     burst: a parallel burst leaves schedule-dependent engine state
     (which translations were lazily compiled, cache history), and the
     report's byte-stability contract starts from deterministic state *)
  if serving_report <> None || profile_folded <> None then begin
    let u = eng.Core.Engine.hunit in
    let requests = Server.Serving.mix ~rounds:10 () in
    let trigger =
      (Array.length requests / 2,
       fun () -> ignore (Core.Engine.retranslate_all eng))
    in
    let m = Server.Serving.measure ~trigger u eng requests in
    (match serving_report with
     | Some path ->
       let oc = open_out path in
       output_string oc (Server.Serving.report_json requests m);
       output_char oc '\n';
       close_out oc;
       Printf.printf "serving report: wrote %s (%d requests, %d cycles)\n"
         path (Array.length requests)
         m.Server.Serving.me_profile_total
     | None -> ());
    (match profile_folded with
     | Some path ->
       let oc = open_out path in
       output_string oc (Obs.Profiler.folded ());
       close_out oc;
       Printf.printf
         "profile: wrote %d folded stacks to %s (%d attributed cycles)\n"
         (List.length m.Server.Serving.me_profile) path
         m.Server.Serving.me_profile_total
     | None -> ())
  end;
  let rw = eng.Core.Engine.opts.Core.Jit_options.request_workers in
  if rw > 1 then begin
    let u = eng.Core.Engine.hunit in
    let requests = Server.Serving.mix ~rounds:10 () in
    let sr = Server.Serving.run u eng requests in
    Printf.printf
      "serving[%d workers]: %d requests in %.4f s (%.0f req/s), \
       output hash %d\n"
      sr.Server.Serving.sv_workers
      (Array.length requests) sr.Server.Serving.sv_wall_s
      (float_of_int (Array.length requests) /. sr.Server.Serving.sv_wall_s)
      sr.Server.Serving.sv_output_hash;
    if eng.Core.Engine.opts.Core.Jit_options.spans then begin
      let spans = sr.Server.Serving.sv_spans in
      Printf.printf "spans: %d request timelines recorded\n"
        (Array.length spans);
      List.iter
        (fun ph ->
           let i = Obs.Span.phase_index ph in
           let cnt =
             Array.fold_left
               (fun a sp -> a + sp.Obs.Span.sp_counts.(i)) 0 spans
           and cyc =
             Array.fold_left
               (fun a sp -> a + sp.Obs.Span.sp_cycles.(i)) 0 spans
           in
           Printf.printf "  %-17s count %-8d cycles %d\n"
             (Obs.Span.phase_name ph) cnt cyc)
        Obs.Span.phases
    end
  end;
  report_telemetry eng te

let report_term =
  let serving_report =
    Arg.(value & opt (some string) None
         & info [ "serving-report" ] ~docv:"FILE"
           ~doc:"Run the deterministic measured serving burst and write \
                 the JSON latency report (p50/p95/p99/max weighted cycles \
                 per request, per-phase breakdown, per-endpoint \
                 percentiles).  Byte-identical for any \
                 --jit-workers x --request-workers configuration")
  in
  let profile_folded =
    Arg.(value & opt (some string) None
         & info [ "profile-folded" ] ~docv:"FILE"
           ~doc:"Write the measured burst's cycle attribution as folded \
                 stacks (flamegraph.pl-compatible)")
  in
  Term.(const report $ opts_term $ telemetry_term $ serving_report
        $ profile_folded)

(* ------------------------------------------------------------------ *)

let cmd =
  let doc = "MiniPHP VM with a profile-guided, region-based JIT (HHVM-style)" in
  Cmd.group ~default:run_term
    (Cmd.info "hhvm_run" ~doc)
    [ Cmd.v
        (Cmd.info "run"
           ~doc:"Execute a MiniPHP source file (the default subcommand)")
        run_term;
      Cmd.v
        (Cmd.info "serve"
           ~doc:"Serve the deterministic endpoint request stream, cold or \
                 from a jumpstart image")
        serve_term;
      Cmd.v
        (Cmd.info "warmup"
           ~doc:"Warm a fresh engine on the endpoint stream and dump a \
                 jumpstart image")
        warmup_term;
      Cmd.v
        (Cmd.info "report"
           ~doc:"Run the perflab endpoint mix and write telemetry reports")
        report_term ]

(* Legacy compatibility: `hhvm_run prog.mphp` predates the subcommands.
   Cmd.group probes the first positional for a command name (prefix
   match), so a leading source-file argument needs an explicit implicit
   `run` spliced in front of it. *)
let argv =
  let argv = Sys.argv in
  let names = [ "run"; "serve"; "warmup"; "report" ] in
  let is_command tok =
    tok <> ""
    && List.exists
         (fun n ->
            String.length tok <= String.length n
            && String.sub n 0 (String.length tok) = tok)
         names
  in
  if Array.length argv > 1
  && String.length argv.(1) > 0
  && argv.(1).[0] <> '-'
  && not (is_command argv.(1))
  then
    Array.append [| argv.(0); "run" |] (Array.sub argv 1 (Array.length argv - 1))
  else argv

let () = exit (Cmd.eval ~argv cmd)
