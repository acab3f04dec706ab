(** Telemetry-layer tests (lib/obs + its wiring):

    - Vmstats primitives: log2 bucketing, counter/gauge/histogram/timer
      semantics, reset, JSON shape.
    - Trace: category-spec parsing, ring-buffer drain ordering.
    - Install: takes its configuration from the options record alone.
    - Parity: the stats knob must never change program output, in any
      execution mode.
    - Smoke: after a Region perflab run the headline counters (mono-cache
      hits, link follows, guard failures, pipeline pass timers) are all
      nonzero — and zero again when the feature under them is disabled.
    - Retranslate-all: the generation bump reports the smashed links it
      kills via [link.invalidated], and linking resumes afterwards.
    - tc-print renders the hottest translations. *)

let loop_src = {|
  function helper($x) {
    if ($x > 10) { return $x - 1; }
    return $x + 2;
  }
  function main() {
    $s = 0;
    for ($i = 0; $i < 60; $i++) { $s += helper($i); }
    echo $s;
  } |}

let run_mode (mode : Core.Jit_options.mode) ?(retranslate = false)
    ?(tweak = fun (_ : Core.Jit_options.t) -> ()) (src : string)
  : string * Core.Engine.t =
  let u = Vm.Loader.load src in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.mode <- mode;
  tweak opts;
  let eng = Core.Engine.install ~opts u in
  let call () =
    let r, out =
      Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" [])
    in
    Runtime.Heap.decref r;
    out
  in
  let out = ref (call ()) in
  if retranslate then begin
    ignore (Core.Engine.retranslate_all eng);
    out := !out ^ call ()
  end
  else out := !out ^ call ();
  (!out, eng)

(* ---- Vmstats primitives ---- *)

let test_bucketing () =
  List.iter
    (fun (v, b) ->
       Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b
         (Obs.Vmstats.bucket_of v))
    [ (-3, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4);
      (1023, 10); (1024, 11); (max_int, 62) ]

let test_primitives () =
  Obs.Vmstats.enabled := true;
  Obs.Vmstats.reset ();
  let c = Obs.Vmstats.counter "test.counter" in
  Obs.Vmstats.bump c;
  Obs.Vmstats.add c 4;
  Alcotest.(check int) "counter" 5 (Obs.Vmstats.counter_value "test.counter");
  (* same name returns the same handle *)
  Obs.Vmstats.bump (Obs.Vmstats.counter "test.counter");
  Alcotest.(check int) "idempotent handle" 6
    (Obs.Vmstats.counter_value "test.counter");
  let g = Obs.Vmstats.gauge "test.gauge" in
  Obs.Vmstats.set g 17;
  Obs.Vmstats.set g 42;
  Alcotest.(check int) "gauge last-write-wins" 42
    (Obs.Vmstats.gauge_value "test.gauge");
  let h = Obs.Vmstats.histogram "test.hist" in
  Obs.Vmstats.observe h 3;
  Obs.Vmstats.observe h 300;
  Alcotest.(check int) "hist count" 2 h.Obs.Vmstats.h_count;
  Alcotest.(check int) "hist sum" 303 h.Obs.Vmstats.h_sum;
  let t = Obs.Vmstats.timer "test.timer" in
  let v = Obs.Vmstats.time t (fun () -> 99) in
  Alcotest.(check int) "timer passes result" 99 v;
  Alcotest.(check int) "timer calls" 1 (Obs.Vmstats.timer_calls "test.timer");
  (* disabled: probes are inert *)
  Obs.Vmstats.enabled := false;
  Obs.Vmstats.bump c;
  Obs.Vmstats.observe h 5;
  ignore (Obs.Vmstats.time t (fun () -> 0));
  Obs.Vmstats.enabled := true;
  Alcotest.(check int) "counter frozen while off" 6 c.Obs.Vmstats.c_count;
  Alcotest.(check int) "hist frozen while off" 2 h.Obs.Vmstats.h_count;
  Alcotest.(check int) "timer frozen while off" 1
    (Obs.Vmstats.timer_calls "test.timer");
  (* reset zeroes values but keeps registrations *)
  Obs.Vmstats.reset ();
  Alcotest.(check int) "counter reset" 0 (Obs.Vmstats.counter_value "test.counter");
  Alcotest.(check int) "hist reset" 0 h.Obs.Vmstats.h_count;
  Obs.Vmstats.bump c;
  Alcotest.(check int) "handle survives reset" 1 c.Obs.Vmstats.c_count

let test_json_shape () =
  Obs.Vmstats.enabled := true;
  Obs.Vmstats.reset ();
  Obs.Vmstats.bump (Obs.Vmstats.counter "test.json\"quote");
  let j = Obs.Vmstats.to_json () in
  let has needle =
    let nl = String.length needle and jl = String.length j in
    let rec go i = i + nl <= jl && (String.sub j i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counters section" true (has "\"counters\"");
  Alcotest.(check bool) "gauges section" true (has "\"gauges\"");
  Alcotest.(check bool) "histograms section" true (has "\"histograms\"");
  Alcotest.(check bool) "timers section" true (has "\"timers\"");
  Alcotest.(check bool) "names are escaped" true (has "test.json\\\"quote")

(* ---- Trace ---- *)

let test_trace_spec () =
  let names cs = List.map Obs.Trace.category_name cs in
  Alcotest.(check (list string)) "all"
    [ "translate"; "retranslate-all"; "link"; "exit"; "guard"; "lease" ]
    (names (Obs.Trace.parse_spec "all"));
  Alcotest.(check (list string)) "subset"
    [ "link"; "guard" ] (names (Obs.Trace.parse_spec "link,guard"));
  Alcotest.(check (list string)) "off" [] (names (Obs.Trace.parse_spec "0"));
  Alcotest.(check (list string)) "unknown names dropped"
    [ "exit" ] (names (Obs.Trace.parse_spec "exit,bogus"))

let test_trace_ring () =
  Obs.Trace.configure ~ring_capacity:4 ~spec:(Some "link") ();
  Alcotest.(check bool) "link on" true (Obs.Trace.on Obs.Trace.Link);
  Alcotest.(check bool) "guard off" false (Obs.Trace.on Obs.Trace.Guard);
  for i = 0 to 5 do
    Obs.Trace.emit Obs.Trace.Link [ ("i", Obs.Trace.I i) ]
  done;
  let lines = Obs.Trace.drain () in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length lines);
  Alcotest.(check int) "all events counted" 6 (Obs.Trace.events_emitted ());
  Alcotest.(check int) "overwrites counted" 2 (Obs.Trace.events_dropped ());
  (* oldest-first, and the oldest two were overwritten *)
  Alcotest.(check string) "oldest survivor"
    "{\"seq\": 2, \"cat\": \"link\", \"i\": 2}" (List.hd lines);
  (* restore defaults so later installs start clean *)
  Obs.Trace.configure ~spec:None ()

(* ---- stats knob must not change output ---- *)

let test_stats_parity () =
  List.iter
    (fun mode ->
       let retranslate = mode = Core.Jit_options.Region in
       let on, _ = run_mode mode ~retranslate loop_src in
       let off, _ =
         run_mode mode ~retranslate loop_src
           ~tweak:(fun o -> o.Core.Jit_options.stats <- false)
       in
       Alcotest.(check string) "stats on == stats off" on off)
    [ Core.Jit_options.Interp; Core.Jit_options.Tracelet;
      Core.Jit_options.ProfileOnly; Core.Jit_options.Region ];
  (* leave the global knob on for the rest of the suite *)
  Obs.Vmstats.enabled := true

(* ---- end-to-end counter smoke (perflab workload, Region mode) ---- *)

let counter = Obs.Vmstats.counter_value

let test_vmstats_smoke () =
  let r = Server.Perflab.run Core.Jit_options.Region in
  Alcotest.(check bool) "mono-cache hits" true (counter "dispatch.mono_hit" > 0);
  Alcotest.(check bool) "link follows" true (counter "link.follow" > 0);
  Alcotest.(check bool) "guard failures" true (counter "guard.fail" > 0);
  Alcotest.(check bool) "regions formed" true (counter "region.formed" > 0);
  Alcotest.(check bool) "optimized translations" true
    (counter "translate.optimized" > 0);
  Alcotest.(check bool) "interp opcode counts" true
    (counter "interp.op.Binop" > 0);
  Alcotest.(check bool) "pipeline pass timers ran" true
    (Obs.Vmstats.timer_calls "pass.dce" > 0);
  (* gauges are synced on demand *)
  Core.Engine.sync_vmstats r.Server.Perflab.r_engine;
  Alcotest.(check bool) "code bytes gauge" true
    (Obs.Vmstats.gauge_value "code.bytes.main" > 0);
  Alcotest.(check bool) "icache accesses gauge" true
    (Obs.Vmstats.gauge_value "icache.accesses" > 0);
  (* with dispatch caches off, the mono cache and links are never used *)
  ignore
    (Server.Perflab.run Core.Jit_options.Region
       ~tweak:(fun o -> o.Core.Jit_options.dispatch_caches <- false));
  Alcotest.(check int) "no mono hits with caches off" 0
    (counter "dispatch.mono_hit");
  Alcotest.(check int) "no link follows with caches off" 0
    (counter "link.follow");
  Alcotest.(check bool) "still guard failures" true (counter "guard.fail" > 0)

let test_install_resets () =
  ignore (Server.Perflab.run Core.Jit_options.Region);
  Alcotest.(check bool) "counters hot after run" true
    (counter "dispatch.mono_hit" > 0);
  Alcotest.(check bool) "profile recorded" true (Vm.Prof.call_graph () <> []);
  (* a fresh install starts a fresh engine-scoped registry and profile *)
  let u = Vm.Loader.load loop_src in
  ignore (Core.Engine.install u);
  Alcotest.(check int) "vmstats reset at install" 0
    (counter "dispatch.mono_hit");
  Alcotest.(check (list (pair (pair int int) int))) "prof reset at install"
    [] (Vm.Prof.call_graph ())

(* The options record is the engine's only configuration input: variables
   that once overrode it must leave an install's configuration alone. *)
let test_install_ignores_env () =
  let vars = [ ("REQUEST_WORKERS", "4"); ("JIT_STATS", "0");
               ("TC_EVICT_THRESHOLD", "2") ] in
  List.iter (fun (k, v) -> Unix.putenv k v) vars;
  Fun.protect
    ~finally:(fun () -> List.iter (fun (k, _) -> Unix.putenv k "") vars)
    (fun () ->
       let eng = Core.Engine.install (Vm.Loader.load loop_src) in
       let o = eng.Core.Engine.opts in
       Alcotest.(check int) "request_workers" 1
         o.Core.Jit_options.request_workers;
       Alcotest.(check int) "tc_evict_threshold" 0
         o.Core.Jit_options.tc_evict_threshold;
       Alcotest.(check bool) "vmstats enabled" true !Obs.Vmstats.enabled)

(* ---- retranslate-all link accounting ---- *)

let test_retranslate_links () =
  let u = Vm.Loader.load loop_src in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.mode <- Core.Jit_options.Region;
  let eng = Core.Engine.install ~opts u in
  let call () =
    let r, out =
      Vm.Output.capture (fun () -> Vm.Interp.call_by_name u "main" [])
    in
    Runtime.Heap.decref r; out
  in
  let out1 = call () in
  let smashed_before = counter "link.smashed" in
  Alcotest.(check bool) "links smashed while profiling" true
    (smashed_before > 0);
  Alcotest.(check int) "nothing invalidated yet" 0
    (counter "link.invalidated");
  ignore (Core.Engine.retranslate_all eng);
  Alcotest.(check bool) "generation bump invalidated links" true
    (counter "link.invalidated" > 0);
  let mono_after_rta = counter "dispatch.mono_hit" in
  let follows_after_rta = counter "link.follow" in
  let binds_after_rta = counter "exit.bind" in
  let out2 = call () in
  let out3 = call () in
  Alcotest.(check string) "output stable across retranslate" out1 out2;
  Alcotest.(check string) "output stable on optimized reuse" out1 out3;
  (* the fresh tables re-engage the monomorphic entry cache... *)
  Alcotest.(check bool) "mono cache resumes after retranslate" true
    (counter "dispatch.mono_hit" > mono_after_rta);
  (* ...and any chained bind exit must re-smash or follow a gen-1 link —
     gen-0 links died with the generation bump *)
  if counter "exit.bind" > binds_after_rta then
    Alcotest.(check bool) "linking resumes in optimized code" true
      (counter "link.smashed" > smashed_before
       || counter "link.follow" > follows_after_rta)

let test_retranslate_timer_units () =
  (* the retranslate timers accumulate seconds: one retranslate-all's
     recorded pause fits inside the wall time measured around the call *)
  let _, eng = run_mode Core.Jit_options.Region loop_src in
  let calls0 = Obs.Vmstats.timer_calls "retranslate.pause" in
  let pause0 = Obs.Vmstats.timer_seconds "retranslate.pause" in
  let compile0 = Obs.Vmstats.timer_seconds "retranslate.compile" in
  let t0 = Unix.gettimeofday () in
  ignore (Core.Engine.retranslate_all eng);
  let wall = Unix.gettimeofday () -. t0 in
  let pause = Obs.Vmstats.timer_seconds "retranslate.pause" -. pause0 in
  let compile = Obs.Vmstats.timer_seconds "retranslate.compile" -. compile0 in
  Alcotest.(check int) "one pause recorded" 1
    (Obs.Vmstats.timer_calls "retranslate.pause" - calls0);
  Alcotest.(check bool)
    (Printf.sprintf "pause %.6f s within wall %.6f s" pause wall) true
    (pause >= 0.0 && pause <= wall);
  Alcotest.(check bool)
    (Printf.sprintf "compile %.6f s within wall %.6f s" compile wall) true
    (compile >= 0.0 && compile <= wall)

(* ---- tc-print ---- *)

let test_tc_print () =
  let _, eng =
    run_mode Core.Jit_options.Region ~retranslate:true loop_src
  in
  let report = Core.Tc_print.report ~top:5 eng in
  let has needle =
    let nl = String.length needle and rl = String.length report in
    let rec go i =
      i + nl <= rl && (String.sub report i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "header present" true (has "tc-print:");
  Alcotest.(check bool) "ranked translation" true (has "#1   tr=");
  Alcotest.(check bool) "execs column" true (has "execs=");
  Alcotest.(check bool) "guard chains" true (has "guards:");
  Alcotest.(check bool) "exit link state" true (has "exit 0 pc=")

let suite =
  ( "obs",
    [ Alcotest.test_case "vmstats log2 bucketing" `Quick test_bucketing;
      Alcotest.test_case "vmstats primitives" `Quick test_primitives;
      Alcotest.test_case "vmstats json shape" `Quick test_json_shape;
      Alcotest.test_case "trace spec parsing" `Quick test_trace_spec;
      Alcotest.test_case "trace ring buffer" `Quick test_trace_ring;
      Alcotest.test_case "stats knob output parity" `Quick test_stats_parity;
      Alcotest.test_case "vmstats counter smoke" `Quick test_vmstats_smoke;
      Alcotest.test_case "install resets telemetry" `Quick test_install_resets;
      Alcotest.test_case "install reads no environment" `Quick
        test_install_ignores_env;
      Alcotest.test_case "retranslate-all link accounting" `Quick
        test_retranslate_links;
      Alcotest.test_case "retranslate timers record seconds" `Quick
        test_retranslate_timer_units;
      Alcotest.test_case "tc-print report" `Quick test_tc_print ] )
