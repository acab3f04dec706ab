(** The benchmark harness: regenerates every table and figure of the paper's
    evaluation (§6) on the simulated substrate.

    Usage: main.exe
      [fig8|fig9|fig10|fig11|table1|ablate|vmstats|serving|startup|
       tc_lifecycle|json|all]

    Absolute numbers are not expected to match the paper (the substrate is
    a deterministic simulator, not Facebook production hardware); the
    *shape* — who wins, by roughly what factor, where the knees are — is
    what each section compares.  EXPERIMENTS.md records paper-vs-measured
    for every row.  Every figure here is simulated and deterministic except
    retranslate-all pause times; host time per layer is perfbench's to
    measure. *)

let line () = print_endline (String.make 72 '-')

let hdr title paper =
  line ();
  Printf.printf "%s\n" title;
  Printf.printf "paper: %s\n" paper;
  line ()

let has_substring (s : string) (sub : string) : bool =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(** Exit 1 with [msg] on stderr unless [cond] holds. *)
let check (cond : bool) (msg : string) =
  if not cond then begin
    prerr_endline ("ERROR: " ^ msg);
    exit 1
  end

let all_equal = function
  | x :: rest -> List.for_all (fun y -> y = x) rest
  | [] -> true

(* ------------------------------------------------------------------ *)
(* Figure 8: execution modes                                           *)
(* ------------------------------------------------------------------ *)

(** The full perflab in every execution mode, and whether all modes
    produced identical output.  A divergence means the JIT changed
    program behaviour. *)
let run_modes () : (string * Server.Perflab.result) list * bool =
  let results =
    List.map
      (fun (n, m) -> (n, Server.Perflab.run m))
      [ ("Interp", Core.Jit_options.Interp);
        ("JIT-Tracelet", Core.Jit_options.Tracelet);
        ("JIT-Profile", Core.Jit_options.ProfileOnly);
        ("JIT-Region", Core.Jit_options.Region) ]
  in
  (results,
   all_equal (List.map (fun (_, r) -> r.Server.Perflab.r_output_hash) results))

let fig8 () =
  hdr "Figure 8: performance of execution modes (relative to JIT-Region)"
    "Interp 12.8%  JIT-Profile 39.8%  JIT-Tracelet 82.2%  JIT-Region 100%";
  let results, hash_match = run_modes () in
  check hash_match "output hash mismatch across execution modes";
  let region =
    (List.assoc "JIT-Region" results).Server.Perflab.r_weighted
  in
  Printf.printf "%-14s %16s %10s %14s\n"
    "mode" "cycles/request" "relative" "(99% CI +-)";
  List.iter
    (fun (n, r) ->
       Printf.printf "%-14s %16.0f %9.1f%% %14.1f\n"
         n r.Server.Perflab.r_weighted
         (100.0 *. region /. r.Server.Perflab.r_weighted)
         r.Server.Perflab.r_ci99)
    results;
  (* the in-text §6.1 claims *)
  let interp = (List.assoc "Interp" results).Server.Perflab.r_weighted in
  let prof = (List.assoc "JIT-Profile" results).Server.Perflab.r_weighted in
  let tracelet = (List.assoc "JIT-Tracelet" results).Server.Perflab.r_weighted in
  Printf.printf "\nprofiling code vs interpreter: %.1fx faster (paper: 3.1x)\n"
    (interp /. prof);
  Printf.printf "region JIT speedup over tracelet JIT: %.1f%% (paper: 21.7%%)\n"
    (100.0 *. (tracelet /. region -. 1.0))

(* ------------------------------------------------------------------ *)
(* Figure 9: startup behaviour                                         *)
(* ------------------------------------------------------------------ *)

let fig9 () =
  hdr "Figure 9: server behaviour during the initial minutes after restart"
    "code grows to ~491MB; RPS ~60% at 3min; crosses steady state after \
     optimized code is published; 8% of JITed-code time in live code";
  let tr = Server.Startup.simulate ~total_minutes:12.0 () in
  Printf.printf "%8s %12s %10s\n" "minute" "JITed code" "RPS (%)";
  List.iter
    (fun (s : Server.Startup.sample) ->
       Printf.printf "%8.1f %10d KB %9.1f%%\n"
         s.s_minute s.s_code_kb s.s_rps_pct)
    tr.t_samples;
  Printf.printf "\npoint A (profiling done, optimization starts): %.1f min\n"
    tr.t_point_a_min;
  Printf.printf "point B (optimized code produced):             %.1f min\n"
    tr.t_point_b_min;
  Printf.printf "point C (optimized code published):            %.1f min\n"
    tr.t_point_c_min;
  Printf.printf "final JITed code size: %d KB\n" tr.t_final_code_kb;
  Printf.printf "retranslate-all pause (wall clock): %.2f ms\n" tr.t_pause_ms;
  Printf.printf "steady-state time in live-mode code: %.1f%% (paper: 8%%)\n"
    tr.t_pct_live_steady

(* ------------------------------------------------------------------ *)
(* Figure 10: impact of individual optimizations                       *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  hdr "Figure 10: slowdown from disabling each optimization (Region mode)"
    "inlining 7.3%  RCE 3.4%  guard-relax 1.4%  method-dispatch 7.2%  \
     PGO-layout 2.8%  all-PGO 9.0%  huge-pages 1.6%";
  let baseline = Server.Perflab.run Core.Jit_options.Region in
  let base = baseline.Server.Perflab.r_weighted in
  let experiments =
    [ ("Inlining", fun (o : Core.Jit_options.t) -> o.inlining <- false);
      ("RCE", fun (o : Core.Jit_options.t) -> o.rce <- false);
      ("Guard Relax.", fun (o : Core.Jit_options.t) -> o.guard_relax <- false);
      ("Method Disp.",
       fun (o : Core.Jit_options.t) ->
         o.method_dispatch <- false; o.inline_cache <- false);
      ("PGO Layout",
       fun (o : Core.Jit_options.t) -> o.pgo_layout <- false);
      ("All PGO", Core.Jit_options.disable_all_pgo);
      ("Huge Pages", fun (o : Core.Jit_options.t) -> o.huge_pages <- false) ]
  in
  Printf.printf "%-14s %16s %10s\n" "disabled" "cycles/request" "slowdown";
  Printf.printf "%-14s %16.0f %10s\n" "(baseline)" base "-";
  List.iter
    (fun (name, tweak) ->
       let r = Server.Perflab.run Core.Jit_options.Region ~tweak in
       Printf.printf "%-14s %16.0f %9.1f%%\n"
         name r.Server.Perflab.r_weighted
         (100.0 *. (r.Server.Perflab.r_weighted /. base -. 1.0)))
    experiments

(* ------------------------------------------------------------------ *)
(* Figure 11: impact of JITed code size                                *)
(* ------------------------------------------------------------------ *)

let fig11 () =
  hdr "Figure 11: performance vs JITed-code budget (fraction of baseline)"
    "10% of code -> 61.4% perf; 40% -> 91.0%; 120% -> +0.8%";
  let points, base_bytes = Server.Sweep.run () in
  Printf.printf "baseline code size: %d KB\n" (base_bytes / 1024);
  Printf.printf "%10s %12s %12s\n" "fraction" "perf (%)" "code (KB)";
  List.iter
    (fun (p : Server.Sweep.point) ->
       Printf.printf "%9.0f%% %11.1f%% %12d\n"
         (100.0 *. p.p_fraction) p.p_perf_pct (p.p_code_bytes / 1024))
    points

(* ------------------------------------------------------------------ *)
(* Table 1: type constraints (+ guard-relaxation statistics)           *)
(* ------------------------------------------------------------------ *)

let table1 () =
  hdr "Table 1: type-constraint kinds observed on profiling guards"
    "six kinds, Generic (most relaxed) .. Specialized (most restrictive)";
  (* run a full profile so the TransCFG is populated *)
  Region.Relax.reset_stats ();
  let _r = Server.Perflab.run Core.Jit_options.Region in
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (b : Region.Rdesc.block) ->
       List.iter
         (fun (g : Region.Rdesc.guard) ->
            let k = Region.Rdesc.constraint_name g.g_constraint in
            Hashtbl.replace counts k
              (1 + Option.value (Hashtbl.find_opt counts k) ~default:0))
         b.b_preconds)
    Region.Transcfg.blocks_by_id;
  Printf.printf "%-22s %8s\n" "constraint" "guards";
  List.iter
    (fun k ->
       Printf.printf "%-22s %8d\n" k
         (Option.value (Hashtbl.find_opt counts k) ~default:0))
    [ "Generic"; "Countness"; "BoxAndCountness"; "BoxAndCountnessInit";
      "Specific"; "Specialized" ];
  let s = Region.Relax.stats in
  Printf.printf "\nguard relaxation: %d widened to Uncounted, %d dropped \
                 (generic), %d dropped (Generic constraint), %d kept, \
                 %d sibling translations subsumed\n"
    (Atomic.get s.relaxed_to_uncounted) (Atomic.get s.relaxed_to_generic)
    (Atomic.get s.dropped_generic) (Atomic.get s.kept)
    (Atomic.get s.blocks_subsumed);
  Printf.printf "RCE: %d IncRef/DecRef pairs eliminated, %d DecRefs \
                 specialized to DecRefNZ\n"
    (Atomic.get Hhir_opt.Rce.stats.pairs_eliminated)
    (Atomic.get Hhir_opt.Rce.stats.decref_nz)

(* ------------------------------------------------------------------ *)
(* Machine-readable trajectory: BENCH_hotpath.json                     *)
(* ------------------------------------------------------------------ *)

(** Retranslate-all pause vs worker count: same Region perflab, only the
    compile-phase parallelism varies.  Pause is the engine's wall-clock
    [retranslate.pause] timer, in ms (one retranslation per perflab run, and
    install resets the registry, so the read is exactly that run's pause);
    best-of-[reps] since only host noise varies.  The publish phase is
    deterministic, so output hash and code bytes must be identical for
    every worker count. *)
let measure_retranslate ~(reps : int) (workers : int)
  : float * float * Server.Perflab.result =
  let best = ref infinity and best_compile = ref infinity in
  let last = ref None in
  for _ = 1 to reps do
    let r =
      Server.Perflab.run Core.Jit_options.Region
        ~tweak:(fun o -> o.Core.Jit_options.jit_workers <- workers)
    in
    let pause = Obs.Vmstats.timer_seconds "retranslate.pause" *. 1000. in
    let compile = Obs.Vmstats.timer_seconds "retranslate.compile" *. 1000. in
    if pause < !best then best := pause;
    if compile < !best_compile then best_compile := compile;
    last := Some r
  done;
  (!best, !best_compile, Option.get !last)

(** Fresh engine brought to steady state, as a production server would be
    by then: load + hhbbc, fifteen warmup rounds over every endpoint, then
    retranslate-all.  [tweak] adjusts the options before install. *)
let steady_engine ?(tweak = ignore) () : Hhbc.Hunit.t * Core.Engine.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  tweak opts;
  let eng = Core.Engine.install ~opts u in
  for round = 0 to 14 do
    List.iter
      (fun (ep : Workloads.Endpoints.endpoint) ->
         let reps = max 1 (ep.Workloads.Endpoints.ep_weight / 10) in
         for k = 0 to reps - 1 do
           ignore (Server.Perflab.call_endpoint u ep (round * 3 + k))
         done)
      Workloads.Endpoints.endpoints
  done;
  ignore (Core.Engine.retranslate_all eng);
  (u, eng)

let workers ~jit ~request (o : Core.Jit_options.t) =
  o.Core.Jit_options.jit_workers <- jit;
  o.Core.Jit_options.request_workers <- request

(* ------------------------------------------------------------------ *)
(* Parallel request serving: cycles and determinism by worker config   *)
(* ------------------------------------------------------------------ *)

type serving_sample = {
  ss_jit_workers : int;
  ss_request_workers : int;
  ss_requests : int;
  ss_weighted_cycles : float;       (* weighted avg cycles/request *)
  ss_output_hash : int;
  (* frozen-dispatch cost of the burst itself (counter deltas around the
     serving run; zero for rw=1, which has no frozen dispatch) *)
  ss_miss : int;                    (* serving.translation_miss *)
  ss_fallback : int;                (* serving.interp_fallback *)
  ss_lazy : int;                    (* lazy_translate.compiled *)
}

(** Serve a deterministic request mix across [request_workers] domains
    from a steady-state engine. *)
let measure_serving ~(jit_workers : int) ~(request_workers : int)
  : serving_sample =
  let u, eng =
    steady_engine ~tweak:(workers ~jit:jit_workers ~request:request_workers) ()
  in
  let requests = Server.Serving.mix ~rounds:30 () in
  (* per-burst counter deltas: warmup and retranslate also dispatch, so
     the burst's own miss/fallback/lazy-compile counts are deltas around
     the serving run (worker shards are merged at the join, so the
     post-run read sees every worker's bumps) *)
  let cv = Obs.Vmstats.counter_value in
  let m0 = cv "serving.translation_miss"
  and f0 = cv "serving.interp_fallback"
  and l0 = cv "lazy_translate.compiled" in
  let r = Server.Serving.run u eng requests in
  { ss_jit_workers = jit_workers;
    ss_request_workers = request_workers;
    ss_requests = Array.length requests;
    ss_weighted_cycles =
      Server.Serving.weighted_cycles requests r.Server.Serving.sv_cycles;
    ss_output_hash = r.Server.Serving.sv_output_hash;
    ss_miss = cv "serving.translation_miss" - m0;
    ss_fallback = cv "serving.interp_fallback" - f0;
    ss_lazy = cv "lazy_translate.compiled" - l0 }

(** The serving sweep: request workers {1,2,4} at serial compile, plus the
    combined (jit-workers 4 x request-workers 4) configuration.  Output
    hashes must be identical across every configuration — a divergence
    means a data race changed program behaviour. *)
let serving_sweep () : serving_sample list * bool =
  let configs = [ (1, 1); (1, 2); (1, 4); (4, 4) ] in
  let samples =
    List.map
      (fun (jw, rw) -> measure_serving ~jit_workers:jw ~request_workers:rw)
      configs
  in
  (samples, all_equal (List.map (fun s -> s.ss_output_hash) samples))

let print_serving (samples : serving_sample list) (deterministic : bool) =
  Printf.printf "%4s %4s %10s %14s %6s %6s %6s\n"
    "jw" "rw" "requests" "w.cycles/req" "miss" "interp" "lazy";
  List.iter
    (fun s ->
       Printf.printf "%4d %4d %10d %14.0f %6d %6d %6d\n"
         s.ss_jit_workers s.ss_request_workers s.ss_requests
         s.ss_weighted_cycles s.ss_miss s.ss_fallback s.ss_lazy)
    samples;
  Printf.printf "output hash identical across configurations: %b\n"
    deterministic;
  check deterministic
    "output hash diverges across request-worker configurations"

(* ------------------------------------------------------------------ *)
(* Startup: cold vs jumpstarted requests-to-steady-state (§6.2)        *)
(* ------------------------------------------------------------------ *)

let startup_metrics_json (m : Server.Startup.startup_metrics) : string =
  Printf.sprintf
    "{ \"requests_to_steady\": %d, \"first_window_pct\": %.1f, \
     \"point_a_min\": %.2f, \"point_b_min\": %.2f, \"point_c_min\": %.2f, \
     \"prof_translations\": %d, \"opt_translations\": %d, \
     \"retranslate_runs\": %d, \"main_code_kb\": %d, \"output_hash\": %d }"
    m.Server.Startup.su_requests_to_steady m.Server.Startup.su_first_window_pct
    m.Server.Startup.su_point_a_min m.Server.Startup.su_point_b_min
    m.Server.Startup.su_point_c_min m.Server.Startup.su_prof_translations
    m.Server.Startup.su_opt_translations m.Server.Startup.su_retranslate_runs
    m.Server.Startup.su_main_code_kb m.Server.Startup.su_output_hash

let startup_json (r : Server.Startup.startup_report) : string =
  Printf.sprintf
    "{\n    \"cold\": %s,\n    \"jumpstart\": %s,\n    \
     \"delta_requests\": %d,\n    \"hash_match\": %b,\n    \
     \"image_bytes\": %d\n  }"
    (startup_metrics_json r.Server.Startup.sr_cold)
    (startup_metrics_json r.Server.Startup.sr_jump)
    r.Server.Startup.sr_delta_requests r.Server.Startup.sr_hash_match
    r.Server.Startup.sr_image_bytes

(** The cold-vs-jumpstart invariants: identical outputs, a jumpstarted
    run that neither profiled nor retranslated (its warmup was skipped),
    a cold run that did retranslate, and steady state reached strictly
    earlier from the image. *)
let check_startup (r : Server.Startup.startup_report) =
  let cold = r.Server.Startup.sr_cold and jump = r.Server.Startup.sr_jump in
  check r.Server.Startup.sr_hash_match
    "output hash diverges between cold and jumpstarted runs";
  check
    (jump.Server.Startup.su_prof_translations = 0
     && jump.Server.Startup.su_retranslate_runs = 0)
    "jumpstarted run still profiled or retranslated (warmup not skipped)";
  check (cold.Server.Startup.su_retranslate_runs >= 1)
    "cold run never retranslated";
  check
    (jump.Server.Startup.su_requests_to_steady
     < cold.Server.Startup.su_requests_to_steady)
    "jumpstarted run did not reach steady state before the cold run"

let print_startup (r : Server.Startup.startup_report) =
  let row name (m : Server.Startup.startup_metrics) =
    Printf.printf
      "%-10s %10d %10.1f%% %6.2f %6.2f %6.2f %6d %5d %6d %9d\n"
      name m.Server.Startup.su_requests_to_steady
      m.Server.Startup.su_first_window_pct m.Server.Startup.su_point_a_min
      m.Server.Startup.su_point_b_min m.Server.Startup.su_point_c_min
      m.Server.Startup.su_prof_translations
      m.Server.Startup.su_opt_translations
      m.Server.Startup.su_retranslate_runs
      m.Server.Startup.su_main_code_kb
  in
  Printf.printf "%-10s %10s %11s %6s %6s %6s %6s %5s %6s %9s\n"
    "start" "to-steady" "win0 rps" "A" "B" "C" "prof" "opt" "retr"
    "main KB";
  row "cold" r.Server.Startup.sr_cold;
  row "jumpstart" r.Server.Startup.sr_jump;
  Printf.printf
    "\njumpstart reaches steady state %d requests earlier (cold %d -> %d)\n"
    r.Server.Startup.sr_delta_requests
    r.Server.Startup.sr_cold.Server.Startup.su_requests_to_steady
    r.Server.Startup.sr_jump.Server.Startup.su_requests_to_steady;
  Printf.printf "output hash identical cold vs jumpstarted: %b\n"
    r.Server.Startup.sr_hash_match;
  Printf.printf "jumpstart image: %d bytes\n"
    r.Server.Startup.sr_image_bytes;
  check_startup r

let startup () =
  hdr "Startup: requests to steady state, cold vs jumpstarted (§6.2)"
    "jumpstart serializes profile data + TC metadata so restarted servers \
     skip the warmup cliff";
  print_startup (Server.Startup.measure_startup ())

(** The deterministic serving report behind the json target: steady-state
    engine, then [Serving.measure] over the mix with a second
    retranslate-all fired at the halfway point — so the report covers
    epoch adoption and the retranslate-pause phase too; the mix's
    unwarmed specializations give the translation-miss and lease-wait
    phases traffic.  The measured burst is single-domain and slot-ordered, so
    the emitted JSON is byte-identical on any host and any worker
    configuration.  Returns the JSON and the measurement behind it. *)
let measure_serving_report () : string * Server.Serving.measured =
  let u, eng = steady_engine () in
  let requests = Server.Serving.mix ~rounds:30 () in
  let trigger =
    (Array.length requests / 2,
     fun () -> ignore (Core.Engine.retranslate_all eng))
  in
  let m = Server.Serving.measure ~trigger u eng requests in
  (Server.Serving.report_json requests m, m)

(* ------------------------------------------------------------------ *)
(* TC lifecycle: liveness-driven eviction + Main compaction under a    *)
(* shifting request mix (§6.4's budget pressure, made continuous)      *)
(* ------------------------------------------------------------------ *)

type lifecycle_sample = {
  tl_budget : int;              (* code-size cap the scenario ran under *)
  tl_opt_translations : int;    (* published optimized translations at peak *)
  tl_evicted : int;
  tl_evicted_bytes : int;
  tl_holes_before : int;        (* dead bytes diluting Main+Cold pre-compact *)
  tl_holes_after : int;         (* must be 0: compaction closes every hole *)
  tl_reclaimed : int;           (* bytes the compaction returned to the pool *)
  tl_counted_before : int;      (* budget-counted bytes around the compaction *)
  tl_counted_after : int;
  tl_main_before : int;         (* Main-section extent around the compaction *)
  tl_main_after : int;
  tl_icache_before : int;       (* burst i-cache misses on the holey cache *)
  tl_icache_after : int;        (* same burst after compaction *)
  tl_itlb_before : int;
  tl_itlb_after : int;
  tl_cycles_before : float;     (* weighted cycles/req, same two bursts *)
  tl_cycles_after : float;
  tl_hash_stable : bool;        (* identical outputs across evict+compact *)
}

(** Liveness threshold for the lifecycle scenarios.  The shifted mix
    carries only a handful of requests per endpoint per decay window, so
    a surviving translation's score settles near 2x its per-window execs
    (the decay fixed point) — single digits.  The threshold sits just
    below that, and the decay loop runs enough ticks that abandoned
    code's warm score (hundreds to thousands of execs) halves its way
    underneath it. *)
let lifecycle_threshold = 3

(** Steady-state engine with the lifecycle knobs set. *)
let lifecycle_engine ~(budget : int) ~(jit_workers : int)
    ~(request_workers : int) ~(compact : bool) () =
  steady_engine
    ~tweak:(fun o ->
        workers ~jit:jit_workers ~request:request_workers o;
        o.Core.Jit_options.code_budget <- Some budget;
        o.Core.Jit_options.tc_evict_threshold <- lifecycle_threshold;
        o.Core.Jit_options.tc_compact <- compact)
    ()

(** Size the deployment cap off an uncapped bring-up: steady-state counted
    bytes plus a sliver of headroom.  Holes left by eviction count against
    this cap, so the budget only breathes again when compaction closes
    them — the pressure that makes the lifecycle earn its keep. *)
let lifecycle_budget () : int =
  let _, eng = steady_engine () in
  Simcpu.Codecache.bytes_counted eng.Core.Engine.cache + 4096

(** Interleave small shifted bursts with lifecycle ticks: traffic the
    shifted mix still carries keeps its liveness score replenished, while
    abandoned code's score halves every tick until it crosses the
    eviction threshold (age >= 2 guards newly placed code). *)
let lifecycle_decay_loop ?workers u eng =
  for salt = 1 to 12 do
    ignore
      (Server.Serving.run ?workers u eng
         (Server.Serving.mix_shifted ~salt ~rounds:2 ()));
    ignore (Core.Engine.tc_lifecycle_tick eng)
  done

(** The measured scenario, single-domain for determinism: steady traffic,
    then the mix shifts and the decay loop evicts the abandoned code
    (compaction held off so the holey cache is observable), then the same
    shifted burst is measured before and after one explicit compaction.
    Both measured bursts run against identical lazily-recompiled state
    (a steadying burst in between absorbs the one-time recompiles), so
    the i-cache / I-TLB deltas isolate code density. *)
let measure_lifecycle ~(budget : int) () : lifecycle_sample =
  let u, eng =
    lifecycle_engine ~budget ~jit_workers:1 ~request_workers:1
      ~compact:false ()
  in
  (* measure on small I-TLB pages: with the hot section mapped on one
     simulated huge page the I-TLB cannot see layout at all, and the
     point of this scenario is exactly the density the holes destroy *)
  eng.Core.Engine.opts.Core.Jit_options.huge_pages <- false;
  let lo, hi = Simcpu.Codecache.main_range eng.Core.Engine.cache in
  Simcpu.Itlb.set_huge
    eng.Core.Engine.main_ctx.Core.Engine.sx_machine.Core.Exec.itlb
    ~enabled:false ~lo ~hi;
  let cache = eng.Core.Engine.cache in
  let opt_translations =
    List.length
      (List.filter
         (fun (tr : Core.Translation.t) ->
            tr.Core.Translation.tr_kind = Core.Translation.KOptimized)
         (Core.Tc_print.collect eng))
  in
  ignore (Server.Serving.run ~workers:1 u eng (Server.Serving.mix ~rounds:12 ()));
  let cv = Obs.Vmstats.counter_value in
  let ev0 = cv "tc.evicted" and evb0 = cv "tc.evicted_bytes" in
  lifecycle_decay_loop ~workers:1 u eng;
  let evicted = cv "tc.evicted" - ev0 in
  let evicted_bytes = cv "tc.evicted_bytes" - evb0 in
  let holes_before = Simcpu.Codecache.holes_bytes cache in
  let counted_before = Simcpu.Codecache.bytes_counted cache in
  let main_before =
    Simcpu.Codecache.section_bytes cache Simcpu.Codecache.Main in
  let shifted = Server.Serving.mix_shifted ~salt:99 ~rounds:12 () in
  (* steadying burst: any evicted-but-still-touched srckeys recompile as
     live tracelets here, once, off the measured path *)
  ignore (Server.Serving.run ~workers:1 u eng shifted);
  let m = eng.Core.Engine.main_ctx.Core.Engine.sx_machine in
  let ic0 = m.Core.Exec.icache.Simcpu.Icache.misses
  and tb0 = m.Core.Exec.itlb.Simcpu.Itlb.misses in
  let r_holey = Server.Serving.run ~workers:1 u eng shifted in
  let icache_before = m.Core.Exec.icache.Simcpu.Icache.misses - ic0
  and itlb_before = m.Core.Exec.itlb.Simcpu.Itlb.misses - tb0 in
  let reclaimed = Core.Engine.compact_tc eng in
  let holes_after = Simcpu.Codecache.holes_bytes cache in
  let counted_after = Simcpu.Codecache.bytes_counted cache in
  let main_after =
    Simcpu.Codecache.section_bytes cache Simcpu.Codecache.Main in
  let ic1 = m.Core.Exec.icache.Simcpu.Icache.misses
  and tb1 = m.Core.Exec.itlb.Simcpu.Itlb.misses in
  let r_compact = Server.Serving.run ~workers:1 u eng shifted in
  let icache_after = m.Core.Exec.icache.Simcpu.Icache.misses - ic1
  and itlb_after = m.Core.Exec.itlb.Simcpu.Itlb.misses - tb1 in
  { tl_budget = budget;
    tl_opt_translations = opt_translations;
    tl_evicted = evicted;
    tl_evicted_bytes = evicted_bytes;
    tl_holes_before = holes_before;
    tl_holes_after = holes_after;
    tl_reclaimed = reclaimed;
    tl_counted_before = counted_before;
    tl_counted_after = counted_after;
    tl_main_before = main_before;
    tl_main_after = main_after;
    tl_icache_before = icache_before;
    tl_icache_after = icache_after;
    tl_itlb_before = itlb_before;
    tl_itlb_after = itlb_after;
    tl_cycles_before =
      Server.Serving.weighted_cycles shifted r_holey.Server.Serving.sv_cycles;
    tl_cycles_after =
      Server.Serving.weighted_cycles shifted r_compact.Server.Serving.sv_cycles;
    tl_hash_stable =
      r_holey.Server.Serving.sv_output_hash
      = r_compact.Server.Serving.sv_output_hash }

(** Worker-config parity: the full lifecycle (decay loop with automatic
    compaction, plus one tick fired mid-burst from whichever serving
    domain crosses the halfway mark) must leave outputs bit-identical
    across (jit x request) worker configurations.  Victim sets may differ
    — exec counts race benignly under parallel serving — but eviction
    only changes the dispatch path, never a result. *)
let lifecycle_parity ~(budget : int) ()
  : (int * int * int * int) list * bool =
  let configs = [ (1, 1); (2, 2); (4, 4) ] in
  let rows =
    List.map
      (fun (jw, rw) ->
         let u, eng =
           lifecycle_engine ~budget ~jit_workers:jw ~request_workers:rw
             ~compact:true ()
         in
         let r_a =
           Server.Serving.run u eng (Server.Serving.mix ~rounds:12 ()) in
         lifecycle_decay_loop u eng;
         let shifted = Server.Serving.mix_shifted ~salt:99 ~rounds:12 () in
         let trigger =
           (Array.length shifted / 2,
            fun () -> ignore (Core.Engine.tc_lifecycle_tick eng))
         in
         let r_s = Server.Serving.run ~trigger u eng shifted in
         (jw, rw, r_a.Server.Serving.sv_output_hash,
          r_s.Server.Serving.sv_output_hash))
      configs
  in
  (rows, all_equal (List.map (fun (_, _, ha, hs) -> (ha, hs)) rows))

let lifecycle_json (s : lifecycle_sample)
    (rows : (int * int * int * int) list) (deterministic : bool) : string =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "{\n";
  add "    \"code_budget\": %d,\n" s.tl_budget;
  add "    \"opt_translations\": %d,\n" s.tl_opt_translations;
  add "    \"evicted\": %d,\n" s.tl_evicted;
  add "    \"evicted_bytes\": %d,\n" s.tl_evicted_bytes;
  add "    \"holes_bytes_before_compact\": %d,\n" s.tl_holes_before;
  add "    \"holes_bytes_after_compact\": %d,\n" s.tl_holes_after;
  add "    \"reclaimed_bytes\": %d,\n" s.tl_reclaimed;
  add "    \"counted_bytes_before\": %d,\n" s.tl_counted_before;
  add "    \"counted_bytes_after\": %d,\n" s.tl_counted_after;
  add "    \"main_bytes_before\": %d,\n" s.tl_main_before;
  add "    \"main_bytes_after\": %d,\n" s.tl_main_after;
  add "    \"icache_misses_before\": %d,\n" s.tl_icache_before;
  add "    \"icache_misses_after\": %d,\n" s.tl_icache_after;
  add "    \"itlb_misses_before\": %d,\n" s.tl_itlb_before;
  add "    \"itlb_misses_after\": %d,\n" s.tl_itlb_after;
  add "    \"weighted_cycles_before\": %.1f,\n" s.tl_cycles_before;
  add "    \"weighted_cycles_after\": %.1f,\n" s.tl_cycles_after;
  add "    \"hash_stable_across_compaction\": %b,\n" s.tl_hash_stable;
  add "    \"parity\": {\n";
  List.iter
    (fun (jw, rw, ha, hs) ->
       add "      \"jw%d_rw%d\": { \"hash_steady\": %d, \
            \"hash_shifted\": %d },\n"
         jw rw ha hs)
    rows;
  add "      \"deterministic\": %b\n    }\n  }" deterministic;
  Buffer.contents b

(** Run the full lifecycle scenario: sized budget, measured single-domain
    sample, worker-config parity sweep. *)
let lifecycle_sweep ()
  : lifecycle_sample * (int * int * int * int) list * bool =
  let budget = lifecycle_budget () in
  let sample = measure_lifecycle ~budget () in
  let rows, deterministic = lifecycle_parity ~budget () in
  (sample, rows, deterministic)

(** Print the lifecycle scenario and enforce its invariants: eviction
    fired, outputs stable across evict+compact, no holes left after
    compaction, and parity across worker configurations. *)
let print_lifecycle (s : lifecycle_sample)
    (rows : (int * int * int * int) list) (deterministic : bool) =
  Printf.printf
    "tc lifecycle: budget %d B, %d optimized translations at peak\n"
    s.tl_budget s.tl_opt_translations;
  Printf.printf
    "  evicted %d translations (%d B); holes %d B -> %d B after \
     compaction (%d B reclaimed)\n"
    s.tl_evicted s.tl_evicted_bytes s.tl_holes_before s.tl_holes_after
    s.tl_reclaimed;
  Printf.printf "  main section %d B -> %d B; counted %d B -> %d B\n"
    s.tl_main_before s.tl_main_after s.tl_counted_before s.tl_counted_after;
  Printf.printf
    "  shifted burst: icache misses %d -> %d, itlb misses %d -> %d, \
     weighted cycles/req %.0f -> %.0f\n"
    s.tl_icache_before s.tl_icache_after s.tl_itlb_before s.tl_itlb_after
    s.tl_cycles_before s.tl_cycles_after;
  Printf.printf "  outputs stable across evict+compact: %b\n" s.tl_hash_stable;
  List.iter
    (fun (jw, rw, ha, hs) ->
       Printf.printf "  parity jw=%d rw=%d: steady hash %d, shifted hash %d\n"
         jw rw ha hs)
    rows;
  Printf.printf "  parity across worker configurations: %b\n" deterministic;
  check (s.tl_evicted >= 1) "lifecycle scenario evicted nothing";
  check s.tl_hash_stable "output hash changed across eviction or compaction";
  check (s.tl_holes_after = 0) "compaction left holes in the code cache";
  check deterministic
    "lifecycle output hash diverges across worker configurations"

let tc_lifecycle () =
  hdr "TC lifecycle: eviction + compaction under a shifting request mix"
    "(liveness decay evicts abandoned optimized code; compaction closes \
     the holes and restores code density — §6.4 made continuous)";
  let sample, rows, deterministic = lifecycle_sweep () in
  print_lifecycle sample rows deterministic

let serving () =
  hdr "Parallel request serving: cycles and determinism by worker config"
    "(HHVM serves each request on its own thread over one shared \
     translation cache, §2)";
  let samples, deterministic = serving_sweep () in
  print_serving samples deterministic

(** Write BENCH_hotpath.json: simulated cycles, code bytes, hashes and
    counters, plus the retranslate pause ratio (a parallel pause, which
    single-domain perfbench cannot measure).  Exits 1 when any
    cross-mode, cross-config, startup, lifecycle or profile-sum
    invariant fails. *)
let json () =
  let results, hash_match = run_modes () in
  (* vmstats snapshot of one Region perflab (install resets the registry,
     so the snapshot is exactly that run's counters) *)
  let region = Server.Perflab.run Core.Jit_options.Region in
  Core.Engine.sync_vmstats region.Server.Perflab.r_engine;
  (* counters, gauges and histograms only: timers hold host seconds *)
  let vmstats_json = Obs.Vmstats.to_json ~indent:"  " ~with_timers:false () in
  (* parallel retranslate-all: pause by worker count + determinism check *)
  let retr =
    List.map (fun w -> (w, measure_retranslate ~reps:3 w)) [ 1; 2; 4 ]
  in
  let retr_deterministic =
    all_equal
      (List.map
         (fun (_, (_, _, (r : Server.Perflab.result))) ->
            (r.Server.Perflab.r_output_hash, r.Server.Perflab.r_code_bytes))
         retr)
  in
  let pause1, _, _ = List.assoc 1 retr in
  let pause4, _, _ = List.assoc 4 retr in
  let pause_speedup = if pause4 > 0.0 then pause1 /. pause4 else 0.0 in
  let serving_samples, serving_deterministic = serving_sweep () in
  let serving_report, measured = measure_serving_report () in
  let startup_rep = Server.Startup.measure_startup () in
  let lc_sample, lc_rows, lc_deterministic = lifecycle_sweep () in
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let list f l = String.concat ",\n" (List.map f l) in
  add "{\n  \"bench\": \"hotpath\",\n  \"schema\": 2,\n  \"modes\": {\n%s\n  },\n"
    (list
       (fun (name, (r : Server.Perflab.result)) ->
          Printf.sprintf
            "    \"%s\": { \"cycles_per_req\": %.1f, \"code_bytes\": %d }"
            name r.Server.Perflab.r_weighted r.Server.Perflab.r_code_bytes)
       results);
  add "  \"retranslate\": {\n%s,\n"
    (list
       (fun (w, (pause, compile, (r : Server.Perflab.result))) ->
          Printf.sprintf
            "    \"workers_%d\": { \"pause_ms\": %.3f, \"compile_ms\": \
             %.3f, \"code_bytes\": %d, \"output_hash\": %d }"
            w pause compile r.Server.Perflab.r_code_bytes
            r.Server.Perflab.r_output_hash)
       retr);
  add "    \"pause_speedup_4w\": %.2f,\n    \"deterministic\": %b\n  },\n"
    pause_speedup retr_deterministic;
  add "  \"serving\": {\n%s,\n    \"deterministic\": %b\n  },\n"
    (list
       (fun s ->
          Printf.sprintf
            "    \"jw%d_rw%d\": { \"requests\": %d, \
             \"weighted_cycles_per_req\": %.1f, \"translation_miss\": %d, \
             \"interp_fallback\": %d, \"lazy_compiled\": %d, \
             \"output_hash\": %d }"
            s.ss_jit_workers s.ss_request_workers s.ss_requests
            s.ss_weighted_cycles s.ss_miss s.ss_fallback s.ss_lazy
            s.ss_output_hash)
       serving_samples)
    serving_deterministic;
  add "  \"tc_lifecycle\": %s,\n"
    (lifecycle_json lc_sample lc_rows lc_deterministic);
  add "  \"startup\": %s,\n" (startup_json startup_rep);
  add "  \"serving_report\": %s,\n" serving_report;
  add "  \"vmstats\": %s,\n" vmstats_json;
  add "  \"differential_hash_match\": %b\n}\n" hash_match;
  let path = "BENCH_hotpath.json" in
  let oc = open_out path in
  Buffer.output_buffer oc b;
  close_out oc;
  Printf.printf "wrote %s\n" path;
  List.iter
    (fun (name, (r : Server.Perflab.result)) ->
       Printf.printf "%-14s %10.0f cycles/req\n" name r.Server.Perflab.r_weighted)
    results;
  List.iter
    (fun (w, (pause, compile, _)) ->
       Printf.printf
         "retranslate pause_ms @ %d worker%s: %.3f (compile burst %.3f ms)\n"
         w (if w = 1 then " " else "s") pause compile)
    retr;
  Printf.printf "retranslate pause speedup @ 4 workers: %.2fx\n" pause_speedup;
  Printf.printf "retranslate deterministic across worker counts: %b\n"
    retr_deterministic;
  print_serving serving_samples serving_deterministic;
  Printf.printf "serving report: %d bytes of JSON embedded\n"
    (String.length serving_report);
  Printf.printf
    "startup: cold steady after %d requests, jumpstarted after %d \
     (delta %d), hash match %b\n"
    startup_rep.Server.Startup.sr_cold.Server.Startup.su_requests_to_steady
    startup_rep.Server.Startup.sr_jump.Server.Startup.su_requests_to_steady
    startup_rep.Server.Startup.sr_delta_requests
    startup_rep.Server.Startup.sr_hash_match;
  Printf.printf "differential hash match: %b\n" hash_match;
  print_lifecycle lc_sample lc_rows lc_deterministic;
  check_startup startup_rep;
  check
    (measured.Server.Serving.me_profile_total
     = Array.fold_left ( + ) 0
         measured.Server.Serving.me_result.Server.Serving.sv_cycles)
    "serving report's folded profile does not sum to its serving cycles";
  check (not (has_substring vmstats_json "\"timers\":"))
    "embedded vmstats carries host-time timers";
  check hash_match "output hash mismatch across execution modes";
  check retr_deterministic
    "output hash or code bytes diverge across --jit-workers counts"

(* ------------------------------------------------------------------ *)
(* vmstats: key telemetry counters under each Fig. 10 knob             *)
(* ------------------------------------------------------------------ *)

let vmstats () =
  hdr "vmstats: telemetry counters under each Fig. 10 knob (Region mode)"
    "(not a paper figure; counter deltas explain the Fig. 10 slowdowns — \
     see EXPERIMENTS.md)";
  let keys =
    [ ("mono_hit", "dispatch.mono_hit");
      ("lnk.follow", "link.follow");
      ("lnk.smash", "link.smashed");
      ("guard.fail", "guard.fail");
      ("exit.bind", "exit.bind");
      ("trans.opt", "translate.optimized") ]
  in
  let configs =
    [ ("(baseline)", (fun (_ : Core.Jit_options.t) -> ()));
      ("Inlining", fun o -> o.inlining <- false);
      ("RCE", fun o -> o.rce <- false);
      ("Guard Relax.", fun o -> o.guard_relax <- false);
      ("Method Disp.",
       fun o -> o.method_dispatch <- false; o.inline_cache <- false);
      ("PGO Layout", fun o -> o.pgo_layout <- false);
      ("All PGO", Core.Jit_options.disable_all_pgo);
      ("Huge Pages", fun o -> o.huge_pages <- false);
      ("Stats off", fun o -> o.stats <- false) ]
  in
  Printf.printf "%-14s" "disabled";
  List.iter (fun (short, _) -> Printf.printf " %11s" short) keys;
  print_newline ();
  List.iter
    (fun (name, tweak) ->
       (* counters persist after the run: install resets them at entry *)
       ignore (Server.Perflab.run ~tweak Core.Jit_options.Region);
       Printf.printf "%-14s" name;
       List.iter
         (fun (_, key) ->
            Printf.printf " %11d" (Obs.Vmstats.counter_value key))
         keys;
       print_newline ())
    configs

(* ------------------------------------------------------------------ *)
(* Ablations: sensitivity of the design choices DESIGN.md calls out    *)
(* (not figures from the paper; §5.2.1/§5.3.1 discuss the trade-offs)  *)
(* ------------------------------------------------------------------ *)

let ablate () =
  hdr "Ablations: retranslation-chain length, region size, inline budget"
    "design-choice sensitivity (paper discusses these qualitatively)";
  let base = Server.Perflab.run Core.Jit_options.Region in
  let basec = base.Server.Perflab.r_weighted in
  let run name tweak =
    let r = Server.Perflab.run Core.Jit_options.Region ~tweak in
    Printf.printf "%-34s %14.0f %+8.1f%% %9d B\n" name
      r.Server.Perflab.r_weighted
      (100.0 *. (r.Server.Perflab.r_weighted /. basec -. 1.0))
      r.Server.Perflab.r_code_bytes
  in
  Printf.printf "%-34s %14s %9s %11s\n" "configuration" "cycles/req" "delta" "code";
  Printf.printf "%-34s %14.0f %9s %9d B\n" "(baseline)" basec "-"
    base.Server.Perflab.r_code_bytes;
  (* retranslation-chain length: 1 = a single specialization per srckey *)
  List.iter
    (fun n ->
       run (Printf.sprintf "chain length %d" n)
         (fun o -> o.Core.Jit_options.max_live_per_srckey <- n))
    [ 1; 2; 8 ];
  (* region instruction budget (§5.2.1: large functions split) *)
  List.iter
    (fun n ->
       run (Printf.sprintf "max region instrs %d" n)
         (fun o -> o.Core.Jit_options.max_region_instrs <- n))
    [ 20; 50; 400 ];
  (* partial-inlining budget (§5.3.1: callee size suitability) *)
  List.iter
    (fun n ->
       run (Printf.sprintf "inline budget %d instrs" n)
         (fun o -> o.Core.Jit_options.max_inline_instrs <- n))
    [ 10; 80 ];
  (* register file size (regalloc pressure) *)
  List.iter
    (fun n ->
       run (Printf.sprintf "%d physical registers" n)
         (fun o -> o.Core.Jit_options.nregs <- n))
    [ 4; 8 ]

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match what with
   | "fig8" -> fig8 ()
   | "fig9" -> fig9 ()
   | "fig10" -> fig10 ()
   | "fig11" -> fig11 ()
   | "table1" -> table1 ()
   | "ablate" -> ablate ()
   | "vmstats" -> vmstats ()
   | "serving" -> serving ()
   | "startup" -> startup ()
   | "tc_lifecycle" -> tc_lifecycle ()
   | "json" -> json ()
   | "all" ->
     fig8 (); fig9 (); fig10 (); fig11 (); table1 (); ablate ();
     vmstats (); serving (); startup (); tc_lifecycle ()
   | other ->
     Printf.eprintf
       "unknown target %S \
        (use fig8|fig9|fig10|fig11|table1|ablate|vmstats|serving|startup|\
         tc_lifecycle|json|all)\n"
       other;
     exit 1);
  line ()

