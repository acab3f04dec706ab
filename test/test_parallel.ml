(** Parallel retranslate-all (multi-domain compile, deterministic publish):

    - Jit_worker: every task runs exactly once, results come back in task
      order for any worker count, the queue tolerates more workers than
      tasks, and a raising task doesn't abort the rest (first exception
      re-raised after the join).
    - Determinism: output hash, code-cache byte totals, and the tc-print
      report are identical for [--jit-workers] in {1, 2, 4} on both the
      perflab mix and a direct endpoints workload; JIT trace output (ring
      drain, seq numbers included) is stable too.
    - Vmstats exactness: compile-phase counters (region formation, pass
      pipeline) merge from per-worker shards without loss or double
      counting, so totals match the serial run exactly.
    - Stress: requests interleaved with repeated retranslations at 4
      workers keep producing interpreter-identical output. *)

let workers_counts = [ 1; 2; 4 ]

(* ---- Jit_worker queue ---- *)

let test_worker_order () =
  List.iter
    (fun w ->
       let tasks = Array.init 23 (fun i () -> i * i) in
       let r = Core.Jit_worker.run ~workers:w tasks in
       Alcotest.(check (array int))
         (Printf.sprintf "results in task order @ %d workers" w)
         (Array.init 23 (fun i -> i * i))
         r)
    [ 1; 2; 4; 9; 64 ]

let test_worker_empty () =
  Alcotest.(check (array int)) "no tasks" [||]
    (Core.Jit_worker.run ~workers:4 [||])

let test_worker_exn () =
  let ran = Array.make 10 false in
  let tasks =
    Array.init 10
      (fun i () ->
         ran.(i) <- true;
         if i = 3 then failwith "boom3";
         if i = 7 then failwith "boom7";
         i)
  in
  (match Core.Jit_worker.run ~workers:4 tasks with
   | _ -> Alcotest.fail "expected a task exception to re-raise"
   | exception Failure msg ->
     Alcotest.(check string) "lowest-index exception wins" "boom3" msg);
  Alcotest.(check bool) "every task still ran" true
    (Array.for_all Fun.id ran)

(* ---- Determinism across worker counts ---- *)

let perflab_run (w : int) : int * int * string =
  let r =
    Server.Perflab.run Core.Jit_options.Region
      ~tweak:(fun o -> o.Core.Jit_options.jit_workers <- w)
  in
  ( r.Server.Perflab.r_output_hash,
    r.Server.Perflab.r_code_bytes,
    Core.Tc_print.report ~top:10 r.Server.Perflab.r_engine )

let test_perflab_determinism () =
  let runs = List.map (fun w -> (w, perflab_run w)) workers_counts in
  let _, (h1, b1, tc1) = List.hd runs in
  List.iter
    (fun (w, (h, b, tc)) ->
       Alcotest.(check int)
         (Printf.sprintf "perflab output hash @ %d workers" w) h1 h;
       Alcotest.(check int)
         (Printf.sprintf "perflab code bytes @ %d workers" w) b1 b;
       Alcotest.(check string)
         (Printf.sprintf "perflab tc-print @ %d workers" w) tc1 tc)
    (List.tl runs)

(* Direct endpoints workload: warm every endpoint, retranslate, keep
   serving; returns the full output transcript plus cache/tc-print state. *)
let endpoints_run ?(trace = false) (w : int) : string * int * string =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  opts.Core.Jit_options.jit_workers <- w;
  if trace then
    opts.Core.Jit_options.trace <- Some "translate,retranslate-all,link";
  let eng = Core.Engine.install ~opts u in
  let buf = Buffer.create 4096 in
  let serve rounds salt =
    for k = 1 to rounds do
      List.iteri
        (fun i ep ->
           Buffer.add_string buf
             (Server.Perflab.call_endpoint u ep (salt + i + k)))
        Workloads.Endpoints.endpoints
    done
  in
  serve 30 0;
  ignore (Core.Engine.retranslate_all eng);
  serve 5 7;
  (Buffer.contents buf, Core.Engine.code_bytes eng,
   Core.Tc_print.report ~top:8 eng)

let test_endpoints_determinism () =
  let runs = List.map (fun w -> (w, endpoints_run w)) workers_counts in
  let _, (out1, b1, tc1) = List.hd runs in
  List.iter
    (fun (w, (out, b, tc)) ->
       Alcotest.(check string)
         (Printf.sprintf "endpoints output @ %d workers" w) out1 out;
       Alcotest.(check int)
         (Printf.sprintf "endpoints code bytes @ %d workers" w) b1 b;
       Alcotest.(check string)
         (Printf.sprintf "endpoints tc-print @ %d workers" w) tc1 tc)
    (List.tl runs)

let test_trace_determinism () =
  let trace_run w =
    ignore (endpoints_run ~trace:true w);
    let lines = Obs.Trace.drain () in
    Obs.Trace.configure ~spec:None ();
    lines
  in
  let runs = List.map (fun w -> (w, trace_run w)) workers_counts in
  let _, l1 = List.hd runs in
  Alcotest.(check bool) "trace produced events" true (l1 <> []);
  List.iter
    (fun (w, l) ->
       Alcotest.(check (list string))
         (Printf.sprintf "trace events (incl. seq) @ %d workers" w) l1 l)
    (List.tl runs)

(* ---- Vmstats shard-merge exactness ---- *)

let compile_counters =
  [ "region.formed"; "region.blocks"; "region.arcs_covered";
    "pass.simplify.changed"; "pass.load_elim.changed"; "pass.gvn.changed";
    "pass.store_elim.changed"; "pass.rce.changed"; "pass.dce.changed";
    "pass.unreachable.changed"; "translate.rejected"; "retranslate.runs" ]

let test_vmstats_exact () =
  let counters_run w =
    ignore (endpoints_run w);
    List.map (fun n -> (n, Obs.Vmstats.counter_value n)) compile_counters
  in
  let runs = List.map (fun w -> (w, counters_run w)) workers_counts in
  let _, c1 = List.hd runs in
  Alcotest.(check bool) "compile-phase counters are live" true
    (List.exists (fun (_, v) -> v > 0) c1);
  List.iter
    (fun (w, c) ->
       List.iter2
         (fun (n, v1) (_, v) ->
            Alcotest.(check int)
              (Printf.sprintf "counter %s @ %d workers" n w) v1 v)
         c1 c)
    (List.tl runs)

(* ---- Stress: serving interleaved with repeated retranslations ---- *)

let test_stress_interleave () =
  let interp_out = ref "" in
  let region_out = ref "" in
  let run_mode (mode : Core.Jit_options.mode) (sink : string ref) =
    let u = Vm.Loader.load Workloads.Endpoints.source in
    ignore (Hhbbc.Assert_insert.run u);
    ignore (Hhbbc.Bc_opt.run u);
    let opts = Core.Jit_options.default () in
    opts.Core.Jit_options.mode <- mode;
    opts.Core.Jit_options.jit_workers <- 4;
    let eng = Core.Engine.install ~opts u in
    let buf = Buffer.create 4096 in
    for round = 1 to 6 do
      for k = 1 to 12 do
        List.iteri
          (fun i ep ->
             Buffer.add_string buf
               (Server.Perflab.call_endpoint u ep (round * 31 + i + k)))
          Workloads.Endpoints.endpoints
      done;
      (* trigger retranslate mid-traffic, repeatedly: exercises the sort
         cache, link invalidation, and re-publication under churn *)
      if mode = Core.Jit_options.Region then
        ignore (Core.Engine.retranslate_all eng)
    done;
    sink := Buffer.contents buf
  in
  run_mode Core.Jit_options.Interp interp_out;
  run_mode Core.Jit_options.Region region_out;
  Alcotest.(check string)
    "interleaved retranslate output matches interpreter" !interp_out
    !region_out

(* ---- Parallel request serving over the shared translation cache ---- *)

(* Fresh warmed engine: every endpoint profiled, optimized code published
   (Region mode) — the steady state a production server serves from. *)
let serving_engine ?budget ?(mode = Core.Jit_options.Region) ()
  : Hhbc.Hunit.t * Core.Engine.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- mode;
  (match budget with
   | Some b -> opts.Core.Jit_options.code_budget <- Some b
   | None -> ());
  let eng = Core.Engine.install ~opts u in
  for round = 1 to 10 do
    List.iteri
      (fun i ep -> ignore (Server.Perflab.call_endpoint u ep (round * 3 + i)))
      Workloads.Endpoints.endpoints
  done;
  if mode = Core.Jit_options.Region then
    ignore (Core.Engine.retranslate_all eng);
  (u, eng)

(* Cold Region-mode engine: no warmup, so every endpoint's entry srckey
   misses on first touch inside the burst itself. *)
let cold_engine () : Hhbc.Hunit.t * Core.Engine.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  (u, Core.Engine.install ~opts u)

(* One serving burst on a fresh engine.  [trigger_at] fires a full
   retranslate-all on whichever domain completes that many requests. *)
let serving_run ?budget ?mode ?trigger_at (workers : int)
  : Server.Serving.result =
  let u, eng = serving_engine ?budget ?mode () in
  let trigger =
    Option.map
      (fun at -> (at, fun () -> ignore (Core.Engine.retranslate_all eng)))
      trigger_at
  in
  let requests = Server.Serving.mix ~rounds:6 () in
  Server.Serving.run ~workers ?trigger u eng requests

let check_serving_equal (what : string) (r1 : Server.Serving.result)
    (r : Server.Serving.result) =
  Alcotest.(check (array string))
    (what ^ ": per-request outputs") r1.Server.Serving.sv_outputs
    r.Server.Serving.sv_outputs;
  Alcotest.(check int) (what ^ ": output hash")
    r1.Server.Serving.sv_output_hash r.Server.Serving.sv_output_hash

let test_serving_parity () =
  let r1 = serving_run 1 in
  Alcotest.(check bool) "serving produced output" true
    (Array.length r1.Server.Serving.sv_outputs > 0
     && Array.exists (fun s -> s <> "") r1.Server.Serving.sv_outputs);
  List.iter
    (fun w ->
       check_serving_equal
         (Printf.sprintf "serving @ %d workers" w) r1 (serving_run w))
    [ 2; 4 ]

let test_serving_retranslate_stress () =
  (* fire a full retranslate-all mid-burst: racing requests must see the
     old epoch or the new one, never a half-published table — pinned
     against the single-domain run with the same trigger *)
  let n = Array.length (Server.Serving.mix ~rounds:6 ()) in
  let r1 = serving_run ~trigger_at:(n / 3) 1 in
  check_serving_equal "retranslate mid-burst @ 4 workers" r1
    (serving_run ~trigger_at:(n / 3) 4)

let test_serving_budget_exhaustion () =
  (* a tiny code budget exhausts during warmup: every domain must fall
     back to the interpreter and produce interpreter-identical output *)
  let budget = 2000 in
  let r1 = serving_run ~budget 1 in
  check_serving_equal "budget-exhausted serving @ 4 workers" r1
    (serving_run ~budget 4);
  let ri = serving_run ~mode:Core.Jit_options.Interp 1 in
  check_serving_equal "budget-exhausted serving vs interpreter" ri r1

let test_serving_prof_exact () =
  (* worker-sharded profile counters merge losslessly: per-function entry
     counts after the burst are exact for any worker count *)
  let counts w =
    let u, eng = serving_engine () in
    let before =
      Array.init (Hhbc.Hunit.num_funcs u) Vm.Prof.func_entry_count
    in
    let requests = Server.Serving.mix ~rounds:6 () in
    ignore (Server.Serving.run ~workers:w u eng requests);
    Array.init (Hhbc.Hunit.num_funcs u)
      (fun fid -> Vm.Prof.func_entry_count fid - before.(fid))
  in
  let c1 = counts 1 in
  Alcotest.(check bool) "serving recorded function entries" true
    (Array.exists (fun c -> c > 0) c1);
  List.iter
    (fun w ->
       Alcotest.(check (array int))
         (Printf.sprintf "func-entry counts @ %d workers" w) c1 (counts w))
    [ 2; 4 ];
  (* TransCFG arcs recorded by profiling code on worker domains fold into
     the registry by burst end.  Which requests run profiling code, and so
     the exact weights, depend on when lazy compiles land: assert presence,
     not weights. *)
  let arcs_run w =
    let u, eng = cold_engine () in
    let r =
      Server.Serving.run ~workers:w u eng (Server.Serving.mix ~rounds:6 ())
    in
    (r, (Region.Transcfg.export ()).Region.Transcfg.ex_arcs)
  in
  let r1, a1 = arcs_run 1 in
  let r2, a2 = arcs_run 2 in
  Alcotest.(check bool) "cold serving recorded arcs @ 1 worker" true
    (Array.length a1 > 0);
  Alcotest.(check bool) "cold serving recorded arcs @ 2 workers" true
    (Array.length a2 > 0);
  check_serving_equal "cold profiling burst @ 2 workers" r1 r2

let test_serving_heap_clean () =
  (* request-private heap values allocated on worker domains are all freed
     and absorbed at the join: no live-count drift vs before the burst *)
  let u, eng = serving_engine () in
  let live_before = (Runtime.Heap.stats ()).Runtime.Heap.live in
  let requests = Server.Serving.mix ~rounds:6 () in
  ignore (Server.Serving.run ~workers:4 u eng requests);
  let hs = Runtime.Heap.stats () in
  Alcotest.(check int) "heap live unchanged after parallel serving"
    live_before hs.Runtime.Heap.live;
  Alcotest.(check bool) "workers' allocations were absorbed" true
    (hs.Runtime.Heap.allocated > live_before)

(* ---- Lazy in-burst translation (write lease + incremental publish) ---- *)

let test_lazy_lease_contention () =
  (* identical requests against a cold engine: several workers miss the
     same entry srckey at once; the lease plus the winner's re-check
     against the latest epoch must land exactly one translation for it
     no matter who raced *)
  let u, eng = cold_engine () in
  let ep = List.hd Workloads.Endpoints.endpoints in
  let requests =
    Array.make 16 { Server.Serving.rq_ep = ep; rq_arg = 42 }
  in
  let r4 = Server.Serving.run ~workers:4 u eng requests in
  (* read before the next install resets the counters *)
  let lazy_compiled =
    Obs.Vmstats.counter_value "lazy_translate.compiled"
  in
  let u1, eng1 = cold_engine () in
  let r1 = Server.Serving.run ~workers:1 u1 eng1 requests in
  check_serving_equal "contended cold burst @ 4 workers" r1 r4;
  let fid =
    match Hhbc.Hunit.find_func u ep.ep_entry with
    | Some fid -> fid
    | None -> Alcotest.fail ("no such function: " ^ ep.ep_entry)
  in
  Alcotest.(check int) "exactly one translation at the contended srckey"
    1 (Core.Engine.chain_length eng ~fid ~pc:0);
  Alcotest.(check bool) "lazy compiles landed" true (lazy_compiled > 0)

let test_serving_lazy_determinism () =
  (* incremental epoch publish under churn: hash parity across worker
     counts with lazy translation on (the default), including a full
     retranslate-all fired mid-burst over the delta-published epochs *)
  let n = Array.length (Server.Serving.mix ~rounds:6 ()) in
  let r1 = serving_run ~trigger_at:(n / 3) 1 in
  List.iter
    (fun w ->
       check_serving_equal
         (Printf.sprintf
            "lazy serving + mid-burst retranslate @ %d workers" w)
         r1
         (serving_run ~trigger_at:(n / 3) w))
    [ 2; 4 ];
  Alcotest.(check bool) "incremental epoch publishes happened" true
    (Obs.Vmstats.counter_value "epoch.delta_publish" > 0)

let test_lazy_recompile_after_retranslate () =
  (* a retranslate-all mid-burst drops every live translation; a later
     miss on the same srckey and types must compile again rather than
     interpret for the rest of the burst *)
  let u, eng = serving_engine () in
  let requests = Server.Serving.mix ~rounds:2 () in
  let n = Array.length requests in
  let trigger = (n / 2, fun () -> ignore (Core.Engine.retranslate_all eng)) in
  let fallbacks0 = Obs.Vmstats.counter_value "serving.interp_fallback" in
  let compiled0 = Obs.Vmstats.counter_value "lazy_translate.compiled" in
  ignore (Server.Serving.measure ~trigger u eng requests);
  Alcotest.(check int) "no interpreter fallback in the measured burst" 0
    (Obs.Vmstats.counter_value "serving.interp_fallback" - fallbacks0);
  Alcotest.(check bool) "misses after the retranslate compiled" true
    (Obs.Vmstats.counter_value "lazy_translate.compiled" - compiled0 > 0)

(* ---- TC lifecycle: eviction + compaction under serving traffic ---- *)

(* Warmed Region engine with the lifecycle knobs on, run through a decay
   loop: small shifted bursts keep the still-trafficked code's liveness
   score replenished while abandoned code halves its way below the
   threshold, then a final shifted burst fires one more lifecycle tick
   (evict + compact) mid-burst on whichever domain crosses halfway. *)
let lifecycle_run (workers : int) : Server.Serving.result * Core.Engine.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let opts = Core.Jit_options.default () in
  opts.Core.Jit_options.mode <- Core.Jit_options.Region;
  opts.Core.Jit_options.request_workers <- workers;
  opts.Core.Jit_options.tc_evict_threshold <- 3;
  opts.Core.Jit_options.tc_compact <- true;
  let eng = Core.Engine.install ~opts u in
  for round = 1 to 10 do
    List.iteri
      (fun i ep -> ignore (Server.Perflab.call_endpoint u ep (round * 3 + i)))
      Workloads.Endpoints.endpoints
  done;
  ignore (Core.Engine.retranslate_all eng);
  for salt = 1 to 12 do
    ignore
      (Server.Serving.run ~workers u eng
         (Server.Serving.mix_shifted ~salt ~rounds:2 ()));
    ignore (Core.Engine.tc_lifecycle_tick eng)
  done;
  let requests = Server.Serving.mix_shifted ~salt:99 ~rounds:6 () in
  let trigger =
    (Array.length requests / 2,
     fun () -> ignore (Core.Engine.tc_lifecycle_tick eng))
  in
  (Server.Serving.run ~workers ~trigger u eng requests, eng)

let test_lifecycle_parity () =
  let r1, eng1 = lifecycle_run 1 in
  let ev1 = Obs.Vmstats.counter_value "tc.evicted" in
  Alcotest.(check bool) "single-domain lifecycle evicted" true (ev1 > 0);
  Alcotest.(check int) "compaction left no holes @ 1 worker" 0
    (Simcpu.Codecache.holes_bytes eng1.Core.Engine.cache);
  List.iter
    (fun w ->
       let r, eng = lifecycle_run w in
       let ev = Obs.Vmstats.counter_value "tc.evicted" in
       Alcotest.(check bool)
         (Printf.sprintf "lifecycle evicted @ %d workers" w) true (ev > 0);
       Alcotest.(check int)
         (Printf.sprintf "compaction left no holes @ %d workers" w) 0
         (Simcpu.Codecache.holes_bytes eng.Core.Engine.cache);
       check_serving_equal
         (Printf.sprintf "evict+compact mid-burst @ %d workers" w) r1 r)
    [ 2; 4 ]

let test_lifecycle_mono_evicted () =
  (* one serving context warms its mono table, then every optimized
     translation is evicted (two decay calls — victims must reach age 2).
     The eviction epoch keeps the generation, so the context keeps its
     mono table across the adoption: no cached entry may re-enter an
     evicted translation *)
  let u, eng = serving_engine () in
  Core.Engine.enter_serving eng;
  let requests = Server.Serving.mix ~rounds:2 () in
  let serve () =
    Array.iter
      (fun (rq : Server.Serving.request) ->
         Core.Engine.begin_request eng;
         ignore
           (Server.Perflab.call_endpoint u rq.Server.Serving.rq_ep
              rq.Server.Serving.rq_arg))
      requests
  in
  serve ();
  ignore (Core.Engine.evict_cold eng ~threshold:max_int);
  ignore (Core.Engine.evict_cold eng ~threshold:max_int);
  let victims =
    Array.to_list eng.Core.Engine.last_opt
    |> List.filter_map (fun (_, _, (tr : Core.Translation.t)) ->
        if tr.Core.Translation.tr_evicted then
          Some (tr, tr.Core.Translation.tr_execs)
        else None)
  in
  Alcotest.(check bool) "eviction fired" true (victims <> []);
  serve ();
  ignore (Core.Engine.exit_serving ());
  List.iter
    (fun ((tr : Core.Translation.t), execs) ->
       Alcotest.(check int)
         (Printf.sprintf "evicted translation %d not re-entered"
            tr.Core.Translation.tr_id)
         execs tr.Core.Translation.tr_execs)
    victims

let test_lifecycle_evict_mid_chain () =
  (* a mass eviction + compaction fired mid-burst, while parallel workers
     are mid-chain on the frozen epochs: every translation goes (two
     decay calls — victims must reach age 2), survivors relocate under
     running traffic, and outputs must match both the single-domain run
     with the same trigger and an undisturbed run with no eviction at
     all — eviction changes the dispatch path, never a result *)
  let run_with_evict workers =
    let u, eng = serving_engine () in
    let requests = Server.Serving.mix ~rounds:6 () in
    let evict_all () =
      ignore (Core.Engine.evict_cold eng ~threshold:max_int);
      ignore (Core.Engine.evict_cold eng ~threshold:max_int);
      ignore (Core.Engine.compact_tc eng)
    in
    let trigger = (Array.length requests / 2, evict_all) in
    (Server.Serving.run ~workers ~trigger u eng requests, eng)
  in
  let r_plain = serving_run 1 in
  let r1, eng1 = run_with_evict 1 in
  Alcotest.(check bool) "mass eviction fired" true
    (Obs.Vmstats.counter_value "tc.evicted" > 0);
  Alcotest.(check int) "no optimized code left" 0
    eng1.Core.Engine.n_optimized;
  check_serving_equal "eviction changes no output @ 1 worker" r_plain r1;
  let r4, _ = run_with_evict 4 in
  check_serving_equal "mass eviction mid-burst @ 4 workers" r_plain r4

(* Every srckey of an epoch with a non-empty chain, as (fid, pc, ids). *)
let epoch_chains (ep : Core.Engine.epoch) : (int * int * int list) list =
  let acc = ref [] in
  Array.iteri
    (fun fid row ->
       Array.iteri
         (fun pc chain ->
            if Array.length chain > 0 then
              acc :=
                (fid, pc,
                 List.map (fun (tr : Core.Translation.t) -> tr.tr_id)
                   (Array.to_list chain))
                :: !acc)
         row)
    ep.Core.Engine.ep_chains;
  List.rev !acc

let test_epoch_never_written () =
  (* copy-on-write publish: a lazy compile, two evictions (victims must
     reach age 2) and a compaction each publish a new epoch, and none may
     write a row an older epoch holds — a context pinned before them must
     keep reading exactly the chains it pinned *)
  let u, eng = serving_engine () in
  let pinned = Atomic.get eng.Core.Engine.published in
  let before = epoch_chains pinned in
  Alcotest.(check bool) "warm epoch has chains" true (before <> []);
  let compiled () = Obs.Vmstats.counter_value "lazy_translate.compiled" in
  let c0 = compiled () in
  ignore
    (Server.Serving.run ~workers:1 u eng
       (Server.Serving.mix_shifted ~salt:7 ~rounds:1 ()));
  Alcotest.(check bool) "a lazy compile published" true (compiled () > c0);
  let fresh_srckey =
    List.exists
      (fun (fid, pc, _) ->
         not (List.exists (fun (f, p, _) -> f = fid && p = pc) before))
      (epoch_chains (Atomic.get eng.Core.Engine.published))
  in
  Alcotest.(check bool) "a new srckey gained a chain" true fresh_srckey;
  ignore (Core.Engine.evict_cold eng ~threshold:max_int);
  ignore (Core.Engine.evict_cold eng ~threshold:max_int);
  Alcotest.(check bool) "eviction fired" true
    (Obs.Vmstats.counter_value "tc.evicted" > 0);
  ignore (Core.Engine.compact_tc eng);
  Alcotest.(check (list (triple int int (list int))))
    "pinned epoch holds the same chains" before (epoch_chains pinned);
  Core.Engine.iter_chains
    (fun (tr : Core.Translation.t) ->
       Alcotest.(check bool)
         (Printf.sprintf "translation %d in the latest epoch is live"
            tr.tr_id)
         false tr.tr_evicted)
    (Atomic.get eng.Core.Engine.published).Core.Engine.ep_chains

(* ---- Codecache: reset_optimized accounting ---- *)

let test_codecache_reset_accounting () =
  let open Simcpu.Codecache in
  let t = create ~budget:10_000 () in
  ignore (alloc t Main 1_000);
  ignore (alloc t Cold 500);
  ignore (alloc t Prof 4_000);   (* uncounted: reclaimable prof section *)
  ignore (alloc t Live 300);
  Alcotest.(check int) "counted before reset" 1_800 (bytes_counted t);
  Alcotest.(check int) "total before reset" 5_800 (bytes_used t);
  let reclaimed = reset_optimized t in
  Alcotest.(check int) "reclaimed = main + cold bytes" 1_500 reclaimed;
  Alcotest.(check int) "counted after reset" 300 (bytes_counted t);
  Alcotest.(check int) "total after reset" 4_300 (bytes_used t);
  Alcotest.(check int) "main cursor rewound" 0 (section_bytes t Main);
  Alcotest.(check int) "cold cursor rewound" 0 (section_bytes t Cold);
  (* the reclaimed budget is usable again *)
  (match alloc t Main 9_000 with
   | Some _ -> ()
   | None -> Alcotest.fail "budget not returned by reset_optimized");
  Alcotest.(check int) "counted after realloc" 9_300 (bytes_counted t)

let test_codecache_free_compact_accounting () =
  let open Simcpu.Codecache in
  let t = create ~budget:10_000 () in
  ignore (alloc t Main 1_000);
  ignore (alloc t Main 500);
  ignore (alloc t Cold 400);
  ignore (alloc t Prof 2_000);
  Alcotest.(check int) "counted before free" 1_900 (bytes_counted t);
  free t Main 1_000;
  free t Cold 400;
  free t Prof 2_000;             (* uncounted section: never a hole *)
  Alcotest.(check int) "holes grow on free (counted sections only)" 1_400
    (holes_bytes t);
  Alcotest.(check int) "budget still consumed by holes" 1_900
    (bytes_counted t);
  Alcotest.(check int) "cursors untouched by free" 1_500
    (section_bytes t Main);
  let closed = compact_optimized t in
  Alcotest.(check int) "compaction closes exactly the holes" 1_400 closed;
  Alcotest.(check int) "no holes after compaction" 0 (holes_bytes t);
  Alcotest.(check int) "main cursor rewound" 0 (section_bytes t Main);
  Alcotest.(check int) "cold cursor rewound" 0 (section_bytes t Cold);
  (* the caller re-places the 500-byte survivor right away: net budget
     effect of the compaction is exactly -holes *)
  (match alloc t Main 500 with
   | Some _ -> ()
   | None -> Alcotest.fail "budget not returned by compact_optimized");
  Alcotest.(check int) "survivor re-placed" 500 (bytes_counted t);
  Alcotest.(check int) "lifetime reclaimed counts only evicted bytes" 1_400
    (reclaimed_bytes t);
  (* alignment padding is allocated space, not a hole *)
  ignore (alloc t Main 10);
  align_cursor t Main 64;
  Alcotest.(check int) "align pads the cursor to the boundary" 512
    (section_bytes t Main);
  Alcotest.(check int) "alignment creates no holes" 0 (holes_bytes t)

let suite =
  ( "parallel",
    [ Alcotest.test_case "jit_worker task order" `Quick test_worker_order;
      Alcotest.test_case "jit_worker empty queue" `Quick test_worker_empty;
      Alcotest.test_case "jit_worker exception capture" `Quick test_worker_exn;
      Alcotest.test_case "perflab determinism {1,2,4}" `Quick
        test_perflab_determinism;
      Alcotest.test_case "endpoints determinism {1,2,4}" `Quick
        test_endpoints_determinism;
      Alcotest.test_case "trace seq determinism {1,2,4}" `Quick
        test_trace_determinism;
      Alcotest.test_case "vmstats shard-merge exactness" `Quick
        test_vmstats_exact;
      Alcotest.test_case "stress: requests x retranslate" `Quick
        test_stress_interleave;
      Alcotest.test_case "serving output parity {1,2,4}" `Quick
        test_serving_parity;
      Alcotest.test_case "serving: retranslate mid-burst @ 4 workers" `Quick
        test_serving_retranslate_stress;
      Alcotest.test_case "serving: code-budget exhaustion fallback" `Quick
        test_serving_budget_exhaustion;
      Alcotest.test_case "serving: sharded profile exactness" `Quick
        test_serving_prof_exact;
      Alcotest.test_case "serving: heap clean after parallel burst" `Quick
        test_serving_heap_clean;
      Alcotest.test_case "lazy: lease contention, one translation" `Quick
        test_lazy_lease_contention;
      Alcotest.test_case "lazy: incremental publish determinism {1,2,4}"
        `Quick test_serving_lazy_determinism;
      Alcotest.test_case "lazy: recompile after mid-burst retranslate" `Quick
        test_lazy_recompile_after_retranslate;
      Alcotest.test_case "codecache reset_optimized accounting" `Quick
        test_codecache_reset_accounting;
      Alcotest.test_case "codecache free/compact accounting" `Quick
        test_codecache_free_compact_accounting;
      Alcotest.test_case "lifecycle: evict+compact parity {1,2,4}" `Quick
        test_lifecycle_parity;
      Alcotest.test_case "lifecycle: mono cache skips evicted code" `Quick
        test_lifecycle_mono_evicted;
      Alcotest.test_case "lifecycle: mass eviction mid-chain-follow" `Quick
        test_lifecycle_evict_mid_chain;
      Alcotest.test_case "lifecycle: published epochs are never written"
        `Quick test_epoch_never_written ] )
