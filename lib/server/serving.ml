(** Parallel request serving: fan a deterministic request mix across
    [request_workers] domains over one shared translation cache.

    HHVM serves every web request on its own thread while all threads
    execute out of a single shared code cache (§2, §5).  This module
    reproduces that shape with OCaml domains:

    - the engine's dispatch state is split into an immutable published
      {e epoch} (frozen srckey tables, chains and links, swapped with one
      atomic store) and per-domain dispatch contexts (pinned epoch,
      machine, monomorphic caches) — see [Core.Engine]'s serving API;
    - each worker pins an epoch per request ([Engine.begin_request]) so a
      concurrent retranslate-all is adopted only at request boundaries:
      in-flight requests finish on the epoch they started with, never on
      a half-published table;
    - profile counters and TransCFG arcs are sharded per domain
      ([Vm.Prof.install_local]) and folded into the canonical profile at
      the retranslate-all trigger and at the join, and vmstats / heap /
      ledger / machine counters are merged at the join, so process-wide
      totals are exact for any schedule.

    Determinism: endpoints are pure functions of their integer argument,
    requests are claimed from an atomic cursor into {e slot-per-request}
    output and cycle arrays, and the aggregate hash folds outputs in
    request-index order — so per-request outputs and the output hash are
    bit-identical for any worker count and any schedule.  [workers = 1]
    serves inline on the calling domain, through the same dispatch path
    as every worker, which the parity tests pin the parallel runs
    against.

    Request-level observability rides the same boundaries: when spans
    are on ([--spans]), every request records an [Obs.Span] timeline
    (cycles from ledger deltas at the request boundary — nothing on the
    dispatch hot path) and the profiler attributes its cycles; each
    domain buffers its own spans and the join merges them in request-
    slot order, the canonical order for any schedule.  {!measure} runs
    the fully deterministic single-domain variant whose serving report
    is byte-identical for any (jit x request) worker configuration. *)

open Workloads.Endpoints

type request = {
  rq_ep : endpoint;
  rq_arg : int;
}

type result = {
  sv_outputs : string array;     (** per-request output, request order *)
  sv_output_hash : int;          (** fold of (index, output), index order *)
  sv_cycles : int array;         (** simulated cycles charged per request *)
  sv_wall_s : float;             (** wall-clock for the serving burst *)
  sv_workers : int;              (** worker count actually used *)
  sv_spans : Obs.Span.span array;
  (** per-request phase timelines, merged in request-slot order; empty
      unless spans were enabled for the burst *)
}

(** Deterministic weighted request mix, mirroring the Perflab measurement
    phase: requests interleave across endpoints (consecutive requests run
    different code, which is what makes i-cache/I-TLB locality matter),
    hotter endpoints appear proportionally more often, and arguments are
    a pure function of (round, endpoint, repetition, salt). *)
let mix ?(salt = 0) ~(rounds : int) () : request array =
  let acc = ref [] in
  for round = 0 to rounds - 1 do
    List.iter
      (fun ep ->
         let reps = max 1 (ep.ep_weight / 10) in
         for k = 0 to reps - 1 do
           acc := { rq_ep = ep; rq_arg = 1000 + salt * 131 + round * 3 + k }
                  :: !acc
         done)
      endpoints
  done;
  Array.of_list (List.rev !acc)

(** The same deterministic construction with the endpoint popularity
    reversed — the traffic-shift phase of the TC-lifecycle stress.  Each
    endpoint is requested with the weight of its mirror in the endpoint
    list, with no minimum: a formerly hot endpoint whose mirrored weight
    rounds to zero repetitions disappears from the mix entirely, so its
    optimized translations stop accumulating execs and decay into
    eviction candidates. *)
let mix_shifted ?(salt = 0) ~(rounds : int) () : request array =
  let eps = Array.of_list endpoints in
  let k = Array.length eps in
  let acc = ref [] in
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun i ep ->
         let reps = eps.(k - 1 - i).ep_weight / 10 in
         for j = 0 to reps - 1 do
           acc := { rq_ep = ep; rq_arg = 1000 + salt * 131 + round * 3 + j }
                  :: !acc
         done)
      eps
  done;
  Array.of_list (List.rev !acc)

let output_hash (outputs : string array) : int =
  let h = ref 0 in
  Array.iteri (fun i out -> h := !h lxor Hashtbl.hash (i, out)) outputs;
  !h

(* Per-request simulated-cycle distribution for the burst; reset at burst
   start so percentiles measure the burst, not warmup residue. *)
let h_request_cycles = Obs.Vmstats.histogram "serving.request_cycles"

(* One gauge-snapshot line every [snapshot_interval] completed requests. *)
let emit_snapshot (eng : Core.Engine.t) (done_ : int) : unit =
  if Obs.Snapshot.due done_ then begin
    let ep = Atomic.get eng.Core.Engine.published in
    Obs.Snapshot.emit
      [ ("req_done", done_);
        ("lease_held", if Core.Lease.held () then 1 else 0);
        ("tc_bytes", Core.Engine.code_bytes eng);
        ("epoch", ep.Core.Engine.ep_seq);
        ("generation", ep.Core.Engine.ep_gen) ]
  end

(** Serve one request slot: span/profiler bracketing, epoch adoption,
    the endpoint call, per-request cycle accounting, and the completion
    hook.  [post] is called once after the slot's output is recorded and
    returns the burst trigger to run (at most once per burst) — its
    cycles are attributed to the span's retranslate-pause phase, since
    the triggering request is the one that exposes the pause. *)
let serve_request (u : Hhbc.Hunit.t) (eng : Core.Engine.t)
    ~(outputs : string array) ~(cycles : int array)
    ~(post : unit -> (unit -> unit) option)
    (requests : request array) (slot : int) : unit =
  let rq = requests.(slot) in
  let spans_on = Obs.Span.on () in
  let prof_on = Obs.Profiler.on () in
  let a = Runtime.Ledger.acct () in
  let c0 = a.Runtime.Ledger.a_cycles in
  let i0 = a.Runtime.Ledger.a_interp in
  let j0 = a.Runtime.Ledger.a_jit in
  if spans_on then
    Obs.Span.begin_request ~slot ~label:rq.rq_ep.ep_name;
  if prof_on then Obs.Profiler.begin_request ~root:rq.rq_ep.ep_name;
  (* adopt the latest epoch inside the span window, so adoptions count
     against the request that performed them *)
  Core.Engine.begin_request eng;
  let out = Perflab.call_endpoint u rq.rq_ep rq.rq_arg in
  let dc = a.Runtime.Ledger.a_cycles - c0 in
  cycles.(slot) <- dc;
  outputs.(slot) <- out;
  Obs.Vmstats.observe h_request_cycles dc;
  if spans_on then begin
    Obs.Span.add Obs.Span.Jit (a.Runtime.Ledger.a_jit - j0);
    Obs.Span.add Obs.Span.Interp (a.Runtime.Ledger.a_interp - i0)
  end;
  (* close attribution before the trigger: a retranslate-all is burst
     maintenance, not part of this request's serving cost *)
  if prof_on then Obs.Profiler.end_request ~total:dc;
  (match post () with
   | Some fn ->
     if spans_on then begin
       let p0 = a.Runtime.Ledger.a_cycles in
       fn ();
       Obs.Span.add Obs.Span.RetransPause
         (a.Runtime.Ledger.a_cycles - p0)
     end
     else fn ()
   | None -> ());
  if spans_on then Obs.Span.end_request ~total:dc

(* Everything a joined worker hands back for the serial merge. *)
type worker_report = {
  wr_shard : Obs.Vmstats.shard;
  wr_machine : Core.Exec.machine option;
  wr_heap : Runtime.Heap.stats;
  wr_ledger : Runtime.Ledger.acct;
  wr_instrs : int;
  wr_spans : Obs.Span.span list;
  wr_prof : (string * int) list;
}

(** Serve [requests] and return per-request outputs/cycles plus the
    aggregate hash.  [workers] defaults to the engine's
    [request_workers] option.  [trigger = (n, fn)] runs [fn] exactly once,
    on whichever domain completes the [n]th request — the hook the stress
    tests use to fire [Engine.retranslate_all] mid-burst. *)
let run ?workers ?trigger (u : Hhbc.Hunit.t) (eng : Core.Engine.t)
    (requests : request array) : result =
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 eng.Core.Engine.opts.Core.Jit_options.request_workers
  in
  let n = Array.length requests in
  let outputs = Array.make n "" in
  let cycles = Array.make n 0 in
  let completed = Atomic.make 0 in
  let fired = Atomic.make false in
  (* burst-start histogram reset: serving percentiles measure the burst *)
  Obs.Vmstats.reset_histogram h_request_cycles;
  Obs.Span.reset_local ();
  let post () =
    let done_ = 1 + Atomic.fetch_and_add completed 1 in
    emit_snapshot eng done_;
    match trigger with
    | Some (at, fn) when done_ >= at ->
      if Atomic.compare_and_set fired false true then Some fn else None
    | _ -> None
  in
  let t0 = Obs.Clock.now () in
  let spans =
    if workers <= 1 then begin
      (* inline on the calling domain, through its own dispatch context
         and the canonical profile *)
      for i = 0 to n - 1 do
        serve_request u eng ~outputs ~cycles ~post requests i
      done;
      Obs.Profiler.absorb (Obs.Profiler.take ());
      Obs.Span.merge [ Obs.Span.take () ]
    end
    else begin
      (* Fan-out.  Freeze string interning (workers may intern novel
         constants) and shard every per-domain counter family for the
         duration of the burst. *)
      Hhbc.Hunit.freeze_interning true;
      Obs.Vmstats.shards_begin ();
      let next = Atomic.make 0 in
      let worker () : worker_report =
        let shard = Obs.Vmstats.shard_create () in
        Obs.Vmstats.shard_install (Some shard);
        Core.Engine.enter_serving eng;
        Vm.Prof.install_local ();
        let continue = ref true in
        while !continue do
          let i = Atomic.fetch_and_add next 1 in
          if i >= n then continue := false
          else begin
            serve_request u eng ~outputs ~cycles ~post requests i;
            (* request boundary: fold this domain's profile increments into
               the shared pending accumulator *)
            Vm.Prof.flush_local ()
          end
        done;
        Vm.Prof.uninstall_local ();
        let machine = Core.Engine.exit_serving () in
        Obs.Vmstats.shard_install None;
        { wr_shard = shard;
          wr_machine = machine;
          wr_heap = Runtime.Heap.stats ();
          wr_ledger = Runtime.Ledger.acct ();
          wr_instrs = Vm.Interp.instr_count ();
          wr_spans = Obs.Span.take ();
          wr_prof = Obs.Profiler.take () }
      in
      let reports =
        Array.map Domain.join
          (Array.init workers (fun _ -> Domain.spawn worker))
      in
      (* the calling domain adopts whatever the burst published *)
      Core.Engine.begin_request eng;
      Obs.Vmstats.shards_end ();
      Hhbc.Hunit.freeze_interning false;
      (* Serial merge: fold every worker's counters into the main domain's
         so process-wide totals are exact regardless of schedule. *)
      Array.iter
        (fun r ->
           Obs.Vmstats.shard_merge r.wr_shard;
           Option.iter (Core.Engine.merge_machine eng) r.wr_machine;
           Runtime.Heap.absorb_stats r.wr_heap;
           Runtime.Ledger.absorb r.wr_ledger;
           Vm.Interp.add_instr_count r.wr_instrs;
           Obs.Profiler.absorb r.wr_prof)
        reports;
      (* profile increments and arcs flushed by workers but not yet folded
         into the canonical profile (no retranslate fired) are merged now *)
      Vm.Prof.merge_pending ();
      Obs.Span.merge
        (Array.to_list (Array.map (fun r -> r.wr_spans) reports))
    end
  in
  let wall = Obs.Clock.now () -. t0 in
  { sv_outputs = outputs;
    sv_output_hash = output_hash outputs;
    sv_cycles = cycles;
    sv_wall_s = wall;
    sv_workers = workers;
    sv_spans = spans }

(* ------------------------------------------------------------------ *)
(* The deterministic measured burst and its serving report             *)
(* ------------------------------------------------------------------ *)

type measured = {
  me_result : result;
  me_profile : (string * int) list;
  (** merged cycle attribution, folded-stack keys, sorted *)
  me_profile_total : int;
  (** sum over [me_profile]; equals the sum of [sv_cycles] exactly *)
}

(** The deterministic measured burst behind [--serving-report]: serve
    the mix in request-slot order on the calling domain through a serving
    context of its own (published epoch, per-request adoption, fresh
    machine), with spans and the profiler forced on.

    Why this is byte-identical for any (jit x request) worker
    configuration: parallel-burst per-request cycles are inherently
    schedule-dependent (which requests interp vs enter lazily-compiled
    code depends on when epoch deltas land; per-domain i-cache state is
    history-dependent), so a report measured over a parallel burst
    cannot be.  The measured burst removes the schedule: one domain, a
    fresh machine ([enter_serving]), requests served in slot order, the
    lease always uncontended, and [trigger] fired at a deterministic
    completed count.  [jit_workers] only affects the retranslate-all
    publish, which is deterministic by construction (PR 3), and
    [request_workers] never enters the measurement — so the report, the
    span log and the folded profile are all bit-stable.  (DESIGN.md §10
    carries the full argument.) *)
let measure ?trigger (u : Hhbc.Hunit.t) (eng : Core.Engine.t)
    (requests : request array) : measured =
  let n = Array.length requests in
  let outputs = Array.make n "" in
  let cycles = Array.make n 0 in
  let s0 = !Obs.Span.enabled and p0 = !Obs.Profiler.enabled in
  Obs.Span.enabled := true;
  Obs.Profiler.enabled := true;
  Obs.Span.reset_local ();
  Obs.Profiler.reset ();
  Obs.Vmstats.reset_histogram h_request_cycles;
  Core.Engine.enter_serving eng;
  let completed = ref 0 in
  let fired = ref false in
  let post () =
    incr completed;
    emit_snapshot eng !completed;
    match trigger with
    | Some (at, fn) when !completed >= at && not !fired ->
      fired := true;
      Some fn
    | _ -> None
  in
  let t0 = Obs.Clock.now () in
  for i = 0 to n - 1 do
    serve_request u eng ~outputs ~cycles ~post requests i
  done;
  let wall = Obs.Clock.now () -. t0 in
  (match Core.Engine.exit_serving () with
   | Some m -> Core.Engine.merge_machine eng m
   | None -> ());
  Core.Engine.begin_request eng;
  let spans = Obs.Span.merge [ Obs.Span.take () ] in
  Obs.Profiler.absorb (Obs.Profiler.take ());
  let profile = Obs.Profiler.folded_entries () in
  let profile_total = Obs.Profiler.folded_total () in
  Obs.Span.enabled := s0;
  Obs.Profiler.enabled := p0;
  { me_result =
      { sv_outputs = outputs;
        sv_output_hash = output_hash outputs;
        sv_cycles = cycles;
        sv_wall_s = wall;
        sv_workers = 1;
        sv_spans = spans };
    me_profile = profile;
    me_profile_total = profile_total }

(** Exact nearest-rank percentile over a sorted sample array (the report
    keeps every per-request cycle count, so no estimation is needed —
    and integer results keep the report byte-stable). *)
let percentile_exact (sorted : int array) (p : float) : int =
  let n = Array.length sorted in
  if n = 0 then 0
  else begin
    let r = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(min (n - 1) (max 0 (r - 1)))
  end

(** Endpoint-weighted mean cycles/request (the bench's serving metric). *)
let weighted_cycles (requests : request array) (cycles : int array) : float =
  let acc = Hashtbl.create 16 in
  Array.iteri
    (fun i (rq : request) ->
       let name = rq.rq_ep.ep_name in
       let c, k = Option.value (Hashtbl.find_opt acc name) ~default:(0, 0) in
       Hashtbl.replace acc name (c + cycles.(i), k + 1))
    requests;
  let wsum, csum =
    List.fold_left
      (fun (ws, cs) (ep : endpoint) ->
         match Hashtbl.find_opt acc ep.ep_name with
         | None -> (ws, cs)
         | Some (c, k) ->
           (ws + ep.ep_weight,
            cs +. (float_of_int ep.ep_weight
                   *. (float_of_int c /. float_of_int k))))
      (0, 0.0) endpoints
  in
  if wsum = 0 then 0.0 else csum /. float_of_int wsum

(** The serving report as JSON: request-cycle percentiles (exact
    nearest-rank over the per-request samples, plus the log2-histogram
    estimator for comparison), per-phase breakdowns from the merged span
    log, per-endpoint latency, and the profile's sum check.  Emits only
    integers, fixed-precision floats and identifier strings, so the bytes
    depend on the measured values alone: [test_spans] compares reports
    byte for byte across worker configs, and [scripts/ci.sh] runs [cmp]
    on the [report --serving-report] files written at the default and at
    4 JIT x 4 request workers. *)
let report_json (requests : request array) (m : measured) : string =
  let r = m.me_result in
  let n = Array.length r.sv_cycles in
  let total = Array.fold_left ( + ) 0 r.sv_cycles in
  let sorted = Array.copy r.sv_cycles in
  Array.sort compare sorted;
  let mean = if n = 0 then 0.0 else float_of_int total /. float_of_int n in
  (* the log2-bucket estimator, fed independently of the vmstats knob so
     the report never depends on whether stats were on *)
  let h =
    { Obs.Vmstats.h_name = "request_cycles";
      h_buckets = Array.make 63 0; h_count = 0; h_sum = 0; h_max = 0 }
  in
  Array.iter (Obs.Vmstats.observe_record h) r.sv_cycles;
  let phase_cycles = Array.make Obs.Span.nphases 0 in
  let phase_counts = Array.make Obs.Span.nphases 0 in
  Array.iter
    (fun (sp : Obs.Span.span) ->
       for i = 0 to Obs.Span.nphases - 1 do
         phase_cycles.(i) <- phase_cycles.(i) + sp.Obs.Span.sp_cycles.(i);
         phase_counts.(i) <- phase_counts.(i) + sp.Obs.Span.sp_counts.(i)
       done)
    r.sv_spans;
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"serving-report/1\",\n";
  add "  \"requests\": %d,\n" n;
  add "  \"total_cycles\": %d,\n" total;
  add "  \"weighted_cycles_per_req\": %.1f,\n"
    (weighted_cycles requests r.sv_cycles);
  add "  \"output_hash\": %d,\n" r.sv_output_hash;
  add "  \"request_cycles\": { \"p50\": %d, \"p95\": %d, \"p99\": %d, \
       \"max\": %d, \"mean\": %.1f },\n"
    (percentile_exact sorted 50.0) (percentile_exact sorted 95.0)
    (percentile_exact sorted 99.0)
    (if n = 0 then 0 else sorted.(n - 1))
    mean;
  add "  \"request_cycles_log2_estimate\": { \"p50\": %.1f, \"p95\": %.1f, \
       \"p99\": %.1f, \"max\": %d },\n"
    (Obs.Vmstats.percentile h 50.0) (Obs.Vmstats.percentile h 95.0)
    (Obs.Vmstats.percentile h 99.0) (Obs.Vmstats.histogram_max h);
  add "  \"phases\": {\n";
  List.iteri
    (fun i ph ->
       let idx = Obs.Span.phase_index ph in
       add "    \"%s\": { \"count\": %d, \"cycles\": %d }%s\n"
         (Obs.Span.phase_name ph) phase_counts.(idx) phase_cycles.(idx)
         (if i = Obs.Span.nphases - 1 then "" else ","))
    Obs.Span.phases;
  add "  },\n";
  add "  \"profile\": { \"entries\": %d, \"total_cycles\": %d },\n"
    (List.length m.me_profile) m.me_profile_total;
  add "  \"per_endpoint\": {\n";
  let eps =
    List.filter
      (fun (ep : endpoint) ->
         Array.exists (fun rq -> rq.rq_ep.ep_name = ep.ep_name) requests)
      endpoints
  in
  List.iteri
    (fun i (ep : endpoint) ->
       let acc = ref [] in
       Array.iteri
         (fun j rq ->
            if rq.rq_ep.ep_name = ep.ep_name then
              acc := r.sv_cycles.(j) :: !acc)
         requests;
       let cs = Array.of_list (List.rev !acc) in
       Array.sort compare cs;
       let k = Array.length cs in
       let tot = Array.fold_left ( + ) 0 cs in
       add "    \"%s\": { \"requests\": %d, \"total_cycles\": %d, \
            \"p50\": %d, \"p95\": %d, \"p99\": %d, \"max\": %d }%s\n"
         ep.ep_name k tot
         (percentile_exact cs 50.0) (percentile_exact cs 95.0)
         (percentile_exact cs 99.0) (if k = 0 then 0 else cs.(k - 1))
         (if i = List.length eps - 1 then "" else ","))
    eps;
  add "  }\n";
  add "}";
  Buffer.contents buf
