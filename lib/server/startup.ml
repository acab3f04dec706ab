(** Startup / warmup simulation (paper Fig. 9 and §6.2).

    Simulates a web server resuming production traffic after a restart:
    requests are served continuously; JITed code accumulates; after the
    global profiling trigger fires, retranslate-all runs on simulated
    background threads (serving continues on profiling code meanwhile), and
    the optimized translations are then published.

    The time axis is simulated cycles, rendered in "minutes" through a
    fixed cycles-per-minute scale.  The series reports, per time bucket,
    the total JITed code size and the requests-per-second relative to the
    steady state — the three curves of Fig. 9.  Points A (profiling code
    done), B (optimized code ready for relocation), C (published) and D
    (code cache full / live tail done) are reported. *)

open Workloads.Endpoints

type sample = {
  s_minute : float;
  s_code_kb : int;
  s_rps_pct : float;          (* throughput vs steady state *)
}

type trace = {
  t_samples : sample list;
  t_point_a_min : float;      (* profiling of hot code complete (trigger) *)
  t_point_b_min : float;      (* optimized code produced *)
  t_point_c_min : float;      (* optimized code published *)
  t_steady_rps : float;       (* requests per megacycle, steady state *)
  t_pct_live_steady : float;  (* §6.2: share of JITed-code time in live code *)
  t_final_code_kb : int;
  t_pause_ms : float;         (* real wall-clock pause of retranslate-all *)
}

let cycles_per_minute = 3_000_000

(* background-optimization duration: proportional to optimized code size *)
let opt_cycles_per_byte = 30

(** One period of the deterministic weighted round-robin request mix;
    its length is the natural window for steady-state detection (every
    endpoint appears with its production share exactly once). *)
let request_pool () : endpoint array =
  Array.of_list
    (List.concat_map
       (fun ep -> List.init (max 1 (ep.ep_weight / 5)) (fun _ -> ep))
       endpoints)

let request_stream () =
  (* weighted round-robin over endpoints, deterministic *)
  let arr = request_pool () in
  fun (i : int) -> arr.(i mod Array.length arr)

(** Steady-state cycles/request: a fully warmed, optimized engine. *)
let steady_state_cost (opts : Core.Jit_options.t) : float =
  let cfg = { Perflab.c_opts = opts; c_warmup = 25; c_measure = 25; c_sets = 1 } in
  let r = Perflab.measure cfg in
  r.Perflab.r_weighted

let simulate ?(opts : Core.Jit_options.t option)
    ?(trigger_requests = 600) ?(total_minutes = 30.0) () : trace =
  let opts = match opts with Some o -> o | None -> Core.Jit_options.default () in
  opts.mode <- Core.Jit_options.Region;
  let steady = steady_state_cost opts in
  (* fresh engine for the startup run *)
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let eng = Core.Engine.install ~opts u in
  let next = request_stream () in
  let samples = ref [] in
  let req_i = ref 0 in
  let point_a = ref 0.0 and point_b = ref 0.0 and point_c = ref 0.0 in
  let minute_of c = float_of_int c /. float_of_int cycles_per_minute in
  let bucket_reqs = ref 0 and bucket_start = ref 0 in
  let retranslated = ref false in
  let pause_ms = ref 0.0 in
  let opt_pending_until = ref max_int in
  let sample_now () =
    let now = Runtime.Ledger.read () in
    let dt = now - !bucket_start in
    if dt > 0 then begin
      let rps = float_of_int !bucket_reqs /. float_of_int dt in
      let steady_rps = 1.0 /. steady in
      samples := { s_minute = minute_of now;
                   s_code_kb = Core.Engine.code_bytes eng / 1024;
                   s_rps_pct = 100.0 *. rps /. steady_rps } :: !samples;
      bucket_reqs := 0;
      bucket_start := now
    end
  in
  let bucket_cycles = cycles_per_minute / 2 in
  let limit = int_of_float (total_minutes *. float_of_int cycles_per_minute) in
  while Runtime.Ledger.read () < limit do
    let ep = next !req_i in
    incr req_i;
    ignore (Perflab.call_endpoint u ep !req_i);
    incr bucket_reqs;
    (* the restart protocol: other server waves are down, so early servers
       see elevated load; we model steady arrival and measure capacity *)
    if (not !retranslated) && !req_i = trigger_requests then begin
      (* point A: profiling done; optimization starts in the background *)
      point_a := minute_of (Runtime.Ledger.read ());
      retranslated := true;
      (* run the compiler now (its cost is NOT charged to serving: paper
         uses a pool of four background threads), but delay publication by
         the simulated background-compile duration *)
      let ledger_before = Runtime.Ledger.read () in
      let pause_before = Obs.Vmstats.timer_seconds "retranslate.pause" in
      ignore (Core.Engine.retranslate_all eng);
      pause_ms :=
        (Obs.Vmstats.timer_seconds "retranslate.pause" -. pause_before)
        *. 1000.;
      (* compilation happened off-thread: restore the serving ledger *)
      Runtime.Ledger.set_cycles ledger_before;
      let opt_bytes = eng.Core.Engine.opt_bytes in
      opt_pending_until := ledger_before + opt_bytes * opt_cycles_per_byte;
      (* until publication, serving continues on profiling code: we model
         this by deferring the *benefit*; implementation-wise the optimized
         code is already installed, so we instead record the publication
         point and let the RPS curve show the step *)
      point_b := minute_of !opt_pending_until;
      point_c := minute_of (!opt_pending_until + cycles_per_minute / 10);
      (* charge the relocation pause (brief stop-the-world publish) *)
      Runtime.Ledger.charge (cycles_per_minute / 20)
    end;
    if Runtime.Ledger.read () - !bucket_start >= bucket_cycles then sample_now ()
  done;
  sample_now ();
  let m = eng.Core.Engine.main_ctx.Core.Engine.sx_machine in
  let jit_cycles =
    m.Core.Exec.cycles_live + m.Core.Exec.cycles_prof + m.Core.Exec.cycles_opt
  in
  let pct_live =
    if jit_cycles = 0 then 0.0
    else 100.0 *. float_of_int m.Core.Exec.cycles_live /. float_of_int jit_cycles
  in
  { t_samples = List.rev !samples;
    t_point_a_min = !point_a;
    t_point_b_min = !point_b;
    t_point_c_min = !point_c;
    t_steady_rps = 1.0 /. steady *. 1.0e6;
    t_pct_live_steady = pct_live;
    t_final_code_kb = Core.Engine.code_bytes eng / 1024;
    t_pause_ms = !pause_ms }

(* ------------------------------------------------------------------ *)
(* Jumpstart (paper §6.2): dump a warmed image, restore it cold        *)
(* ------------------------------------------------------------------ *)

let load_unit () : Hhbc.Hunit.t =
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  u

(** Warm a fresh engine the way a production instance would: serve the
    request stream until the profiling trigger, then retranslate-all. *)
let warm ?(opts : Core.Jit_options.t option)
    ?(trigger_requests = 600) ()
  : Core.Engine.t * Hhbc.Hunit.t =
  let opts = match opts with Some o -> o | None -> Core.Jit_options.default () in
  opts.mode <- Core.Jit_options.Region;
  let u = load_unit () in
  let eng = Core.Engine.install ~opts u in
  let next = request_stream () in
  for i = 0 to trigger_requests - 1 do
    ignore (Perflab.call_endpoint u (next i) (i + 1))
  done;
  ignore (Core.Engine.retranslate_all eng);
  (eng, u)

(** Warm up, capture, and write a jumpstart image.  Returns the image
    size in bytes, or an error when the engine produced nothing worth
    dumping (e.g. a mode that never optimizes). *)
let dump ?(opts : Core.Jit_options.t option)
    ?(trigger_requests = 600) ~(path : string) ()
  : (int, string) result =
  let opts = match opts with Some o -> o | None -> Core.Jit_options.default () in
  let eng, u = warm ~opts ~trigger_requests () in
  match Core.Engine.capture_image eng with
  | None -> Error "no optimized code to capture (retranslate-all produced nothing)"
  | Some im ->
    let digest = Core.Jumpstart.unit_digest u opts in
    Ok (Core.Jumpstart.save ~path ~digest im)

type restore_result = {
  rs_engine : Core.Engine.t;
  rs_unit : Hhbc.Hunit.t;
  rs_jumpstarted : bool;       (** false = the image was rejected *)
  rs_error : string option;    (** why, when [rs_jumpstarted = false] *)
}

(** Fresh-process start with a jumpstart image: install a cold engine,
    validate the image against this build's unit + codegen options, and
    adopt it.  Degrades gracefully — a missing, stale, or corrupted image
    logs one line and leaves the engine cold (never a crash); the caller
    always gets a working engine either way. *)
let restore ?(opts : Core.Jit_options.t option) ~(path : string) ()
  : restore_result =
  let opts = match opts with Some o -> o | None -> Core.Jit_options.default () in
  opts.mode <- Core.Jit_options.Region;
  let u = load_unit () in
  let eng = Core.Engine.install ~opts u in
  let digest = Core.Jumpstart.unit_digest u opts in
  match Core.Jumpstart.load ~path ~digest with
  | Ok im ->
    Core.Engine.adopt_image eng im;
    { rs_engine = eng; rs_unit = u; rs_jumpstarted = true; rs_error = None }
  | Error reason ->
    Printf.eprintf "jumpstart: %s: %s; falling back to cold start\n%!"
      path reason;
    { rs_engine = eng; rs_unit = u; rs_jumpstarted = false;
      rs_error = Some reason }

(* ------------------------------------------------------------------ *)
(* Startup measurement: requests-to-steady-state, cold vs jumpstarted  *)
(* ------------------------------------------------------------------ *)

type startup_metrics = {
  su_requests_to_steady : int;
  (** first request index from which a full mix-period window of requests
      runs within 5% of steady-state cost *)
  su_first_window_pct : float;   (** first-window throughput vs steady, % *)
  su_point_a_min : float;        (** profiling done / trigger (0 = skipped) *)
  su_point_b_min : float;        (** optimized code produced (0 = skipped) *)
  su_point_c_min : float;        (** optimized code published (0 = skipped) *)
  su_prof_translations : int;
  su_opt_translations : int;
  su_retranslate_runs : int;
  su_output_hash : int;
  su_main_code_kb : int;         (** optimized hot-section bytes *)
}

type startup_report = {
  sr_cold : startup_metrics;
  sr_jump : startup_metrics;
  sr_delta_requests : int;       (** cold minus jumpstarted steady point *)
  sr_hash_match : bool;          (** outputs bit-identical across the two *)
  sr_image_bytes : int;
}

(** Serve [total] requests from the deterministic stream, recording each
    request's simulated cost and output; optionally fire retranslate-all
    after request [retranslate_at] with the same background-compile model
    as {!simulate} (compile cycles are not charged to serving; points B/C
    mark the modeled publication). *)
let serve_measured (u : Hhbc.Hunit.t) (eng : Core.Engine.t) ~(total : int)
    ~(retranslate_at : int option)
  : int array * string array * float * float * float =
  let next = request_stream () in
  let window = Array.length (request_pool ()) in
  let costs = Array.make total 0 in
  let outputs = Array.make total "" in
  let minute_of c = float_of_int c /. float_of_int cycles_per_minute in
  let pa = ref 0.0 and pb = ref 0.0 and pc = ref 0.0 in
  for i = 0 to total - 1 do
    let ep = next i in
    let c0 = Runtime.Ledger.read () in
    outputs.(i) <- Perflab.call_endpoint u ep (i + 1);
    costs.(i) <- Runtime.Ledger.read () - c0;
    (* lifecycle cadence: one liveness decay / evict / compact opportunity
       per request window.  A no-op until the operator opts in
       (tc_evict_threshold > 0) and optimized code is published; ledger
       restored so maintenance never shows up in the request cost stream. *)
    if (i + 1) mod window = 0 then begin
      let before = Runtime.Ledger.read () in
      ignore (Core.Engine.tc_lifecycle_tick eng);
      Runtime.Ledger.set_cycles before
    end;
    match retranslate_at with
    | Some t when i + 1 = t ->
      pa := minute_of (Runtime.Ledger.read ());
      let before = Runtime.Ledger.read () in
      ignore (Core.Engine.retranslate_all eng);
      Runtime.Ledger.set_cycles before;
      let fin = before + eng.Core.Engine.opt_bytes * opt_cycles_per_byte in
      pb := minute_of fin;
      pc := minute_of (fin + cycles_per_minute / 10)
    | _ -> ()
  done;
  (costs, outputs, !pa, !pb, !pc)

(** First request index from which the sliding [window]-request mean cost
    stays within 5% of the steady-state mean (the final window — by then
    both the cold and the jumpstarted engine are fully optimized). *)
let requests_to_steady (costs : int array) ~(window : int) : int =
  let n = Array.length costs in
  if window <= 0 || window > n then 0
  else begin
    let prefix = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do prefix.(i + 1) <- prefix.(i) + costs.(i) done;
    let wmean i =
      float_of_int (prefix.(i + window) - prefix.(i)) /. float_of_int window
    in
    let steady = wmean (n - window) in
    let i = ref 0 in
    while !i < n - window && wmean !i > 1.05 *. steady do incr i done;
    !i
  end

(** Measure the startup cliff cold vs jumpstarted: run a fresh engine to
    steady state (retranslate-all at the trigger), dump its image, then
    boot a second fresh engine from the image and serve the identical
    request stream.  Deterministic: everything is simulated cycles. *)
let measure_startup ?(opts : Core.Jit_options.t option)
    ?(trigger_requests = 600) ?(path : string option) ()
  : startup_report =
  let opts = match opts with Some o -> o | None -> Core.Jit_options.default () in
  opts.mode <- Core.Jit_options.Region;
  let window = Array.length (request_pool ()) in
  let total = trigger_requests + 4 * window in
  let metrics (eng : Core.Engine.t)
      ((costs, outputs, pa, pb, pc) : int array * string array * float * float * float)
    : startup_metrics =
    let prefix_w =
      let s = ref 0 in
      Array.iteri (fun i c -> if i < window then s := !s + c) costs;
      float_of_int !s /. float_of_int window
    in
    let steady =
      let s = ref 0 in
      for i = total - window to total - 1 do s := !s + costs.(i) done;
      float_of_int !s /. float_of_int window
    in
    { su_requests_to_steady = requests_to_steady costs ~window;
      su_first_window_pct =
        (if prefix_w > 0.0 then 100.0 *. steady /. prefix_w else 0.0);
      su_point_a_min = pa; su_point_b_min = pb; su_point_c_min = pc;
      su_prof_translations = eng.Core.Engine.n_profiling;
      su_opt_translations = eng.Core.Engine.n_optimized;
      su_retranslate_runs = Obs.Vmstats.counter_value "retranslate.runs";
      su_output_hash = Serving.output_hash outputs;
      su_main_code_kb =
        Simcpu.Codecache.section_bytes eng.Core.Engine.cache
          Simcpu.Codecache.Main / 1024 }
  in
  (* --- cold process: the full warmup cliff --- *)
  let u = load_unit () in
  let eng = Core.Engine.install ~opts u in
  let cold_run =
    serve_measured u eng ~total ~retranslate_at:(Some trigger_requests)
  in
  let cold = metrics eng cold_run in
  (* --- dump the warmed image --- *)
  let temp = path = None in
  let path =
    match path with
    | Some p -> p
    | None -> Filename.temp_file "jumpstart" ".img"
  in
  let image_bytes =
    match Core.Engine.capture_image eng with
    | None -> 0
    | Some im ->
      Core.Jumpstart.save ~path ~digest:(Core.Jumpstart.unit_digest u opts) im
  in
  (* --- jumpstarted fresh process: same stream, no cliff --- *)
  let opts2 = Core.Jit_options.default () in
  opts2.jit_workers <- opts.jit_workers;
  opts2.request_workers <- opts.request_workers;
  let r = restore ~opts:opts2 ~path () in
  let jump_run =
    serve_measured r.rs_unit r.rs_engine ~total ~retranslate_at:None
  in
  let jump = metrics r.rs_engine jump_run in
  if temp then (try Sys.remove path with Sys_error _ -> ());
  { sr_cold = cold;
    sr_jump = jump;
    sr_delta_requests = cold.su_requests_to_steady - jump.su_requests_to_steady;
    sr_hash_match = cold.su_output_hash = jump.su_output_hash;
    sr_image_bytes = image_bytes }
