(** The repository benchmark harness.

    One process, one request domain, one client in a closed loop.  It
    drives the engine only through its public entry points — the loader,
    the hhbbc passes, [Core.Engine.install], [Core.Engine.begin_request] +
    [Server.Perflab.call_endpoint] one request at a time (the calls
    [Server.Serving.serve_request] makes), [Core.Engine.retranslate_all]
    and [Core.Engine.tc_lifecycle_tick] — and reads counters through
    [Core.Engine.sync_vmstats] and [Obs.Vmstats].

    A run repeats {e rounds} until [--seconds] have passed.  A round is a
    full set-up from source followed by the workload's fixed request
    stream, so every round does identical simulated work: the simulated
    figures must repeat exactly across rounds (the determinism gate) and
    the host figures are medians over rounds.  With [--trace 1] every
    other round records spans around each call above and around the two
    engine hooks; per-layer figures come from those rounds, the untraced
    rounds in between give the tracing overhead, and the last traced
    round's span log is written to [perfbench/spans.csv].

    perfbench/METRICS.md records why each workload and metric exists. *)

open Workloads.Endpoints
module Serving = Server.Serving

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let workloads = [ "steady_region"; "interp_only"; "cold_start"; "mix_shift" ]

(* Requests served before retranslate-all, as in Server.Startup. *)
let profiling_trigger = 600

(* mix_shift runs under this code budget: the bytes the tc_lifecycle
   scenario of BENCH_hotpath.json sized (steady-state counted bytes plus
   4 KiB), small enough that eviction fires. *)
let mix_shift_budget = 17_743
let mix_shift_threshold = 3

type spec = {
  sp_mode : Core.Jit_options.mode;
  sp_budget : int option;
  sp_threshold : int;
  sp_compact : bool;
  sp_warm : Serving.request array;
  (** served during set-up, which retranslate-all then closes *)
  sp_measured : Serving.request array;
  sp_retranslate_at : int;
  (** retranslate-all after this many measured requests; 0 = never *)
  sp_ticks : bool array;   (** lifecycle tick after measured request i *)
  sp_window : int;         (** steady-state window, in requests *)
}

let mix_shape rounds =
  Array.map (fun (r : Serving.request) -> r.Serving.rq_ep)
    (Serving.mix ~rounds ())

let shifted_shape rounds =
  Array.map (fun (r : Serving.request) -> r.Serving.rq_ep)
    (Serving.mix_shifted ~rounds ())

(* One mix window: every endpoint once at its production share. *)
let mix_period = Array.length (mix_shape 1)
let shifted_period = Array.length (shifted_shape 1)

(* The seed reaches the program only here, as request arguments. *)
let with_args ~(seed : int) ~(salt : int) (shape : endpoint array)
  : Serving.request array =
  let st = Random.State.make [| seed; salt |] in
  Array.map
    (fun ep ->
       { Serving.rq_ep = ep; rq_arg = 1000 + Random.State.int st 9000 })
    shape

let every n len = Array.init len (fun i -> (i + 1) mod n = 0)

let spec_of (w : string) ~(seed : int) : spec =
  let warm =
    with_args ~seed ~salt:1
      (Array.sub (mix_shape (profiling_trigger / mix_period + 1)) 0
         profiling_trigger)
  in
  let region =
    { sp_mode = Core.Jit_options.Region; sp_budget = None; sp_threshold = 0;
      sp_compact = false; sp_warm = warm;
      sp_measured = [||]; sp_retranslate_at = 0; sp_ticks = [||];
      sp_window = mix_period }
  in
  let mix_stream rounds =
    let m = with_args ~seed ~salt:2 (mix_shape rounds) in
    (m, every mix_period (Array.length m))
  in
  match w with
  | "steady_region" ->
    let m, ticks = mix_stream 500 in
    { region with sp_measured = m; sp_ticks = ticks }
  | "interp_only" ->
    let m, ticks = mix_stream 1000 in
    { region with sp_mode = Core.Jit_options.Interp; sp_warm = [||];
                  sp_measured = m; sp_ticks = ticks }
  | "cold_start" ->
    let pool = Server.Startup.request_pool () in
    let period = Array.length pool in
    let n = profiling_trigger + 4 * period in
    { region with
      sp_warm = [||];
      sp_measured =
        with_args ~seed ~salt:3 (Array.init n (fun i -> pool.(i mod period)));
      sp_retranslate_at = profiling_trigger;
      sp_ticks = every period n; sp_window = period }
  | "mix_shift" ->
    (* five shifts: 12 mix windows of production traffic, then 12 of the
       reversed popularity, with a lifecycle tick after every window *)
    let phases = 5 and rounds = 12 in
    let shape = ref [] and ticks = ref [] in
    for _ = 1 to phases do
      shape := shifted_shape rounds :: mix_shape rounds :: !shape;
      ticks := every shifted_period (rounds * shifted_period)
               :: every mix_period (rounds * mix_period) :: !ticks
    done;
    { region with
      sp_budget = Some mix_shift_budget; sp_threshold = mix_shift_threshold;
      sp_compact = true;
      sp_measured = with_args ~seed ~salt:4 (Array.concat (List.rev !shape));
      sp_ticks = Array.concat (List.rev !ticks) }
  | _ -> invalid_arg w

let mode_name = function
  | Core.Jit_options.Interp -> "interp"
  | Core.Jit_options.Tracelet -> "tracelet"
  | Core.Jit_options.ProfileOnly -> "profile"
  | Core.Jit_options.Region -> "region"

(* Every engine-affecting option, set explicitly. *)
let pinned_opts (sp : spec) : Core.Jit_options.t =
  let o = Core.Jit_options.default () in
  o.mode <- sp.sp_mode;
  o.jit_workers <- 1;
  o.request_workers <- 1;
  o.lazy_translate <- true;
  o.code_budget <- sp.sp_budget;
  o.tc_evict_threshold <- sp.sp_threshold;
  o.tc_compact <- sp.sp_compact;
  o.huge_pages <- true;
  o.stats <- true;
  o.spans <- false;
  o.trace <- None;
  o.trace_out <- None;
  o.snapshot_out <- None;
  o.snapshot_interval <- 0;
  o.interp_threaded <- Some true;
  o

let describe_opts (o : Core.Jit_options.t) : string =
  Printf.sprintf
    "mode=%s jit_workers=%d request_workers=%d lazy_translate=%b \
     code_budget=%s tc_evict_threshold=%d tc_compact=%b huge_pages=%b \
     stats=%b"
    (mode_name o.mode) o.jit_workers o.request_workers o.lazy_translate
    (match o.code_budget with Some b -> string_of_int b | None -> "none")
    o.tc_evict_threshold o.tc_compact o.huge_pages o.stats

(* Environment overrides [Jit_options.resolve] would fold into the pinned
   configuration behind the benchmark's back. *)
let refused_env =
  [ "JIT_WORKERS"; "REQUEST_WORKERS"; "LAZY_TRANSLATE"; "INTERP_THREADED";
    "JIT_STATS"; "SPANS"; "JIT_TRACE"; "JIT_TRACE_OUT"; "TC_EVICT_THRESHOLD";
    "TC_COMPACT"; "SNAPSHOT_OUT"; "SNAPSHOT_INTERVAL" ]

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(** In-memory span log for one round: name, start, end, parent and
    request id per span, plus minor-heap words at both ends.  Stored off
    the OCaml heap so a million spans neither allocate while recording
    nor lengthen the traced program's major GC. *)
module Tr = struct
  open Bigarray

  let names =
    [| "hhbc.load"; "hhbbc"; "core.install"; "server.request";
       "core.dispatch"; "vm.interp"; "core.retranslate"; "core.lifecycle" |]

  let load = 0
  let hhbbc = 1
  let install = 2
  let request = 3
  let dispatch = 4
  let interp = 5
  let retranslate = 6
  let lifecycle = 7

  (* ints: name, start ns, end ns, parent, request, child ns
     words: minor words at start, at end, under children *)
  let ni = 6
  let nw = 3

  let on = ref false
  let cap = ref 0
  let ints = ref (Array1.create Int c_layout 0)
  let words = ref (Array1.create Float64 c_layout 0)
  let n = ref 0
  let stack = ref (Array.make 1024 0)
  let depth = ref 0
  let req = ref (-1)

  let reset () = n := 0; depth := 0; req := -1

  let grow () =
    let c = max 65536 (2 * !cap) in
    let i' = Array1.create Int c_layout (c * ni)
    and w' = Array1.create Float64 c_layout (c * nw) in
    Array1.blit !ints (Array1.sub i' 0 (!cap * ni));
    Array1.blit !words (Array1.sub w' 0 (!cap * nw));
    ints := i'; words := w'; cap := c

  let enter (name : int) : int =
    if !n >= !cap then grow ();
    if !depth >= Array.length !stack then
      stack := Array.append !stack (Array.make (Array.length !stack) 0);
    let i = !n in
    n := i + 1;
    let b = !ints and w = !words in
    b.{ni * i} <- name;
    b.{ni * i + 3} <- (if !depth > 0 then !stack.(!depth - 1) else -1);
    b.{ni * i + 4} <- !req;
    b.{ni * i + 5} <- 0;
    (!stack).(!depth) <- i;
    incr depth;
    w.{nw * i + 2} <- 0.0;
    w.{nw * i} <- Gc.minor_words ();
    b.{ni * i + 1} <- now_ns ();
    i

  let leave (i : int) : unit =
    let t = now_ns () in
    (!ints).{ni * i + 2} <- t;
    (!words).{nw * i + 1} <- Gc.minor_words ();
    decr depth

  let span name f =
    if not !on then f ()
    else begin
      let i = enter name in
      match f () with
      | v -> leave i; v
      | exception e -> leave i; raise e
    end

  (** Wrap the two hooks [Core.Engine.install] just set, without a
      closure per call (they run tens of times per request).  The dispatch
      hook belongs to the interpreter in Interp mode and to the engine
      otherwise; in Region mode, interpretation after a side exit runs
      inside the engine's hook and is counted there. *)
  let wrap_hooks (mode : Core.Jit_options.mode) =
    let cd = !Vm.Interp.call_dispatch in
    let name = if mode = Core.Jit_options.Interp then interp else dispatch in
    Vm.Interp.call_dispatch :=
      (fun u fid args this_ ->
         let i = enter name in
         match cd u fid args this_ with
         | v -> leave i; v
         | exception e -> leave i; raise e);
    if !Vm.Interp.hook_active then begin
      let th = !Vm.Interp.translation_hook in
      Vm.Interp.translation_hook :=
        (fun fr pc ->
           let i = enter dispatch in
           match th fr pc with
           | r -> leave i; r
           | exception e -> leave i; raise e)
    end

  (** Self time and self minor words per span name over the log: a
      span's duration minus the part its children cover. *)
  let self_totals () : int array * float array =
    let b = !ints and w = !words in
    let self_ns = Array.make (Array.length names) 0 in
    let self_w = Array.make (Array.length names) 0.0 in
    for i = 0 to !n - 1 do
      let p = b.{ni * i + 3} in
      if p >= 0 then begin
        b.{ni * p + 5} <- b.{ni * p + 5} + b.{ni * i + 2} - b.{ni * i + 1};
        w.{nw * p + 2} <- w.{nw * p + 2} +. w.{nw * i + 1} -. w.{nw * i}
      end
    done;
    for i = 0 to !n - 1 do
      let k = b.{ni * i} in
      self_ns.(k) <-
        self_ns.(k) + b.{ni * i + 2} - b.{ni * i + 1} - b.{ni * i + 5};
      self_w.(k) <-
        self_w.(k) +. w.{nw * i + 1} -. w.{nw * i} -. w.{nw * i + 2}
    done;
    (self_ns, self_w)

  let write_csv (path : string) =
    let oc = open_out path in
    output_string oc "span,name,start_ns,end_ns,parent,request\n";
    let b = !ints in
    for i = 0 to !n - 1 do
      Printf.fprintf oc "%d,%s,%d,%d,%d,%d\n" i names.(b.{ni * i})
        b.{ni * i + 1} b.{ni * i + 2} b.{ni * i + 3} b.{ni * i + 4}
    done;
    close_out oc
end

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.(n / 2 - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Host speed                                                          *)
(* ------------------------------------------------------------------ *)

(** Host speed, probed at both ends of every round.  The hosts this
    benchmark runs on are shared and their speed drifts: the same round
    runs up to 1.7x slower for seconds at a time, so raw medians of 25 s
    runs spread 41-57 % between runs.  Host times are therefore reported
    at a reference speed: raw time x [ref_ns] / (median probe slice of
    the round).

    A slice is a fixed piece of the benchmark's own code that exercises
    the OCaml standard library broadly (maps, hash tables, buffers,
    formatting, sorting): contention on a shared core slows large,
    branchy, allocating code like the engine's far more than a small
    arithmetic loop.  The probe is kept apart from the program under
    test: it runs outside every timed interval, never between requests,
    and each slice starts on an empty minor heap and allocates less than
    the minor heap holds, so no collection runs while a slice is timed
    and the program's heap, however large, does no work inside it. *)
module Speed = struct
  module SM = Map.Make (String)

  let kernel () =
    let acc = ref 0 in
    for r = 1 to 12 do
      let m = ref SM.empty and h = Hashtbl.create 16 in
      let b = Buffer.create 64 in
      for i = 1 to 40 do
        let k = Printf.sprintf "k%d_%x" (i * r) i in
        m := SM.add k i !m;
        Hashtbl.replace h (i, k) (float_of_int i *. 1.5);
        Buffer.add_string b (String.uppercase_ascii k);
        Buffer.add_char b ','
      done;
      let l =
        List.sort compare
          (List.map (fun (k, v) -> String.length k + v) (SM.bindings !m))
      in
      acc :=
        !acc + List.length (String.split_on_char ',' (Buffer.contents b))
        + List.fold_left ( + ) 0 l
        + int_of_float (Hashtbl.fold (fun _ v a -> v +. a) h 0.0)
    done;
    !acc

  (* One slice's time at the reference speed. *)
  let ref_ns = 300_000
  let slices = 16

  (** Times of [slices] slices; the median rides out cold caches and a
      preempted slice. *)
  let probe () : float list =
    let ts =
      List.init slices (fun _ ->
          Gc.minor ();
          let t0 = now_ns () in
          ignore (Sys.opaque_identity (kernel ()));
          float_of_int (now_ns () - t0))
    in
    Gc.minor ();
    ts
end

(* ------------------------------------------------------------------ *)
(* One round                                                           *)
(* ------------------------------------------------------------------ *)

type round = {
  r_traced : bool;
  r_factor : float;            (** reference speed over the round's *)
  r_setup : float;             (** s, at the reference speed *)
  r_measured : float;          (** s, at the reference speed *)
  r_tts : float;               (** s, load start to first steady request *)
  r_raw_rps : float;           (** req_per_s at the host's speed *)
  r_rts : int;                 (** requests through the first steady one *)
  r_lat : float array;         (** measured requests, reference ns *)
  r_outputs : string array;    (** every request, warm then measured *)
  r_heap_live : int;
  r_cycles_per_req : float;
  r_cycles_p99 : int;
  r_code_bytes : int;
  r_exec_instrs : int;
  r_compiles : int;
  r_evicted : int;
  r_layers : (string * float) list;   (** traced rounds only *)
}

let exn_marker = "\000exception: "

let is_exn (s : string) = String.starts_with ~prefix:exn_marker s

let serve_one eng u (rq : Serving.request) : string =
  match
    Core.Engine.begin_request eng;
    Server.Perflab.call_endpoint u rq.Serving.rq_ep rq.Serving.rq_arg
  with
  | o -> o
  | exception e -> exn_marker ^ Printexc.to_string e

let run_round (sp : spec) ~(traced : bool) : round =
  let nw = Array.length sp.sp_warm and nm = Array.length sp.sp_measured in
  let total = nw + nm in
  let outputs = Array.make total "" in
  let done_ns = Array.make total 0 in
  let cycles = Array.make total 0 in
  let jit = Array.make nm 0 and interp = Array.make nm 0 in
  let lat = Array.make nm 0 in
  (* an untraced round records nothing, so after a run the log holds the
     last traced round *)
  if traced then Tr.reset ();
  Tr.on := traced;
  (* every round starts from the same GC state, as a fresh process would:
     otherwise whether a major slice lands in the 2 ms set-up of
     interp_only and cold_start depends on the previous round *)
  Gc.full_major ();
  let probe0 = Speed.probe () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let t_load = now_ns () in
  let u =
    Tr.span Tr.load (fun () -> Vm.Loader.load Workloads.Endpoints.source) in
  Tr.span Tr.hhbbc (fun () ->
      ignore (Hhbbc.Assert_insert.run u);
      ignore (Hhbbc.Bc_opt.run u));
  let eng =
    Tr.span Tr.install (fun () ->
        Core.Engine.install ~opts:(pinned_opts sp) u)
  in
  if traced then Tr.wrap_hooks sp.sp_mode;
  let acct = Runtime.Ledger.acct () in
  let serve (rq : Serving.request) (k : int) : unit =
    let c0 = acct.Runtime.Ledger.a_cycles in
    let j0 = acct.Runtime.Ledger.a_jit
    and i0 = acct.Runtime.Ledger.a_interp in
    let s = if traced then (Tr.req := k; Tr.enter Tr.request) else -1 in
    let t0 = now_ns () in
    let out = serve_one eng u rq in
    let t1 = now_ns () in
    if traced then (Tr.leave s; Tr.req := -1);
    outputs.(k) <- out;
    done_ns.(k) <- t1;
    cycles.(k) <- acct.Runtime.Ledger.a_cycles - c0;
    if k >= nw then begin
      lat.(k - nw) <- t1 - t0;
      jit.(k - nw) <- acct.Runtime.Ledger.a_jit - j0;
      interp.(k - nw) <- acct.Runtime.Ledger.a_interp - i0
    end
  in
  Array.iteri (fun k rq -> serve rq k) sp.sp_warm;
  if nw > 0 then
    Tr.span Tr.retranslate (fun () ->
        ignore (Core.Engine.retranslate_all eng));
  Core.Engine.sync_vmstats eng;
  let compiles0 = Obs.Vmstats.gauge_value "engine.compiles" in
  let words0 = Gc.minor_words () in
  let t_m0 = now_ns () in
  for i = 0 to nm - 1 do
    serve sp.sp_measured.(i) (nw + i);
    if i + 1 = sp.sp_retranslate_at then
      Tr.span Tr.retranslate (fun () ->
          ignore (Core.Engine.retranslate_all eng));
    if sp.sp_ticks.(i) then
      Tr.span Tr.lifecycle (fun () ->
          ignore (Core.Engine.tc_lifecycle_tick eng))
  done;
  let t_m1 = now_ns () in
  let words1 = Gc.minor_words () in
  Tr.on := false;
  let probe1 = Speed.probe () in
  let f = float_of_int Speed.ref_ns /. median (probe0 @ probe1) in
  let secs a b = float_of_int (b - a) *. f /. 1e9 in
  let major1 = (Gc.quick_stat ()).Gc.major_collections in
  Core.Engine.sync_vmstats eng;
  let cv = Obs.Vmstats.counter_value and gv = Obs.Vmstats.gauge_value in
  let first_steady =
    Server.Startup.requests_to_steady cycles ~window:sp.sp_window in
  let measured_cycles = Array.sub cycles nw nm in
  let sorted = Array.copy measured_cycles in
  Array.sort compare sorted;
  let layers =
    if not traced then []
    else begin
      let self_ns, self_w = Tr.self_totals () in
      let ms k = float_of_int self_ns.(k) *. f /. 1e6 in
      let per_req x = float_of_int x /. float_of_int total in
      let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      let ns_per k instrs =
        if instrs = 0 then 0.0
        else float_of_int self_ns.(k) *. f /. float_of_int instrs
      in
      let hit_ratio hit miss = ratio (cv hit) (cv hit + cv miss) in
      let pass_changed =
        List.fold_left
          (fun acc name ->
             if String.starts_with ~prefix:"pass." name
             && String.ends_with ~suffix:".changed" name
             then acc + cv name else acc)
          0 (Obs.Vmstats.sorted_names Obs.Vmstats.counters)
      in
      let weighted = Serving.weighted_cycles sp.sp_measured in
      let covered = Array.fold_left ( + ) 0 self_ns in
      [ "hhbc.load_ms", ms Tr.load;
        "hhbbc.ms", ms Tr.hhbbc;
        "core.install_ms", ms Tr.install;
        "server.request.self_ms", ms Tr.request;
        "vm.interp.self_ms", ms Tr.interp;
        "vm.interp.instrs", float_of_int (gv "interp.instrs");
        "vm.interp.ns_per_instr", ns_per Tr.interp (gv "interp.instrs");
        "vm.interp.minor_words_per_req",
        self_w.(Tr.interp) /. float_of_int total;
        "core.dispatch.self_ms", ms Tr.dispatch;
        "core.exec.instrs", float_of_int (gv "exec.instrs");
        (* under Region the dispatch hook also runs the interpreter *)
        "core.exec.ns_per_instr",
        ns_per Tr.dispatch (gv "exec.instrs" + gv "interp.instrs");
        "core.dispatch.minor_words_per_req",
        self_w.(Tr.dispatch) /. float_of_int total;
        "core.dispatch.mono_hit_ratio",
        hit_ratio "dispatch.mono_hit" "dispatch.mono_miss";
        "core.dispatch.chain_hit_ratio",
        hit_ratio "dispatch.chain_hit" "dispatch.chain_miss";
        "core.guard.fail_per_req", per_req (cv "guard.fail");
        "core.exit.bind_per_req", per_req (cv "exit.bind");
        "core.link.follow_per_req", per_req (cv "link.follow");
        "simcpu.icache.miss_ratio",
        ratio (gv "icache.misses") (gv "icache.accesses");
        "simcpu.itlb.misses_per_req", per_req (gv "itlb.misses");
        "core.retranslate_ms", ms Tr.retranslate;
        "core.compiles", float_of_int (gv "engine.compiles");
        "core.translations.profiling", float_of_int (gv "trans.profiling");
        "core.translations.live", float_of_int (gv "trans.live");
        "core.translations.optimized", float_of_int (gv "trans.optimized");
        "core.code_bytes", float_of_int (Core.Engine.code_bytes eng);
        "region.formed", float_of_int (cv "region.formed");
        "hhir_opt.changed", float_of_int pass_changed;
        "core.lifecycle_ms", ms Tr.lifecycle;
        "core.tc.evicted", float_of_int (cv "tc.evicted");
        "core.tc.compactions", float_of_int (cv "tc.compact_runs");
        "core.recompiles", float_of_int (gv "engine.compiles" - compiles0);
        "simcpu.codecache.holes_peak_bytes",
        float_of_int (gv "codecache.holes_peak_bytes");
        "simcpu.codecache.reclaimed_bytes",
        float_of_int (cv "codecache.reclaimed_bytes");
        "runtime.ledger.jit_cycles_per_req", weighted jit;
        "runtime.ledger.interp_cycles_per_req", weighted interp;
        "runtime.heap.allocs_per_req", per_req (gv "heap.allocated");
        "runtime.heap.live_end", float_of_int (gv "heap.live");
        "gc.minor_words_per_req", (words1 -. words0) /. float_of_int nm;
        "gc.major_collections", float_of_int (major1 - major0);
        "obs.span_coverage_pct",
        100.0 *. float_of_int covered /. float_of_int (t_m1 - t_load);
        "obs.spans_per_req", float_of_int !Tr.n /. float_of_int total ]
    end
  in
  { r_traced = traced;
    r_factor = f;
    r_raw_rps = float_of_int nm *. 1e9 /. float_of_int (t_m1 - t_m0);
    r_setup = secs t_load t_m0;
    r_measured = secs t_m0 t_m1;
    r_tts = secs t_load done_ns.(first_steady);
    r_rts = first_steady + 1;
    r_lat = Array.map (fun x -> float_of_int x *. f) lat;
    r_outputs = outputs;
    r_heap_live = gv "heap.live";
    r_cycles_per_req = Serving.weighted_cycles sp.sp_measured measured_cycles;
    r_cycles_p99 = Serving.percentile_exact sorted 99.0;
    r_code_bytes = Core.Engine.code_bytes eng;
    r_exec_instrs = gv "exec.instrs";
    r_compiles = gv "engine.compiles";
    r_evicted = cv "tc.evicted";
    r_layers = layers }

(** The figures that must repeat exactly across rounds of one seed. *)
let deterministic (r : round) : (string * string) list =
  [ "cycles_per_req", Printf.sprintf "%.17g" r.r_cycles_per_req;
    "cycles_p99", string_of_int r.r_cycles_p99;
    "code_bytes", string_of_int r.r_code_bytes;
    "requests_to_steady", string_of_int r.r_rts;
    "core.exec.instrs", string_of_int r.r_exec_instrs;
    "core.compiles", string_of_int r.r_compiles;
    "core.tc.evicted", string_of_int r.r_evicted ]

(* ------------------------------------------------------------------ *)
(* Output check                                                        *)
(* ------------------------------------------------------------------ *)

(** The same requests served by the other engine: Interp for the Region
    workloads, Region (retranslate-all at the profiling trigger) for
    interp_only.  Runs after the measured rounds. *)
let reference (sp : spec) : string array =
  let opts =
    pinned_opts
      { sp with
        sp_mode =
          (if sp.sp_mode = Core.Jit_options.Interp then Core.Jit_options.Region
           else Core.Jit_options.Interp);
        sp_budget = None; sp_threshold = 0; sp_compact = false }
  in
  let u = Vm.Loader.load Workloads.Endpoints.source in
  ignore (Hhbbc.Assert_insert.run u);
  ignore (Hhbbc.Bc_opt.run u);
  let eng = Core.Engine.install ~opts u in
  Array.mapi
    (fun k rq ->
       let out = serve_one eng u rq in
       if k + 1 = profiling_trigger then
         ignore (Core.Engine.retranslate_all eng);
       out)
    (Array.append sp.sp_warm sp.sp_measured)

let digest (outputs : string array) : string =
  let b = Buffer.create 65536 in
  Array.iter
    (fun s ->
       Buffer.add_string b (string_of_int (String.length s));
       Buffer.add_char b ':';
       Buffer.add_string b s)
    outputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* "<workload> <seed> <hex digest>" lines. *)
let expected_digest (path : string) ~(workload : string) ~(seed : int)
  : string option =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rec scan acc =
      match input_line ic with
      | line ->
        (match String.split_on_char ' ' (String.trim line) with
         | [ w; s; d ] when w = workload && s = string_of_int seed ->
           scan (Some d)
         | _ -> scan acc)
      | exception End_of_file -> acc
    in
    let r = scan None in
    close_in ic;
    r
  end

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let json_num (x : float) : string =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

let per_layer_unit (n : string) : string =
  let ends s = String.ends_with ~suffix:s n in
  if ends "_ms" || n = "hhbbc.ms" then "ms"
  else if ends "ns_per_instr" then "ns"
  else if ends "_ratio" then "ratio"
  else if ends "_bytes" then "B"
  else if ends "cycles_per_req" then "cycles"
  else if ends "minor_words_per_req" then "words"
  else if ends "_pct" then "%"
  else if ends "_per_req" then "count/req"
  else "count"

(* The last traced round's span log, written at the end of a traced run. *)
let spans_csv = "perfbench/spans.csv"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [ "--workload", Arg.Set_string workload, " one of the four workloads";
      "--seed", Arg.Set_int seed, " request-argument seed";
      "--seconds", Arg.Set_int seconds, " measuring time";
      "--trace", Arg.Set_int trace, " 1: per-layer run with spans" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  (match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
   | [] -> ()
   | set ->
     prerr_endline
       ("perfbench: refusing to run with engine overrides set: "
        ^ String.concat " " set);
     exit 2);
  let sp = spec_of !workload ~seed:!seed in
  let nm = Array.length sp.sp_measured in
  let traced_run = !trace = 1 in
  let min_rounds = if traced_run then 4 else 3 in
  let t_start = now_ns () in
  let rounds = ref [] and nrounds = ref 0 in
  (* round 1's outputs; later rounds are compared with them as they
     finish, keeping only the outputs that differ *)
  let first = ref [||] and agree = ref [||] and deviants = ref [] in
  let drift = ref [] in
  (* latency percentiles per group of consecutive rounds holding at least
     [group_min] measured requests, so p99 has twenty samples beyond it *)
  let group_min = 2000 in
  let group = ref [] and group_n = ref 0 and groups = ref [] in
  let close_group () =
    let lat = Array.concat !group in
    Array.sort compare lat;
    let pct p =
      let n = Array.length lat in
      let k = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
      lat.(min (n - 1) (max 0 (k - 1))) /. 1000.0
    in
    groups := (pct 50.0, pct 99.0, Array.length lat) :: !groups;
    group := [];
    group_n := 0
  in
  while
    !nrounds < min_rounds
    || (now_ns () - t_start < !seconds * 1_000_000_000 && !nrounds < 10_000)
  do
    let traced = traced_run && !nrounds mod 2 = 1 in
    let r = run_round sp ~traced in
    if !nrounds = 0 then begin
      first := r.r_outputs;
      agree := Array.make (Array.length r.r_outputs) 1
    end
    else begin
      Array.iteri
        (fun k o ->
           if o = !first.(k) then !agree.(k) <- !agree.(k) + 1
           else deviants := (k, o) :: !deviants)
        r.r_outputs;
      (match !rounds with
       | r0 :: _ when deterministic r0 <> deterministic r ->
         drift := !nrounds :: !drift
       | _ -> ())
    end;
    if not r.r_traced then begin
      group := r.r_lat :: !group;
      group_n := !group_n + Array.length r.r_lat;
      if !group_n >= group_min then close_group ()
    end;
    rounds := { r with r_outputs = [||]; r_lat = [||] } :: !rounds;
    incr nrounds
  done;
  let rounds = List.rev !rounds in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  if traced_run then Tr.write_csv spans_csv;
  (* ---- output check, outside every timed phase ---- *)
  let ref_out = reference sp in
  let bad k o = is_exn o || o <> ref_out.(k) in
  let failed = ref 0 in
  Array.iteri (fun k o -> if bad k o then failed := !failed + !agree.(k))
    !first;
  List.iter (fun (k, o) -> if bad k o then incr failed) !deviants;
  let leaks = List.length (List.filter (fun r -> r.r_heap_live <> 0) rounds) in
  failed := !failed + leaks;
  let attempted = !nrounds * Array.length !first in
  let got = digest !first in
  let want =
    expected_digest "perfbench/expected_digests.txt" ~workload:!workload
      ~seed:!seed
  in
  let digest_ok = match want with None -> true | Some d -> d = got in
  if not digest_ok then incr failed;
  let r0 = List.hd rounds in
  let det_ok = !drift = [] in
  (* traced rounds: the layer self-times must account for the round *)
  let min_coverage = 95.0 in
  let coverage =
    List.filter_map
      (fun r -> List.assoc_opt "obs.span_coverage_pct" r.r_layers) rounds
  in
  let coverage_ok = List.for_all (fun c -> c >= min_coverage) coverage in
  let correct = !failed = 0 && det_ok && coverage_ok in
  Printf.printf "perfbench workload=%s seed=%d trace=%d rounds=%d\n"
    !workload !seed !trace !nrounds;
  Printf.printf "config %s\n" (describe_opts (pinned_opts sp));
  if traced_run then
    Printf.printf "spans: last traced round's %d spans in %s\n" !Tr.n spans_csv;
  Printf.printf "output check: reference=%s attempted=%d failed=%d \
                 heap_leak_rounds=%d digest=%s (%s)\n"
    (if sp.sp_mode = Core.Jit_options.Interp then "region" else "interp")
    attempted !failed leaks got
    (match want with
     | None -> "no recorded digest for this seed"
     | Some _ when digest_ok -> "matches the recorded digest"
     | Some d -> "recorded " ^ d ^ ": MISMATCH");
  Printf.printf "determinism: %s (%s)\n"
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ v) (deterministic r0)))
    (if det_ok then "identical across rounds"
     else
       "DRIFT in rounds "
       ^ String.concat "," (List.rev_map string_of_int !drift));
  if not coverage_ok then
    Printf.printf "span coverage: BELOW %.0f%% in a traced round (%s)\n"
      min_coverage
      (String.concat " " (List.map (Printf.sprintf "%.2f") coverage));
  let med f rs = median (List.map f rs) in
  let rps (r : round) = float_of_int nm /. r.r_measured in
  Printf.printf "host speed: factor %.4f, raw req_per_s %.1f (medians over \
                 rounds; slice reference %d us)\n"
    (med (fun r -> r.r_factor) rounds) (med (fun r -> r.r_raw_rps) rounds)
    (Speed.ref_ns / 1000);
  let metrics =
    if not traced_run then begin
      if !groups = [] then close_group ();
      let groups = !groups in
      Printf.printf
        "latency: median over %d groups of %d+ requests (%d samples)\n"
        (List.length groups) group_min
        (List.fold_left (fun a (_, _, n) -> a + n) 0 groups);
      [ "setup_s", "s", med (fun r -> r.r_setup) rounds;
        "req_per_s", "1/s", med rps rounds;
        "latency_p50_us", "us", median (List.map (fun (p, _, _) -> p) groups);
        "latency_p99_us", "us", median (List.map (fun (_, p, _) -> p) groups);
        "cycles_per_req", "cycles", r0.r_cycles_per_req;
        "cycles_p99", "cycles", float_of_int r0.r_cycles_p99;
        "time_to_steady_s", "s", med (fun r -> r.r_tts) rounds;
        "requests_to_steady", "requests", float_of_int r0.r_rts;
        "heap_peak_mb", "MB", heap_peak_mb;
        "ok_frac", "ratio",
        float_of_int (attempted - !failed) /. float_of_int attempted ]
    end
    else begin
      let traced = List.filter (fun r -> r.r_traced) rounds in
      let plain = List.filter (fun r -> not r.r_traced) rounds in
      List.map
        (fun (name, _) ->
           (name, per_layer_unit name,
            med (fun r -> List.assoc name r.r_layers) traced))
        (List.hd traced).r_layers
      @ [ "obs.trace_overhead_pct", "%",
          100.0 *. (med rps plain /. med rps traced -. 1.0) ]
    end
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-38s %16.4f %s\n" name v unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
             Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
               (json_num v) unit)
          metrics));
  exit (if correct then 0 else 1)
