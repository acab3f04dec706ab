(** Vmstats: the VM-wide telemetry registry (HHVM's `vmstats` / perf
    counters, scaled to this substrate).

    Four primitive kinds, all O(1) on the hot path:
    - {b counters}: monotonically increasing event counts (cache hits,
      guard failures, side exits, ...);
    - {b gauges}: last-write-wins levels sampled at dump time (code-cache
      bytes, heap live objects, ...);
    - {b histograms}: log2-bucketed value distributions (translation sizes,
      chain lengths, ...);
    - {b timers}: accumulated wall-clock per named phase (HHIR pass times).

    Probes hold a handle (obtained once, at module init or install) and
    bump a mutable field through it — no hashing or allocation per event.
    Every mutation is gated on {!enabled} (the [Jit_options.stats] knob),
    so a stats-off run pays one branch per probe.  Names are dotted paths,
    [subsystem.event] (e.g. [dispatch.mono_hit], [pass.rce.seconds]); the
    registry dumps as stable-sorted text or JSON. *)

type counter = { c_name : string; mutable c_count : int }
type gauge = { g_name : string; mutable g_value : int }

type histogram = {
  h_name : string;
  h_buckets : int array;        (* bucket i counts values in [2^(i-1), 2^i) *)
  mutable h_count : int;
  mutable h_sum : int;
  (* largest value observed: log2 buckets cannot recover the exact max,
     and serving latency reports need the true tail *)
  mutable h_max : int;
}

type timer = {
  t_name : string;
  mutable t_seconds : float;
  mutable t_calls : int;
}

(** The global stats knob ([Jit_options.stats]); set at engine install. *)
let enabled = ref true

let on () = !enabled

(* ------------------------------------------------------------------ *)
(* Shards (parallel compile)                                           *)
(* ------------------------------------------------------------------ *)

(** A shard is a private registry delta owned by one JIT worker domain.
    While parallel compilation runs, probes executed on a domain that has
    a shard installed accumulate into the shard instead of the shared
    records; the main domain merges every shard back after joining the
    workers, so parallel compile never drops or double-counts an event.

    The hot path stays cheap: [shards_active] is false except during a
    parallel compile burst, so steady-state probes on the main domain pay
    the same single-branch-per-probe they always did (plus one
    always-false flag test). *)
type shard = {
  sd_counters : (string, int ref) Hashtbl.t;
  sd_hist : (string, histogram) Hashtbl.t;
  sd_timers : (string, timer) Hashtbl.t;
}

(** True only while at least one [shards_begin]/[shards_end] window is
    open: gates the per-probe domain-local lookup so it is never paid in
    steady state.  The windows nest (a depth count, not a flag): a
    retranslate-all fired from inside a parallel-serving burst opens the
    compile window while the serving window is still open, and closing
    the inner window must not strip the serving workers of their shard
    routing. *)
let shards_active = ref false
let shards_depth = Atomic.make 0

let shard_key : shard option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let shard_create () : shard =
  { sd_counters = Hashtbl.create 32;
    sd_hist = Hashtbl.create 8;
    sd_timers = Hashtbl.create 8 }

(** Install (or clear) this domain's shard.  Worker domains install one
    before their first task; the main domain installs one too when it
    participates in the compile burst. *)
let shard_install (s : shard option) : unit = Domain.DLS.set shard_key s

(** This domain's currently installed shard (so a nested burst can save
    and restore the outer one when it runs inline on this domain). *)
let shard_current () : shard option = Domain.DLS.get shard_key

let shards_begin () =
  ignore (Atomic.fetch_and_add shards_depth 1);
  shards_active := true

let shards_end () =
  if Atomic.fetch_and_add shards_depth (-1) = 1 then shards_active := false

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let counters : (string, counter) Hashtbl.t = Hashtbl.create 128
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16
let timers : (string, timer) Hashtbl.t = Hashtbl.create 16

let counter (name : string) : counter =
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_count = 0 } in
    Hashtbl.replace counters name c;
    c

let gauge (name : string) : gauge =
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0 } in
    Hashtbl.replace gauges name g;
    g

let histogram (name : string) : histogram =
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = { h_name = name; h_buckets = Array.make 63 0;
              h_count = 0; h_sum = 0; h_max = 0 } in
    Hashtbl.replace histograms name h;
    h

let timer (name : string) : timer =
  match Hashtbl.find_opt timers name with
  | Some t -> t
  | None ->
    let t = { t_name = name; t_seconds = 0.0; t_calls = 0 } in
    Hashtbl.replace timers name t;
    t

(* ------------------------------------------------------------------ *)
(* Probes (hot path)                                                   *)
(* ------------------------------------------------------------------ *)

(* Shard-aware slow paths: only reached while a parallel compile burst is
   active.  A domain without a shard (the main domain before it joins the
   burst) still writes the shared record directly — workers are the only
   concurrent writers and they always carry shards. *)

let shard_counter (s : shard) (name : string) : int ref =
  match Hashtbl.find_opt s.sd_counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace s.sd_counters name r;
    r

let shard_histogram (s : shard) (name : string) : histogram =
  match Hashtbl.find_opt s.sd_hist name with
  | Some h -> h
  | None ->
    let h = { h_name = name; h_buckets = Array.make 63 0;
              h_count = 0; h_sum = 0; h_max = 0 } in
    Hashtbl.replace s.sd_hist name h;
    h

let shard_timer (s : shard) (name : string) : timer =
  match Hashtbl.find_opt s.sd_timers name with
  | Some t -> t
  | None ->
    let t = { t_name = name; t_seconds = 0.0; t_calls = 0 } in
    Hashtbl.replace s.sd_timers name t;
    t

let add_slow (c : counter) (n : int) =
  match Domain.DLS.get shard_key with
  | Some s ->
    let r = shard_counter s c.c_name in
    r := !r + n
  | None -> c.c_count <- c.c_count + n

let bump (c : counter) =
  if !enabled then
    if !shards_active then add_slow c 1 else c.c_count <- c.c_count + 1

let add (c : counter) (n : int) =
  if !enabled then
    if !shards_active then add_slow c n else c.c_count <- c.c_count + n

(* gauges are level samples taken at dump time on the main domain; they are
   never written from compile workers, so they need no shard path *)
let set (g : gauge) (v : int) = if !enabled then g.g_value <- v

(** High-water-mark write: keep the largest value ever set.  For levels
    whose peak matters more than the instantaneous sample — e.g. how
    fragmented the code cache got between compactions
    ([codecache.holes_peak_bytes]), where dump-time sampling would read 0
    right after a compaction closed every hole. *)
let set_max (g : gauge) (v : int) =
  if !enabled && v > g.g_value then g.g_value <- v

(** Index of the log2 bucket for [v]: 0 for v <= 0, else 1 + floor(log2 v). *)
let bucket_of (v : int) : int =
  if v <= 0 then 0
  else begin
    let b = ref 0 and v = ref v in
    while !v > 0 do incr b; v := !v lsr 1 done;
    min !b 62
  end

let observe_record (h : histogram) (v : int) =
  h.h_buckets.(bucket_of v) <- h.h_buckets.(bucket_of v) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v

(** Estimate the [p]-th percentile (p in [0,100]) from the log2 buckets:
    nearest-rank bucket walk, linear interpolation inside the bucket.
    The true maximum ([h_max]) caps the top bucket's upper edge, so tail
    estimates never exceed an observed value.  An estimator, not an exact
    order statistic — the raw samples are not retained. *)
let percentile (h : histogram) (p : float) : float =
  if h.h_count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
      min (max r 1) h.h_count
    in
    let res = ref 0.0 and cum = ref 0 and found = ref false in
    let i = ref 0 in
    while not !found && !i < Array.length h.h_buckets do
      let n = h.h_buckets.(!i) in
      if n > 0 && !cum + n >= rank then begin
        found := true;
        if !i = 0 then res := 0.0
        else begin
          let lo = float_of_int (1 lsl (!i - 1)) in
          let hi =
            min (float_of_int (1 lsl !i)) (float_of_int h.h_max +. 1.0)
          in
          let hi = if hi <= lo then lo +. 1.0 else hi in
          let frac = float_of_int (rank - !cum) /. float_of_int n in
          res := lo +. (frac *. (hi -. lo))
        end
      end else cum := !cum + n;
      incr i
    done;
    min !res (float_of_int h.h_max)
  end

let histogram_max (h : histogram) : int = h.h_max

let observe (h : histogram) (v : int) =
  if !enabled then
    if !shards_active then
      match Domain.DLS.get shard_key with
      | Some s -> observe_record (shard_histogram s h.h_name) v
      | None -> observe_record h v
    else observe_record h v

let record_seconds (t : timer) (dt : float) =
  if !enabled then begin
    let t =
      if !shards_active then
        match Domain.DLS.get shard_key with
        | Some s -> shard_timer s t.t_name
        | None -> t
      else t
    in
    t.t_seconds <- t.t_seconds +. dt;
    t.t_calls <- t.t_calls + 1
  end

(** Time [f], attributing its wall-clock to [t] (even if it raises). *)
let time (t : timer) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let t0 = Clock.now () in
    Fun.protect
      ~finally:(fun () -> record_seconds t (Clock.now () -. t0))
      f
  end

(** Merge one worker's shard into the shared registry.  Main domain only,
    after the worker has been joined; counter and histogram merges commute,
    so totals are exact for any worker count or schedule. *)
let shard_merge (s : shard) : unit =
  Hashtbl.iter
    (fun name r -> let c = counter name in c.c_count <- c.c_count + !r)
    s.sd_counters;
  Hashtbl.iter
    (fun name (sh : histogram) ->
       let h = histogram name in
       Array.iteri
         (fun i n -> h.h_buckets.(i) <- h.h_buckets.(i) + n)
         sh.h_buckets;
       h.h_count <- h.h_count + sh.h_count;
       h.h_sum <- h.h_sum + sh.h_sum;
       if sh.h_max > h.h_max then h.h_max <- sh.h_max)
    s.sd_hist;
  Hashtbl.iter
    (fun name (st : timer) ->
       let t = timer name in
       t.t_seconds <- t.t_seconds +. st.t_seconds;
       t.t_calls <- t.t_calls + st.t_calls)
    s.sd_timers

(* ------------------------------------------------------------------ *)
(* Reads (tests, dump)                                                 *)
(* ------------------------------------------------------------------ *)

let counter_value (name : string) : int =
  match Hashtbl.find_opt counters name with Some c -> c.c_count | None -> 0

let gauge_value (name : string) : int =
  match Hashtbl.find_opt gauges name with Some g -> g.g_value | None -> 0

let timer_seconds (name : string) : float =
  match Hashtbl.find_opt timers name with Some t -> t.t_seconds | None -> 0.0

let timer_calls (name : string) : int =
  match Hashtbl.find_opt timers name with Some t -> t.t_calls | None -> 0

(** Zero every registered value; handles stay valid (registrations are
    per-process, values are per-engine — Engine.install resets). *)
let reset_histogram (h : histogram) =
  Array.fill h.h_buckets 0 (Array.length h.h_buckets) 0;
  h.h_count <- 0;
  h.h_sum <- 0;
  h.h_max <- 0

let reset () =
  Hashtbl.iter (fun _ c -> c.c_count <- 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0) gauges;
  Hashtbl.iter (fun _ h -> reset_histogram h) histograms;
  Hashtbl.iter (fun _ t -> t.t_seconds <- 0.0; t.t_calls <- 0) timers

(* ------------------------------------------------------------------ *)
(* Dumps                                                               *)
(* ------------------------------------------------------------------ *)

let sorted_names (tbl : (string, 'a) Hashtbl.t) : string list =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

let json_escape (s : string) : string =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | c when Char.code c < 0x20 ->
         Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** The counter registry as a JSON object (stable key order).  The shape is
    {v {"counters":{..},"gauges":{..},"histograms":{..},"timers":{..}} v};
    histogram buckets are emitted sparsely as ["log2_buckets": {"<i>": n}]
    where bucket [i] covers values in [2^(i-1), 2^i).  [~with_timers:false]
    leaves out the timers section, the only one holding host time. *)
let to_json ?(indent = "") ?(with_timers = true) () : string =
  let buf = Buffer.create 4096 in
  let pad = indent and pad2 = indent ^ "  " and pad3 = indent ^ "    " in
  let obj name emit_entries last =
    Buffer.add_string buf
      (Printf.sprintf "%s\"%s\": {\n" pad2 name);
    emit_entries ();
    Buffer.add_string buf (Printf.sprintf "\n%s}%s\n" pad2 (if last then "" else ","))
  in
  let entries names emit_one =
    let first = ref true in
    List.iter
      (fun n ->
         if not !first then Buffer.add_string buf ",\n";
         first := false;
         emit_one n)
      names
  in
  Buffer.add_string buf (Printf.sprintf "%s{\n" pad);
  obj "counters"
    (fun () ->
       entries (sorted_names counters)
         (fun n ->
            Buffer.add_string buf
              (Printf.sprintf "%s\"%s\": %d" pad3 (json_escape n)
                 (counter_value n))))
    false;
  obj "gauges"
    (fun () ->
       entries (sorted_names gauges)
         (fun n ->
            Buffer.add_string buf
              (Printf.sprintf "%s\"%s\": %d" pad3 (json_escape n)
                 (gauge_value n))))
    false;
  obj "histograms"
    (fun () ->
       entries (sorted_names histograms)
         (fun n ->
            let h = histogram n in
            let bl = ref [] in
            Array.iteri
              (fun i c -> if c > 0 then bl := Printf.sprintf "\"%d\": %d" i c :: !bl)
              h.h_buckets;
            Buffer.add_string buf
              (Printf.sprintf
                 "%s\"%s\": { \"count\": %d, \"sum\": %d, \"max\": %d, \
                  \"log2_buckets\": {%s} }"
                 pad3 (json_escape n) h.h_count h.h_sum h.h_max
                 (String.concat ", " (List.rev !bl)))))
    (not with_timers);
  if with_timers then
    obj "timers"
      (fun () ->
         entries (sorted_names timers)
           (fun n ->
              let t = timer n in
              Buffer.add_string buf
                (Printf.sprintf
                   "%s\"%s\": { \"seconds\": %.6f, \"calls\": %d }"
                   pad3 (json_escape n) t.t_seconds t.t_calls)))
      true;
  Buffer.add_string buf (Printf.sprintf "%s}" pad);
  Buffer.contents buf

(** Human-readable registry dump (zero-valued counters are elided). *)
let dump_text () : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "--- vmstats ---\n";
  List.iter
    (fun n ->
       let v = counter_value n in
       if v <> 0 then Buffer.add_string buf (Printf.sprintf "%-40s %12d\n" n v))
    (sorted_names counters);
  List.iter
    (fun n ->
       Buffer.add_string buf
         (Printf.sprintf "%-40s %12d  (gauge)\n" n (gauge_value n)))
    (sorted_names gauges);
  List.iter
    (fun n ->
       let h = histogram n in
       if h.h_count > 0 then begin
         Buffer.add_string buf
           (Printf.sprintf "%-40s %12d  (hist; sum %d, avg %.1f)\n" n h.h_count
              h.h_sum (float_of_int h.h_sum /. float_of_int h.h_count));
         Array.iteri
           (fun i c ->
              if c > 0 then
                Buffer.add_string buf
                  (Printf.sprintf "  %-38s %12d  [%d, %d)\n" "" c
                     (if i = 0 then 0 else 1 lsl (i - 1)) (1 lsl i)))
           h.h_buckets
       end)
    (sorted_names histograms);
  List.iter
    (fun n ->
       let t = timer n in
       if t.t_calls > 0 then
         Buffer.add_string buf
           (Printf.sprintf "%-40s %12.6f s (%d calls)\n" n t.t_seconds t.t_calls))
    (sorted_names timers);
  Buffer.contents buf
