(** Time-series gauge snapshots: an optional JSONL stream of key levels
    sampled every N completed requests during a serving burst (lease
    state, code-cache bytes, epoch sequence and generation).

    This is the feed the code-cache-lifecycle work consumes: where
    vmstats gives burst totals and spans give per-request timelines,
    snapshots show how the system's levels {e evolve} through a burst —
    the lease taken and released, the epoch sequence advancing as
    deltas publish, the TC growing as lazy compiles land.

    Off unless configured ([--snapshot-out FILE --snapshot-interval N]).
    Emission is mutex-guarded: any serving domain may cross an interval
    boundary.  In a parallel burst the sample a given boundary sees is
    schedule-dependent (levels are read live); under [Serving.measure]'s
    single-domain protocol the stream is deterministic. *)

let sink : out_channel option ref = ref None
let interval = ref 0
let mutex = Mutex.create ()

let close () =
  (match !sink with Some oc -> close_out oc | None -> ());
  sink := None

(** Resolve the snapshot configuration (engine install): [path = None]
    or [every <= 0] disables the stream. *)
let configure ?path ~(every : int) () : unit =
  close ();
  interval := every;
  match path with
  | Some p when every > 0 -> sink := Some (open_out p)
  | _ -> ()

let on () = !sink <> None && !interval > 0

(** Should a sample fire after the [done_]-th completed request? *)
let due (done_ : int) : bool =
  on () && done_ mod !interval = 0

(** Emit one snapshot line: integer fields only, key order as given. *)
let emit (fields : (string * int) list) : unit =
  match !sink with
  | None -> ()
  | Some oc ->
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex)
      (fun () ->
         let buf = Buffer.create 128 in
         Buffer.add_char buf '{';
         List.iteri
           (fun i (k, v) ->
              if i > 0 then Buffer.add_string buf ", ";
              Buffer.add_string buf (Printf.sprintf "\"%s\": %d" k v))
           fields;
         Buffer.add_string buf "}\n";
         output_string oc (Buffer.contents buf);
         flush oc)
