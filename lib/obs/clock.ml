(** The host clock behind every wall-time measurement in the VM: timers,
    retranslate-all stall accounting, serving burst wall time.  Reads the
    monotonic clock, so an NTP step or a manual clock change never makes
    an interval negative or inflates it; only differences are meaningful. *)

(** Seconds since an arbitrary fixed origin. *)
let now () : float = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
