(** The write lease for lazy in-burst compilation (paper §4).

    HHVM request threads that miss in the translation cache acquire a
    global {e write lease} before translating: one thread compiles while
    the others keep executing, so the shared code cache has one writer
    and many readers.  This module is the concurrent-OCaml analogue: a
    domain that misses in its pinned epoch makes one {!try_acquire}; the
    winner compiles its own srckey and publishes, a loser interprets and
    retries at its next miss.  The lease serializes every publish, so the
    sequence of published epochs is total.  (Per-request outputs never
    depend on dispatch order at all — endpoints are pure — so the serving
    output hash is identical whether a request enters compiled code or
    interprets.) *)

let c_acquire = Obs.Vmstats.counter "lease.acquire"
let c_contended = Obs.Vmstats.counter "lease.contended"

let lease = Atomic.make false

(** One CAS attempt at the write lease; serving workers poll this on a
    miss and interpret when it fails. *)
let try_acquire () : bool =
  let won = Atomic.compare_and_set lease false true in
  if won then Obs.Vmstats.bump c_acquire else Obs.Vmstats.bump c_contended;
  won

(** Blocking acquire: retranslate-all must win the lease (it rewrites the
    tables the lease protects), waiting out at most one compile. *)
let acquire () =
  while not (Atomic.compare_and_set lease false true) do
    Domain.cpu_relax ()
  done;
  Obs.Vmstats.bump c_acquire

let release () = Atomic.set lease false

(** Is the write lease currently held? (snapshot gauge) *)
let held () : bool = Atomic.get lease
