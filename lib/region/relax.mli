(** Guard relaxation (paper §5.2.2) — one of the paper's two novel
    optimizations.

    For each guarded location, combines the type constraint (Table 1: how
    much the code actually needs to know) with the profiled type
    distribution across retranslation siblings, and widens or drops guards
    when profitable.  Siblings whose relaxed preconditions coincide are
    subsumed; postconditions are widened consistently so successor guard
    elision stays sound. *)

(** Counters are atomic: the pass runs concurrently on JIT worker domains
    during parallel retranslate-all. *)
type stats = {
  relaxed_to_uncounted : int Atomic.t;
  relaxed_to_generic : int Atomic.t;
  dropped_generic : int Atomic.t;
  kept : int Atomic.t;
  blocks_subsumed : int Atomic.t;
}

val stats : stats
val reset_stats : unit -> unit

(** Counted-type share above which a Countness-family guard drops to
    generic refcounting primitives (the paper's 80% example). *)
val generic_threshold : float

(** Relax a region.  The input region's blocks and guards are not mutated
    (profiling blocks are shared with the TransCFG registry).  Sibling
    weights are read from the canonical profile counters, which only the
    write-lease holder (or a domain running alone) writes, so JIT worker
    domains may run this during retranslate-all, which holds the lease
    for its whole run. *)
val run : Rdesc.t -> Rdesc.t
