(** Profile-guided region formation (paper §5.2.1): stitches the profiling
    basic-block regions of a function into optimized-compilation regions,
    following observed TransCFG arcs, with no weight-based pruning (found
    unprofitable in the paper) and retranslation-sibling chaining. *)

val default_max_region_instrs : int

(** All regions covering a function's profiled blocks: DFS from the
    uncovered block with the lowest bytecode address (the entry first),
    bounded by [max_instrs]; repeats until every block is covered.

    Reads the TransCFG registry and the canonical profile
    ([Vm.Prof.main_ctx]).  Only the write-lease holder, or a domain
    running alone, writes those; serving workers write private profile
    contexts, folded in by [Vm.Prof.merge_pending] under the lease.
    Retranslate-all holds the lease for its whole run, so its JIT worker
    domains form regions in parallel over a profile that cannot change
    under them, while the domain that fired it only joins. *)
val form_func_regions : ?max_instrs:int -> int -> Rdesc.t list

(** Single-block region (live and profiling translations, Fig. 5). *)
val single : Rdesc.block -> Rdesc.t
