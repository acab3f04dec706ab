(** JIT configuration: one knob per optimization the paper evaluates
    (Fig. 10) plus the execution-mode selector (Fig. 8) and the code-size
    budget (Fig. 11).

    The record is the engine's only configuration input: callers (the CLI
    flags, the bench and test drivers) set fields on {!default} and hand
    the record to [Engine.install].  Nothing in the engine reads the
    environment. *)

type mode =
  | Interp        (** bytecode interpreter only *)
  | Tracelet      (** gen-1: live (tracelet) translations only *)
  | ProfileOnly   (** profiling translations, never optimized (§6.1) *)
  | Region        (** gen-2: profile -> retranslate-all -> optimized *)

type t = {
  mutable mode : mode;
  (* HHIR optimizations (Fig. 10) *)
  mutable inlining : bool;
  mutable rce : bool;
  mutable guard_relax : bool;
  mutable method_dispatch : bool;     (* profile-guided dispatch *)
  (* separate from [method_dispatch]: "All PGO" turns that one off and
     leaves inline caches on *)
  mutable inline_cache : bool;
  (* Vasm / whole-program *)
  (* profile-guided block layout + hot/cold split, and C3 function
     sorting (§5.1.1) *)
  mutable pgo_layout : bool;
  mutable huge_pages : bool;          (* §5.1.2 *)
  (* observability (lib/obs): the vmstats probe knob and the trace-event
     configuration.  [stats] gates every Vmstats probe in the engine,
     interpreter, region former, HHIR pipeline and SimCPU (default on; the
     overhead is benchmarked, see EXPERIMENTS.md).  [trace] is a trace
     category spec ("translate,link", "all", ...; None = off) and
     [trace_out] an optional JSONL sink path; both take effect at engine
     install. *)
  mutable stats : bool;
  mutable trace : string option;
  mutable trace_out : string option;
  (* request-level spans + cycle-attribution profiler ([--spans]; default
     off).  Gates Obs.Span and Obs.Profiler recording during serving
     bursts; [Serving.measure] forces both on for the deterministic
     measured burst regardless of this knob. *)
  mutable spans : bool;
  (* time-series gauge snapshots during serving bursts: JSONL sink path
     and sample interval in completed requests ([--snapshot-out] /
     [--snapshot-interval]; interval 0 = off). *)
  mutable snapshot_out : string option;
  mutable snapshot_interval : int;
  (* policy *)
  mutable code_budget : int option;   (* bytes; None = unlimited *)
  mutable max_live_per_srckey : int;  (* retranslation-chain length limit *)
  mutable nregs : int;
  mutable max_region_instrs : int;
  mutable max_inline_instrs : int;    (* partial-inlining budget *)
  (* retranslate-all compile parallelism: number of domains running the
     region -> HHIR -> vasm compile phase ([--jit-workers N]; 1 =
     serial).  The publish phase is always serial and deterministic, so
     output is identical for any value. *)
  mutable jit_workers : int;
  (* request-serving parallelism: number of domains the request scheduler
     (Server.Serving) fans endpoint requests across ([--request-workers N];
     1 = serve on the calling domain).  Per-request outputs and the
     aggregate output hash are identical for any value. *)
  mutable request_workers : int;
  (* ignored: every dispatch miss translates lazily through the write
     lease.  Kept because the repo benchmark's pinned configuration sets
     it. *)
  mutable lazy_translate : bool;
  (* code-cache lifecycle ([--tc-evict-threshold N], [--tc-compact]): a
     lifecycle tick decays every optimized translation's liveness score
     (halve, then add execs since the last tick) and evicts those whose
     score fell below the threshold — links unpatched, srckey chains
     pruned, published as an epoch delta.  0 disables eviction.
     [tc_compact] makes each tick that evicted something also compact
     the Main/Cold sections: survivors are relocated to close the holes,
     restoring i-cache/I-TLB density and returning the hole bytes to the
     code budget. *)
  mutable tc_evict_threshold : int;
  mutable tc_compact : bool;
  (* ignored: the interpreter has a single dispatch loop.  Kept because
     the repo benchmark's pinned configuration sets it. *)
  mutable interp_threaded : bool option;
}

let default () : t = {
  mode = Region;
  inlining = true;
  rce = true;
  guard_relax = true;
  method_dispatch = true;
  inline_cache = true;
  pgo_layout = true;
  huge_pages = true;
  stats = true;
  trace = None;
  trace_out = None;
  spans = false;
  snapshot_out = None;
  snapshot_interval = 0;
  code_budget = None;
  max_live_per_srckey = 4;
  nregs = 12;
  max_region_instrs = 200;
  max_inline_instrs = 40;
  jit_workers = 1;
  request_workers = 1;
  lazy_translate = true;
  tc_evict_threshold = 0;
  tc_compact = false;
  interp_threaded = None;
}

(** Disable every profile-guided optimization except region formation and
    partial inlining — the paper's "All PGO" experiment (§6.3). *)
let disable_all_pgo (t : t) =
  t.guard_relax <- false;
  t.method_dispatch <- false;
  t.pgo_layout <- false

let lower_options (t : t) : Hhir.Lower.options =
  { Hhir.Lower.o_inline = t.inlining;
    o_method_dispatch = t.method_dispatch;
    o_inline_cache = t.inline_cache;
    o_max_inline_instrs = t.max_inline_instrs;
    o_rce = t.rce;
    o_relax = t.guard_relax }
