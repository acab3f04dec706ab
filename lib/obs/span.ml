(** Request-level spans: a per-request timeline of serving phases.

    HHVM's production observability answers "where did this request's
    time go?" — epoch/treadmill waits, JIT dispatch, interpreter
    fallback, write-lease compiles.  This module is that layer
    for the simulated substrate: while a serving burst runs, every
    request carries one {!span} recording per-phase simulated cycles and
    event counts; each domain buffers the spans it served in
    domain-local storage and the scheduler collects them at the join,
    merging in request-slot order so the merged log has one canonical
    order for any worker count and any schedule.

    Cost model: phases are charged from ledger deltas taken at request
    boundaries (no per-instruction work), plus O(1) counter bumps at the
    cold dispatch edges (epoch adoption, translation miss, lease wait), all
    behind the {!enabled} flag — off by default ([--spans]).

    Phase semantics (cycles are attributions, not a disjoint partition:
    lease-wait compile cycles are JIT cycles too, and are documented as
    such wherever both are shown):
    - [Adopt]: epoch adoptions at request begin (count; adoption itself
      charges no simulated cycles).
    - [Jit]: cycles charged to compiled-code execution (ledger [a_jit]
      delta: translation execution, guards, compiles charged to this
      request's domain).
    - [Interp]: interpreter cycles (ledger [a_interp] delta), plus a
      count of frozen-dispatch interpreter fallbacks.
    - [Miss]: translation misses that try the write lease (count); its
      key stays [miss_enqueue], so the serving-report format is stable.
    - [LeaseWait]: cycles spent holding the write lease compiling the
      missed srckey inline (the lease-winner's compile stall).
    - [RetransPause]: cycles the request spent running a retranslate-all
      it triggered (the pause a mid-burst reoptimization exposes to the
      unlucky request). *)

type phase = Adopt | Jit | Interp | Miss | LeaseWait | RetransPause

let nphases = 6

let phase_index = function
  | Adopt -> 0 | Jit -> 1 | Interp -> 2
  | Miss -> 3 | LeaseWait -> 4 | RetransPause -> 5

let phase_name = function
  | Adopt -> "epoch_adopt"
  | Jit -> "jit_dispatch"
  | Interp -> "interp_fallback"
  | Miss -> "miss_enqueue"
  | LeaseWait -> "lease_wait"
  | RetransPause -> "retranslate_pause"

let phases = [ Adopt; Jit; Interp; Miss; LeaseWait; RetransPause ]

type span = {
  sp_slot : int;                (** request slot: the canonical merge key *)
  sp_label : string;            (** endpoint name *)
  mutable sp_total : int;       (** total simulated cycles for the request *)
  sp_cycles : int array;        (** per-phase cycles, indexed by phase_index *)
  sp_counts : int array;        (** per-phase event counts *)
}

(** The global spans knob ([Jit_options.spans]); set at engine install. *)
let enabled = ref false

let on () = !enabled

(* Per-domain recording state: the span being recorded (between
   begin_request and end_request) plus the finished spans this domain
   served, newest first.  Probes fired outside a request (e.g. warmup
   dispatch on the main domain) find no open span and drop. *)
type dstate = {
  mutable cur : span option;
  mutable finished : span list;
}

let key : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cur = None; finished = [] })

let begin_request ~(slot : int) ~(label : string) : unit =
  let st = Domain.DLS.get key in
  st.cur <-
    Some { sp_slot = slot; sp_label = label; sp_total = 0;
           sp_cycles = Array.make nphases 0;
           sp_counts = Array.make nphases 0 }

(** Count one phase event on the open span (no cycle attribution). *)
let count (ph : phase) : unit =
  match (Domain.DLS.get key).cur with
  | None -> ()
  | Some sp ->
    let i = phase_index ph in
    sp.sp_counts.(i) <- sp.sp_counts.(i) + 1

(** Attribute [cycles] (and one event) to a phase of the open span. *)
let add (ph : phase) (cycles : int) : unit =
  match (Domain.DLS.get key).cur with
  | None -> ()
  | Some sp ->
    let i = phase_index ph in
    sp.sp_counts.(i) <- sp.sp_counts.(i) + 1;
    sp.sp_cycles.(i) <- sp.sp_cycles.(i) + cycles

let end_request ~(total : int) : unit =
  let st = Domain.DLS.get key in
  match st.cur with
  | None -> ()
  | Some sp ->
    sp.sp_total <- total;
    st.finished <- sp :: st.finished;
    st.cur <- None

(** Drain this domain's finished spans (service order). *)
let take () : span list =
  let st = Domain.DLS.get key in
  let l = List.rev st.finished in
  st.finished <- [];
  st.cur <- None;
  l

let reset_local () = ignore (take ())

(** Merge per-domain span lists into the canonical burst log: sorted by
    request slot, which is schedule- and worker-count-independent (each
    slot is served exactly once). *)
let merge (per_domain : span list list) : span array =
  let all = Array.of_list (List.concat per_domain) in
  Array.sort (fun a b -> compare a.sp_slot b.sp_slot) all;
  all
