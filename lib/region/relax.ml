(** Guard relaxation (paper §5.2.2) — one of the paper's two novel
    optimizations.

    Over-specialized guards cause both guard failures and translation
    explosion.  For each guarded location, this pass combines the type
    constraint (how much the code actually needs to know, Table 1) with the
    profiled type distribution (the weights of the retranslation siblings
    guarding different types) and widens the guard when profitable:

    - [Generic] constraint: the check is dropped entirely.
    - [Countness]-family constraints: if every observed type is uncounted,
      the guard widens to [Uncounted] (one translation covers int, double,
      bool, ..., at marginal cost); if counted types dominate (>= the
      [generic_threshold] fraction), the guard drops to generic and the code
      uses generic refcounting primitives; otherwise specific guards stay.
    - [Specific] / [Specialized]: kept (static/counted strings merge).

    After relaxation, retranslation chains are re-deduplicated: blocks whose
    relaxed preconditions became identical to a heavier sibling's are
    subsumed and removed. *)

open Rdesc
module R = Hhbc.Rtype

let generic_threshold = 0.8

(* relaxation statistics are bumped from JIT worker domains during the
   parallel retranslate-all compile phase: atomic counters keep the totals
   exact under any schedule (increments commute) *)
type stats = {
  relaxed_to_uncounted : int Atomic.t;
  relaxed_to_generic : int Atomic.t;
  dropped_generic : int Atomic.t;
  kept : int Atomic.t;
  blocks_subsumed : int Atomic.t;
}

let stats = { relaxed_to_uncounted = Atomic.make 0;
              relaxed_to_generic = Atomic.make 0;
              dropped_generic = Atomic.make 0;
              kept = Atomic.make 0;
              blocks_subsumed = Atomic.make 0 }

let reset_stats () =
  Atomic.set stats.relaxed_to_uncounted 0;
  Atomic.set stats.relaxed_to_generic 0;
  Atomic.set stats.dropped_generic 0;
  Atomic.set stats.kept 0;
  Atomic.set stats.blocks_subsumed 0

(** The widened type used when only countness matters and every observed
    type was uncounted.  Initialized-ness is preserved per constraint. *)
let uncounted_for (c : type_constraint) =
  match c with
  | BoxAndCountnessInit -> R.uncounted_init
  | _ -> R.uncounted

let relax_guard ~(dist : (R.t * int) list) (g : guard) : [ `Keep | `Drop ] =
  match g.g_constraint with
  | Generic ->
    Atomic.incr stats.dropped_generic;
    `Drop
  | Countness | BoxAndCountness | BoxAndCountnessInit ->
    let total = List.fold_left (fun a (_, w) -> a + w) 0 dist in
    let counted_w =
      List.fold_left
        (fun a (t, w) -> if R.maybe_counted t then a + w else a)
        0 dist
    in
    let all_uncounted =
      dist <> [] && List.for_all (fun (t, _) -> R.not_counted t) dist
    in
    if all_uncounted || (dist = [] && R.not_counted g.g_type) then begin
      Atomic.incr stats.relaxed_to_uncounted;
      g.g_type <- uncounted_for g.g_constraint;
      `Keep
    end
    else if total > 0 && float_of_int counted_w >= generic_threshold *. float_of_int total
    then begin
      (* mostly counted: trade a generic rc primitive for fewer translations *)
      Atomic.incr stats.relaxed_to_generic;
      `Drop
    end
    else begin
      Atomic.incr stats.kept;
      `Keep
    end
  | Specific ->
    (* merge the static/counted string split: codegen never needs it for
       Specific uses *)
    if R.subtype g.g_type R.str && not (R.equal g.g_type R.str) then
      g.g_type <- R.str;
    Atomic.incr stats.kept;
    `Keep
  | Specialized ->
    Atomic.incr stats.kept;
    `Keep

(** Observed distribution for a location across retranslation siblings:
    each sibling guards the type it was specialized for, weighted by its
    profile count. *)
let distribution (siblings : block list)
    (l : loc) : (R.t * int) list =
  List.filter_map
    (fun b ->
       List.find_opt (fun g -> g.g_loc = l) b.b_preconds
       |> Option.map (fun g -> (g.g_type, max 1 (Transcfg.block_weight b))))
    siblings

let guards_equal (a : guard list) (b : guard list) =
  List.length a = List.length b
  && List.for_all2
       (fun x y -> x.g_loc = y.g_loc && R.equal x.g_type y.g_type)
       (List.sort compare a |> List.map (fun g -> g))
       (List.sort compare b |> List.map (fun g -> g))

(** Relax a region in place; returns the updated region (blocks whose
    preconditions became duplicates of a heavier chain sibling removed). *)
let run (r : Rdesc.t) : Rdesc.t =
  (* group retranslation siblings by (func, start) *)
  let groups = Hashtbl.create 8 in
  List.iter
    (fun b ->
       let key = (b.b_func, b.b_start) in
       Hashtbl.replace groups key
         (b :: Option.value (Hashtbl.find_opt groups key) ~default:[]))
    r.r_blocks;
  (* relax each block's guards using its sibling distribution.  Guards are
     copied first: the guard records are shared with the profiling blocks
     registered in the TransCFG, which later region formations (and inlined
     callee regions) must see unrelaxed. *)
  let relaxed_blocks =
    List.map
      (fun b ->
         let siblings = Hashtbl.find groups (b.b_func, b.b_start) in
         let dropped = ref [] and widened = ref [] in
         let kept =
           List.filter_map
             (fun (g : guard) ->
                let g' = { g_loc = g.g_loc; g_type = g.g_type;
                           g_constraint = g.g_constraint } in
                match relax_guard ~dist:(distribution siblings g.g_loc) g' with
                | `Keep ->
                  if not (R.equal g'.g_type g.g_type) then
                    widened := (g'.g_loc, g'.g_type) :: !widened;
                  Some g'
                | `Drop ->
                  dropped := g.g_loc :: !dropped;
                  None)
             b.b_preconds
         in
         (* a relaxed guard admits more types than the block was selected
            for, so postconditions derived from the old guard must widen
            too (joining is always sound; it only reduces guard elision in
            successors) *)
         let post =
           List.filter_map
             (fun (l, t) ->
                if List.mem l !dropped then None
                else
                  match List.assoc_opt l !widened with
                  | Some gt -> Some (l, R.join t gt)
                  | None -> Some (l, t))
             b.b_postconds
         in
         { b with b_preconds = kept; b_postconds = post })
      r.r_blocks
  in
  (* subsume duplicate siblings (same start, same relaxed preconditions) *)
  let removed = Hashtbl.create 8 in
  let remap = Hashtbl.create 8 in
  let seen : ((int * int) * block) list ref = ref [] in
  let survivors =
    List.filter
      (fun b ->
         let key = (b.b_func, b.b_start) in
         match
           List.find_opt
             (fun (k, prev) -> k = key && guards_equal prev.b_preconds b.b_preconds)
             !seen
         with
         | Some (_, prev) ->
           Hashtbl.replace removed b.b_id ();
           Hashtbl.replace remap b.b_id prev.b_id;
           Atomic.incr stats.blocks_subsumed;
           false
         | None ->
           seen := (key, b) :: !seen;
           true)
      relaxed_blocks
  in
  let rmap id = Option.value (Hashtbl.find_opt remap id) ~default:id in
  (* a surviving block now stands for its subsumed siblings' paths too:
     merge postconditions (join common locations, drop the rest) *)
  let merged_post = Hashtbl.create 8 in
  Hashtbl.iter
    (fun removed_id survivor_id ->
       let rb = List.find (fun b -> b.b_id = removed_id) relaxed_blocks in
       let cur =
         match Hashtbl.find_opt merged_post survivor_id with
         | Some p -> p
         | None -> (List.find (fun b -> b.b_id = survivor_id) survivors).b_postconds
       in
       let joined =
         List.filter_map
           (fun (l, t) ->
              Option.map (fun t2 -> (l, R.join t t2))
                (List.assoc_opt l rb.b_postconds))
           cur
       in
       Hashtbl.replace merged_post survivor_id joined)
    remap;
  let survivors =
    List.map
      (fun b ->
         match Hashtbl.find_opt merged_post b.b_id with
         | Some p -> { b with b_postconds = p }
         | None -> b)
      survivors
  in
  (* self arcs are real loop backedges (including those created by merging
     retranslation siblings) and must be preserved: they make loop headers
     emit their guards inline and widen incoming type knowledge *)
  let arcs =
    List.map (fun (s, d) -> (rmap s, rmap d)) r.r_arcs
    |> List.sort_uniq compare
  in
  let chains =
    List.filter_map
      (fun (a, b) ->
         if Hashtbl.mem removed a then None
         else
           let b = rmap b in
           if a = b then None else Some (a, b))
      r.r_chain_next
  in
  { r_blocks = survivors; r_arcs = arcs; r_chain_next = chains }
