(** The TransCFG (paper §5.2.1): the control-flow graph over the basic-block
    regions created for a function's profiling translations.

    Nodes are profiling blocks (several blocks can share a bytecode address,
    one per observed input-type combination — retranslation siblings).
    Block weights come from the profile counters inserted after each
    block's guards; arc weights are recorded as profiling translations
    transfer control to one another. *)

(* registry of profiling blocks, per function *)
let blocks_by_func : (int, Rdesc.block list ref) Hashtbl.t = Hashtbl.create 64

(* all registered blocks by id *)
let blocks_by_id : (int, Rdesc.block) Hashtbl.t = Hashtbl.create 256

(* observed control transfers between profiling blocks, weighted, in
   [Vm.Prof]: the arc table shards per domain with the rest of the
   profile.  The key is a single packed int (src in the high bits) —
   hashing an immediate int, not a tuple. *)
let arc_key ~(src : int) ~(dst : int) : int = (src lsl 31) lor dst
let arc_unkey (k : int) : int * int = (k lsr 31, k land 0x7FFF_FFFF)

let c_arc_events = Obs.Vmstats.counter "region.arc_events"
let c_blocks_registered = Obs.Vmstats.counter "region.blocks_registered"

(* structural version: bumped when the set of registered blocks changes
   (not on weight bumps).  Lets retranslate-all cache derived structures
   (C3 size tables, method-edge lists) across repeated invocations. *)
let version_ = ref 0
let version () = !version_

let reset () =
  Hashtbl.reset blocks_by_func;
  Hashtbl.reset blocks_by_id;
  Vm.Prof.clear_arcs Vm.Prof.main_ctx;
  incr version_

let register_block (b : Rdesc.block) =
  Obs.Vmstats.bump c_blocks_registered;
  incr version_;
  Hashtbl.replace blocks_by_id b.b_id b;
  let lst =
    match Hashtbl.find_opt blocks_by_func b.b_func with
    | Some l -> l
    | None ->
      let l = ref [] in
      Hashtbl.replace blocks_by_func b.b_func l;
      l
  in
  lst := b :: !lst

(** Record one control transfer into the calling domain's profile. *)
let record_arc ~(src : int) ~(dst : int) =
  Obs.Vmstats.bump c_arc_events;
  Vm.Prof.record_arc (arc_key ~src ~dst)

(** Drop one function's profiling blocks (and every arc touching them)
    from the registry.  Called when the TC lifecycle evicts all of a cold
    function's optimized translations: the profile describes a traffic
    phase that has passed, and keeping it would make the next
    retranslate-all resurrect exactly the code that was just evicted.  A
    later re-profile of the function starts clean. *)
let prune_func (fid : int) : unit =
  match Hashtbl.find_opt blocks_by_func fid with
  | None -> ()
  | Some lst ->
    let ids = Hashtbl.create 16 in
    List.iter
      (fun (b : Rdesc.block) ->
         Hashtbl.replace ids b.b_id ();
         Hashtbl.remove blocks_by_id b.b_id)
      !lst;
    Hashtbl.remove blocks_by_func fid;
    Vm.Prof.filter_arcs (fun k ->
        let s, d = arc_unkey k in
        not (Hashtbl.mem ids s || Hashtbl.mem ids d));
    incr version_

(* --- serialization (jumpstart, paper §6.2) --- *)

(** A self-contained copy of the registry: blocks in registration order
    (block ids are allocated at selection time and registration follows
    immediately, so ascending id order {e is} registration order — the
    order [build] reconstructs for region formation), plus the arc table
    as (packed key, weight) pairs.  [Rdesc.block] is plain data, so the
    export is Marshal-safe. *)
type export = {
  ex_blocks : Rdesc.block array;       (* ascending b_id *)
  ex_arcs : (int * int) array;         (* packed arc key, weight *)
}

let export () : export =
  let blocks =
    Hashtbl.fold (fun _ b acc -> b :: acc) blocks_by_id []
    |> List.sort (fun (a : Rdesc.block) b -> compare a.b_id b.b_id)
    |> Array.of_list
  in
  let ex_arcs =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) Vm.Prof.main_ctx.px_arcs []
    |> List.sort compare
    |> Array.of_list
  in
  { ex_blocks = blocks; ex_arcs }

(** Rebuild the registry from a deserialized export (fresh-process
    jumpstart, after the installing [reset]).  Registration order is
    replayed block by block so [build]'s node order — and therefore
    region formation — matches the dumping process exactly. *)
let import (e : export) : unit =
  reset ();
  Array.iter
    (fun (b : Rdesc.block) ->
       Hashtbl.replace blocks_by_id b.b_id b;
       let lst =
         match Hashtbl.find_opt blocks_by_func b.b_func with
         | Some l -> l
         | None ->
           let l = ref [] in
           Hashtbl.replace blocks_by_func b.b_func l;
           l
       in
       lst := b :: !lst)
    e.ex_blocks;
  Array.iter (fun (k, w) -> Hashtbl.replace Vm.Prof.main_ctx.px_arcs k (ref w))
    e.ex_arcs;
  incr version_

let block (id : int) : Rdesc.block = Hashtbl.find blocks_by_id id

let block_weight (b : Rdesc.block) : int =
  match b.b_counter with
  | Some c -> Vm.Prof.read_counter c
  | None -> 0

type t = {
  nodes : Rdesc.block list;            (* this function's profiling blocks *)
  t_arcs : ((int * int) * int) list;   (* (src, dst), weight *)
}

let build (func_id : int) : t =
  let nodes =
    match Hashtbl.find_opt blocks_by_func func_id with
    | Some l -> List.rev !l
    | None -> []
  in
  let ids = List.fold_left (fun s b -> Hashtbl.replace s b.Rdesc.b_id (); s)
      (Hashtbl.create 16) nodes in
  let t_arcs =
    Hashtbl.fold
      (fun k w acc ->
         let s, d = arc_unkey k in
         if Hashtbl.mem ids s && Hashtbl.mem ids d then ((s, d), !w) :: acc
         else acc)
      Vm.Prof.main_ctx.px_arcs []
  in
  { nodes; t_arcs }

let succs (cfg : t) (id : int) : (int * int) list =
  List.filter_map (fun ((s, d), w) -> if s = id then Some (d, w) else None)
    cfg.t_arcs
