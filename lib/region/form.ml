(** Profile-guided region formation (paper §5.2.1).

    For each function, regions are formed over the TransCFG: starting at the
    uncovered block with the lowest bytecode address (the function entry
    first), a DFS over the observed arcs adds blocks until the instruction
    budget is reached.  Per the paper's findings, no block or arc pruning by
    weight is performed — pruned paths just produce duplicate regions and
    lose merge points; hot/cold segregation happens later via hot/cold code
    splitting.  Finally, retranslation blocks (same start pc, different
    preconditions) are chained in decreasing profile-count order. *)

open Rdesc

let default_max_region_instrs = 200

(* region-formation telemetry (arc coverage = arcs kept inside regions
   vs. arcs observed on the TransCFG) *)
let c_formed = Obs.Vmstats.counter "region.formed"
let c_blocks = Obs.Vmstats.counter "region.blocks"
let c_arcs_covered = Obs.Vmstats.counter "region.arcs_covered"
let c_arcs_total = Obs.Vmstats.counter "region.arcs_total"
let h_instrs = Obs.Vmstats.histogram "region.instrs"

(* a block's profile count, read from the canonical profile *)
let weight = Transcfg.block_weight

(** Chain retranslation siblings: group the region's blocks by start pc,
    sort each group by descending weight, and link them. *)
let chain_retranslations (blocks : block list) :
  block list * (int * int) list =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun b ->
       let l = Option.value (Hashtbl.find_opt groups b.b_start) ~default:[] in
       Hashtbl.replace groups b.b_start (b :: l))
    blocks;
  let chain_next = ref [] in
  Hashtbl.iter
    (fun _start group ->
       let sorted =
         List.sort (fun a b -> compare (weight b) (weight a)) group
       in
       let rec link = function
         | a :: (b :: _ as rest) ->
           chain_next := (a.b_id, b.b_id) :: !chain_next;
           link rest
         | _ -> ()
       in
       link sorted)
    groups;
  (blocks, !chain_next)

(** Form all regions covering a function's profiled blocks, reading the
    live TransCFG registry and profile counters (form.mli states why JIT
    worker domains may do so). *)
let form_func_regions ?(max_instrs = default_max_region_instrs)
    (func_id : int) : Rdesc.t list =
  let cfg = Transcfg.build func_id in
  if cfg.nodes = [] then []
  else begin
    let covered : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let regions = ref [] in
    let uncovered () =
      List.filter (fun b -> not (Hashtbl.mem covered b.b_id)) cfg.nodes
    in
    let rec form_one () =
      match uncovered () with
      | [] -> ()
      | rest ->
        (* start at the uncovered block with the lowest bytecode address;
           among ties (retranslation siblings), the heaviest *)
        let start =
          List.fold_left
            (fun best b ->
               if b.b_start < best.b_start
               || (b.b_start = best.b_start && weight b > weight best)
               then b else best)
            (List.hd rest) (List.tl rest)
        in
        let selected = ref [] in
        let sel_ids = Hashtbl.create 16 in
        let budget = ref 0 in
        let add (b : block) =
          Hashtbl.replace sel_ids b.b_id ();
          Hashtbl.replace covered b.b_id ();
          budget := !budget + b.b_len;
          selected := b :: !selected
        in
        let rec dfs (b : block) =
          if (not (Hashtbl.mem sel_ids b.b_id))
          && (not (Hashtbl.mem covered b.b_id))
          && !budget + b.b_len <= max_instrs then begin
            add b;
            (* visit successors heaviest-arc first for a sensible layout *)
            let ss =
              Transcfg.succs cfg b.b_id
              |> List.sort (fun (_, w1) (_, w2) -> compare w2 w1)
            in
            List.iter (fun (d, _) -> dfs (Transcfg.block d)) ss
          end
        in
        (* the start block is always taken, even when it alone exceeds the
           budget: every block must end up covered or formation would spin *)
        add start;
        List.iter (fun (d, _) -> dfs (Transcfg.block d))
          (Transcfg.succs cfg start.b_id
           |> List.sort (fun (_, w1) (_, w2) -> compare w2 w1));
        (* also pull in retranslation siblings of selected blocks so chains
           are complete (they share the start pc and are alternative entries) *)
        List.iter
          (fun b ->
             List.iter
               (fun (sib : block) ->
                  if sib.b_start = b.b_start
                  && not (Hashtbl.mem sel_ids sib.b_id)
                  && not (Hashtbl.mem covered sib.b_id) then begin
                    Hashtbl.replace sel_ids sib.b_id ();
                    Hashtbl.replace covered sib.b_id ();
                    selected := sib :: !selected
                  end)
               cfg.nodes)
          !selected;
        let blocks = List.rev !selected in
        (* entry block first: the start block *)
        let blocks =
          start :: List.filter (fun b -> b.b_id <> start.b_id) blocks
        in
        let arcs =
          List.filter_map
            (fun ((s, d), _) ->
               if Hashtbl.mem sel_ids s && Hashtbl.mem sel_ids d then Some (s, d)
               else None)
            cfg.t_arcs
        in
        let blocks, chains = chain_retranslations blocks in
        Obs.Vmstats.bump c_formed;
        Obs.Vmstats.add c_blocks (List.length blocks);
        Obs.Vmstats.add c_arcs_covered (List.length arcs);
        Obs.Vmstats.observe h_instrs
          (List.fold_left (fun a (b : block) -> a + b.b_len) 0 blocks);
        regions := { r_blocks = blocks; r_arcs = arcs; r_chain_next = chains }
                   :: !regions;
        form_one ()
    in
    form_one ();
    Obs.Vmstats.add c_arcs_total (List.length cfg.t_arcs);
    List.rev !regions
  end

(** Single-block region wrapper for live / profiling translations. *)
let single (b : block) : Rdesc.t =
  { r_blocks = [ b ]; r_arcs = []; r_chain_next = [] }
