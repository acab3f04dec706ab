(** The JIT engine (paper §4, Fig. 5): translation cache, compilation modes,
    OSR side-exit handling, retranslate-all, and function sorting.

    Execution model: every PHP-level call goes through {!call_func}, which
    tries to enter compiled code at the function entry; the interpreter
    consults {!try_enter} at taken jumps.  Compiled code leaves through
    ReqBind exits, which either chain directly into another translation
    (translation linking / retranslation chains) or resume the interpreter
    with the VM state the exit spec describes — including materializing
    partially-inlined callee frames (§5.3.1).

    Every domain dispatches the same way, through a dispatch context
    ({!serve_ctx}: pinned epoch, machine, mono table) — the engine's main
    context, or a serving worker's own.  A miss compiles its own srckey
    under the write lease ({!Lease}) and publishes the changed row as an
    epoch, which the publishing domain adopts at once; other domains adopt
    it at their next request boundary, and a miss that loses the lease
    interprets. *)

open Runtime.Value
module Rd = Region.Rdesc

type phase = PProfiling | POptimized

(** An immutable published snapshot of the dispatch state (paper §5.1's
    publish step, generalized to parallel serving): the srckey table of
    retranslation chains at a publish point, plus the translation-link
    generation and the huge-page mapping of the hot section that were
    current then.  The latest epoch is the engine's only translation
    table.  The write-lease holder changes it by copying the outer array,
    replacing each row it changes with a new row, and publishing the copy
    with a single atomic store before the lease is released; a published
    row is never written.  Each domain dispatches against the epoch its
    context pinned and adopts a newer one at request boundaries (or at
    once, when it published it), so a request racing a retranslate-all on
    another domain runs on the old epoch or the new one — never on a
    half-published chain. *)
type epoch = {
  ep_seq : int;                            (* publish sequence number *)
  ep_gen : int;                            (* link generation at publish *)
  (* fid -> pc -> retranslation chain; [||] = no translation *)
  ep_chains : Translation.t array array array;
  ep_huge : bool;                          (* hot-section huge-page map *)
  ep_main_lo : int;
  ep_main_hi : int;
}

let empty_epoch : epoch =
  { ep_seq = 0; ep_gen = 0; ep_chains = [||];
    ep_huge = false; ep_main_lo = 0; ep_main_hi = 0 }

(** Per-domain dispatch context: the pinned epoch, the SimCPU machine
    (i-cache, I-TLB, inline caches) and the monomorphic last-hit table,
    indexed like the translation table.  The engine owns one for the main
    domain ([main_ctx]); a serving worker installs its
    own in domain-local storage ({!enter_serving}), and a domain without
    one dispatches through the main context. *)
type serve_ctx = {
  sx_machine : Exec.machine;
  mutable sx_epoch : epoch;
  mutable sx_mono : (Translation.t * Translation.entry) option array array;
}

(** Retranslate-all sort inputs derived from the profile (C3 size table
    and resolved method-call edges).  Computing them re-scans the profile
    and resolves method names through the class table, so they are cached
    across repeated retranslations, keyed on the structural versions of
    the TransCFG registry and the profile — weight-only growth reuses the
    cache; new blocks, call sites or edges invalidate it. *)
type sort_cache = {
  sc_tcfg_version : int;
  sc_prof_version : int;
  sc_sizes : (int, int) Hashtbl.t;         (* fid -> size estimate *)
  sc_medges : ((int * int) * int) list;    (* resolved method-call edges *)
}

type t = {
  opts : Jit_options.t;
  hunit : Hhbc.Hunit.t;
  cache : Simcpu.Codecache.t;
  (* srckeys where compilation failed / budget exhausted: don't retry *)
  mutable nocompile : bool array array;
  (* bumped by retranslate-all; stale translation links (and anything else
     that caches a pre-reset translation) die by generation mismatch *)
  mutable generation : int;
  mutable phase : phase;
  mutable optimized_published : bool;
  (* stats *)
  mutable n_live : int;
  mutable n_profiling : int;
  mutable n_optimized : int;
  mutable opt_bytes : int;
  mutable compile_count : int;
  mutable sort_cache : sort_cache option;
  (* the last optimized publish sequence (retranslate-all or jumpstart
     adoption), prepared + placed forms aligned in publish order: the
     capture source for jumpstart images (§6.2) *)
  mutable last_opt : (Translation.prepared * int * Translation.t) array;
  (* the latest epoch, holding the translation table; swapped with a
     single atomic store by [publish_epoch] *)
  published : epoch Atomic.t;
  (* the dispatch context of every domain that has none of its own *)
  main_ctx : serve_ctx;
}

let serve_key : serve_ctx option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(** The calling domain's dispatch context. *)
let ctx_of (eng : t) : serve_ctx =
  match Domain.DLS.get serve_key with Some c -> c | None -> eng.main_ctx

(* ------------------------------------------------------------------ *)
(* Telemetry handles (registered once, bumped through the handle)      *)
(* ------------------------------------------------------------------ *)

let c_mono_hit = Obs.Vmstats.counter "dispatch.mono_hit"
let c_mono_miss = Obs.Vmstats.counter "dispatch.mono_miss"
let c_chain_hit = Obs.Vmstats.counter "dispatch.chain_hit"
let c_chain_miss = Obs.Vmstats.counter "dispatch.chain_miss"
let h_chain_len = Obs.Vmstats.histogram "dispatch.chain_len"
let c_link_follow = Obs.Vmstats.counter "link.follow"
let c_link_smashed = Obs.Vmstats.counter "link.smashed"
let c_link_stale = Obs.Vmstats.counter "link.stale"
let c_link_invalidated = Obs.Vmstats.counter "link.invalidated"
let c_guard_fail = Obs.Vmstats.counter "guard.fail"
let c_exit_bind = Obs.Vmstats.counter "exit.bind"
let c_exit_interp = Obs.Vmstats.counter "exit.interp_anchor"
let c_exit_inline = Obs.Vmstats.counter "exit.inline"
let c_exit_return = Obs.Vmstats.counter "exit.return"
let c_exit_unwind = Obs.Vmstats.counter "exit.unwind"
let c_tr_live = Obs.Vmstats.counter "translate.live"
let c_tr_prof = Obs.Vmstats.counter "translate.profiling"
let c_tr_opt = Obs.Vmstats.counter "translate.optimized"
let c_tr_rejected = Obs.Vmstats.counter "translate.rejected"
let h_tr_bytes = Obs.Vmstats.histogram "translate.bytes"
let c_retranslate = Obs.Vmstats.counter "retranslate.runs"
(* pause of the last retranslate-all: the main-domain stall, i.e. the
   window during which the engine serves no requests.  With one worker
   the compile burst runs inline on the main domain, so the stall covers
   sort + invalidation + compile + publish (the historical serial
   behavior); with [jit_workers >= 2] the burst runs on background
   domains and the main domain only joins (a server would keep serving
   there, cf. server/startup), so the stall is only the serial prologue +
   publish.  The full burst
   wall time is always recorded separately as [retranslate.compile].
   Both timers accumulate seconds. *)
let t_pause = Obs.Vmstats.timer "retranslate.pause"
let t_compile = Obs.Vmstats.timer "retranslate.compile"
(* dispatch misses in the pinned epoch, and the subset that ended in the
   interpreter (lazy translation absorbs the difference) *)
let c_serving_miss = Obs.Vmstats.counter "serving.translation_miss"
let c_serving_fallback = Obs.Vmstats.counter "serving.interp_fallback"
(* lazy in-burst translation under the write lease *)
let c_lazy_compiled = Obs.Vmstats.counter "lazy_translate.compiled"
let c_lazy_covered = Obs.Vmstats.counter "lazy_translate.covered"
let c_lazy_entered = Obs.Vmstats.counter "lazy_translate.entered"
let c_epoch_delta = Obs.Vmstats.counter "epoch.delta_publish"
(* code-cache lifecycle: liveness-driven eviction and compaction *)
let c_tc_evicted = Obs.Vmstats.counter "tc.evicted"
let c_tc_evicted_bytes = Obs.Vmstats.counter "tc.evicted_bytes"
let c_tc_evict_runs = Obs.Vmstats.counter "tc.evict_runs"
let c_tc_compact_runs = Obs.Vmstats.counter "tc.compact_runs"

(* ------------------------------------------------------------------ *)
(* Translation tables                                                  *)
(* ------------------------------------------------------------------ *)

let body_len (u : Hhbc.Hunit.t) (fid : int) : int =
  Array.length (Hhbc.Hunit.func u fid).Hhbc.Instr.fn_body

(* Per-srckey tables sized from the unit once: a unit never gains
   functions after install (hhbbc runs before it). *)
let fresh_rows (u : Hhbc.Hunit.t) (x : 'a) : 'a array array =
  Array.init (Hhbc.Hunit.num_funcs u)
    (fun fid -> Array.make (body_len u fid + 1) x)

(** The retranslation chain at (fid, pc) of a srckey table; [||] when
    there is none. *)
let chain_at (chains : Translation.t array array array) (fid : int)
    (pc : int) : Translation.t array =
  if fid < Array.length chains then
    let row = chains.(fid) in
    if pc < Array.length row then row.(pc) else [||]
  else [||]

(** Append [tr] to its chain in [chains], a private copy of a table's
    outer array: the row is replaced by a new one, since the old row may
    belong to a published epoch. *)
let append_chain (chains : Translation.t array array array)
    (tr : Translation.t) : unit =
  let row = Array.copy chains.(tr.Translation.tr_fid) in
  let pc = tr.Translation.tr_srckey in
  row.(pc) <- Array.append row.(pc) [| tr |];
  chains.(tr.Translation.tr_fid) <- row

(** [f] on every translation of a srckey table, in fid, pc, chain order. *)
let iter_chains (f : Translation.t -> unit)
    (chains : Translation.t array array array) : unit =
  Array.iter (Array.iter (Array.iter f)) chains

let no_compile (eng : t) (fid : int) (pc : int) : bool =
  fid < Array.length eng.nocompile
  && pc < Array.length eng.nocompile.(fid)
  && eng.nocompile.(fid).(pc)

let mark_no_compile (eng : t) (fid : int) (pc : int) : unit =
  if fid < Array.length eng.nocompile
  && pc < Array.length eng.nocompile.(fid) then
    eng.nocompile.(fid).(pc) <- true

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* simulated JIT-time cost charged for live/profiling compilation (the
   optimized pass runs on background threads and is not charged, §6.2) *)
let live_compile_cycles n = 400 + 90 * n
let prof_compile_cycles n = 300 + 60 * n

let weights_for (lowered : Hhir.Lower.lowered) : (int, int) Hashtbl.t =
  let w = Hashtbl.create 16 in
  List.iter
    (fun (rbid, irid) ->
       Hashtbl.replace w irid
         (max 1 (Region.Transcfg.block_weight (Region.Transcfg.block rbid))))
    lowered.lw_blockmap;
  w

(** The compile phase of a translation: region -> HHIR -> passes -> vasm
    -> register allocation -> prepared (section-relative) code.  Touches
    no engine or code-cache state and only reads the profile, so
    retranslate-all runs it on worker domains.  Returns the prepared
    translation and the region's block count (trace metadata for
    publish). *)
let prepare_region (eng : t) ~(fid : int) ~(region : Rd.t)
    ~(kind : Translation.kind)
  : Translation.prepared * int =
  let mode = match kind with
    | Translation.KLive -> Hhir.Lower.Live
    | Translation.KProfiling -> Hhir.Lower.Profiling
    | Translation.KOptimized -> Hhir.Lower.Optimized
  in
  let lopts = Jit_options.lower_options eng.opts in
  let lowered =
    Hhir.Lower.lower_region eng.hunit ~func_id:fid ~region ~mode ~opts:lopts
  in
  Hhir.Verify.verify lowered.lw_ir;
  ignore (Hhir_opt.Pipeline.run ~mode ~opts:lopts lowered.lw_ir);
  Hhir.Verify.verify lowered.lw_ir;
  let weights =
    if kind = Translation.KOptimized then weights_for lowered
    else begin
      (* no profile: entry blocks weight 1; stubs 0 *)
      let w = Hashtbl.create 8 in
      List.iter (fun (_, irid) -> Hashtbl.replace w irid 1) lowered.lw_blockmap;
      w
    end
  in
  let prog = Vasm.Vlower.lower lowered.lw_ir ~weights in
  let pgo = kind = Translation.KOptimized && eng.opts.pgo_layout in
  let prog, sections = Vasm.Layout.run ~pgo prog in
  let prog = Vasm.Jumpopt.run prog in
  let ra = Vasm.Regalloc.run prog ~nregs:eng.opts.nregs in
  let entry_block = Rd.entry region in
  (Translation.prepare ~fid ~srckey:entry_block.b_start ~kind ~ra ~sections
     ~entries:lowered.lw_entries,
   List.length region.Rd.r_blocks)

(** The publish half: place the prepared translation in the code cache and
    account for it.  Serial, write-lease holder only — code-cache offsets,
    translation ids and trace sequence numbers are assigned here, in
    whatever order the caller dictates. *)
let finish_translation (eng : t) ((pr : Translation.prepared), (nblocks : int))
  : Translation.t option =
  eng.compile_count <- eng.compile_count + 1;
  match Translation.place ~cache:eng.cache pr with
  | Some tr as res ->
    (match tr.Translation.tr_kind with
     | Translation.KLive -> Obs.Vmstats.bump c_tr_live
     | Translation.KProfiling -> Obs.Vmstats.bump c_tr_prof
     | Translation.KOptimized -> Obs.Vmstats.bump c_tr_opt);
    Obs.Vmstats.observe h_tr_bytes tr.Translation.tr_bytes;
    if Obs.Trace.on Obs.Trace.Translate then
      Obs.Trace.emit Obs.Trace.Translate
        [ ("tr", Obs.Trace.I tr.Translation.tr_id);
          ("fid", Obs.Trace.I tr.Translation.tr_fid);
          ("srckey", Obs.Trace.I tr.Translation.tr_srckey);
          ("kind", Obs.Trace.S (Translation.kind_name tr.Translation.tr_kind));
          ("bytes", Obs.Trace.I tr.Translation.tr_bytes);
          ("blocks", Obs.Trace.I nblocks) ];
    res
  | None ->
    (* code budget exhausted: the caller marks the srckey no-compile *)
    Obs.Vmstats.bump c_tr_rejected;
    None

(** Lazily compile a live or profiling translation at (fid, pc), reading
    input types through [oracle] — the type vectors captured when a
    dispatch missed — and append it to its chain in [chains].  Caller
    must be the single compile-side writer: the write-lease holder. *)
let compile_at (eng : t) (chains : Translation.t array array array)
    ~(fid : int) ~(pc : int)
    ~(oracle : Rd.loc -> Hhbc.Rtype.t) : Translation.t option =
  if no_compile eng fid pc then None
  else begin
    let kind =
      match eng.opts.mode, eng.phase with
      | Jit_options.Interp, _ -> assert false
      | Jit_options.Tracelet, _ -> Translation.KLive
      | Jit_options.ProfileOnly, _ -> Translation.KProfiling
      | Jit_options.Region, PProfiling -> Translation.KProfiling
      | Jit_options.Region, POptimized -> Translation.KLive
    in
    let counter =
      if kind = Translation.KProfiling then Some (Vm.Prof.new_counter ())
      else None
    in
    let smode = match kind with
      | Translation.KProfiling -> Region.Select.MProfiling
      | _ -> Region.Select.MLive
    in
    let block =
      Region.Select.select eng.hunit ~func_id:fid ~start:pc ~mode:smode
        ~oracle ?counter ()
    in
    if block.b_len = 0 then begin
      mark_no_compile eng fid pc;
      None
    end else begin
      if kind = Translation.KProfiling then
        Region.Transcfg.register_block block;
      let region = Region.Form.single block in
      (* live translations are guard-relaxed using constraints only;
         profiling translations are never relaxed (§5.2.2) *)
      let region =
        if kind = Translation.KLive && eng.opts.guard_relax
        then Region.Relax.run region
        else region
      in
      match
        finish_translation eng
          (prepare_region eng ~fid ~region ~kind)
      with
      | Some tr ->
        (match kind with
         | Translation.KLive ->
           eng.n_live <- eng.n_live + 1;
           let cc = live_compile_cycles block.b_len in
           Runtime.Ledger.charge_jit cc;
           if Obs.Profiler.on () then
             Obs.Profiler.record
               ~frames:[ "jit-compile";
                         (Hhbc.Hunit.func eng.hunit fid).fn_name ]
               ~cycles:cc
         | Translation.KProfiling ->
           eng.n_profiling <- eng.n_profiling + 1;
           let cc = prof_compile_cycles block.b_len in
           Runtime.Ledger.charge_jit cc;
           if Obs.Profiler.on () then
             Obs.Profiler.record
               ~frames:[ "jit-compile";
                         (Hhbc.Hunit.func eng.hunit fid).fn_name ]
               ~cycles:cc
         | Translation.KOptimized -> ());
        append_chain chains tr;
        Some tr
      | None ->
        (* budget exhausted *)
        mark_no_compile eng fid pc;
        None
    end
  end

(* ------------------------------------------------------------------ *)
(* Entering compiled code                                              *)
(* ------------------------------------------------------------------ *)

let guard_matches (frame : Vm.Interp.frame) (g : Rd.guard) : bool =
  match g.g_loc with
  | Rd.LLocal l -> Hhbc.Rtype.value_matches g.g_type frame.locals.(l)
  | Rd.LStack d ->
    frame.sp - 1 - d >= 0
    && Hhbc.Rtype.value_matches g.g_type frame.stack.(frame.sp - 1 - d)

(** Validate one entry's preconditions against the live state; charges the
    simulated guard-execution cost (2 cycles per guard, as before). *)
let entry_matches (frame : Vm.Interp.frame) (en : Translation.entry) : bool =
  let gs = en.Translation.en_guards in
  let n = Array.length gs in
  Runtime.Ledger.charge_jit (2 * n);
  let rec ok i = i >= n || (guard_matches frame gs.(i) && ok (i + 1)) in
  let matched = ok 0 in
  if not matched then begin
    Obs.Vmstats.bump c_guard_fail;
    if Obs.Trace.on Obs.Trace.Guard then begin
      let b = en.Translation.en_block in
      Obs.Trace.emit Obs.Trace.Guard
        [ ("fid", Obs.Trace.I b.Rd.b_func);
          ("srckey", Obs.Trace.I b.Rd.b_start);
          ("block", Obs.Trace.I b.Rd.b_id);
          ("guards", Obs.Trace.I n) ]
    end
  end;
  matched

(** Find a translation entry in the context's pinned epoch whose
    preconditions hold for the live state.  The context's monomorphic
    last-hit table is consulted first: steady-state re-entry validates
    only the cached entry's guards instead of walking the whole
    retranslation chain.  The table outlives same-generation adoptions,
    eviction included, so a cached entry whose translation was evicted
    never hits. *)
let select_entry (ctx : serve_ctx) (frame : Vm.Interp.frame)
    (pc : int) : (Translation.t * Translation.entry) option =
  let fid = frame.func.fn_id in
  let chain = chain_at ctx.sx_epoch.ep_chains fid pc in
  let len = Array.length chain in
  if len = 0 then None
  else begin
    let mono = ctx.sx_mono in
    let cached = fid < Array.length mono && pc < Array.length mono.(fid) in
    let mono_hit =
      match (if cached then mono.(fid).(pc) else None) with
      | Some (tr, en) as hit
        when (not tr.Translation.tr_evicted) && entry_matches frame en ->
        Obs.Vmstats.bump c_mono_hit;
        hit
      | _ ->
        Obs.Vmstats.bump c_mono_miss;
        None
    in
    match mono_hit with
    | Some _ -> mono_hit
    | None ->
      let found = ref None in
      let i = ref 0 in
      while !found = None && !i < len do
        let tr = chain.(!i) in
        let entries = tr.Translation.tr_entries in
        let j = ref 0 in
        while !found = None && !j < Array.length entries do
          let en = entries.(!j) in
          if entry_matches frame en then found := Some (tr, en);
          incr j
        done;
        incr i
      done;
      (match !found with
       | Some _ ->
         Obs.Vmstats.bump c_chain_hit;
         Obs.Vmstats.observe h_chain_len len;
         if cached then mono.(fid).(pc) <- !found
       | None -> Obs.Vmstats.bump c_chain_miss);
      !found
  end

(* ------------------------------------------------------------------ *)
(* Epochs: publish and adopt                                           *)
(* ------------------------------------------------------------------ *)

(** Adopt [ep] into [ctx].  A generation change (retranslate-all,
    jumpstart adoption) drops the mono table, whose entries are then
    previous-generation translations; a same-generation epoch keeps it,
    since every hit re-validates its entry's guards and skips evicted
    translations.  The I-TLB then follows the epoch's hot-section map
    (remapped only when that map moved). *)
let adopt (eng : t) (ctx : serve_ctx) (ep : epoch) : unit =
  if ep.ep_gen <> ctx.sx_epoch.ep_gen then
    ctx.sx_mono <- fresh_rows eng.hunit None;
  ctx.sx_epoch <- ep;
  let tlb = ctx.sx_machine.Exec.itlb in
  if tlb.Simcpu.Itlb.huge <> ep.ep_huge
  || tlb.Simcpu.Itlb.huge_lo <> ep.ep_main_lo
  || tlb.Simcpu.Itlb.huge_hi <> ep.ep_main_hi
  then
    Simcpu.Itlb.set_huge tlb ~enabled:ep.ep_huge ~lo:ep.ep_main_lo
      ~hi:ep.ep_main_hi

(* Adopt the latest epoch unless [ctx] already pinned it; true if it
   adopted one. *)
let catch_up (eng : t) (ctx : serve_ctx) : bool =
  let ep = Atomic.get eng.published in
  ep.ep_seq <> ctx.sx_epoch.ep_seq && (adopt eng ctx ep; true)

(** Publish [chains] as the new epoch with one atomic store, and adopt
    it on the publishing domain at once.  [chains] is a fresh table, the
    latest epoch's own, or a copy of its outer array in which every
    changed row is a new array — once published, neither it nor its rows
    are written again.  Write-lease holder (or an engine nobody serves
    from yet) only, so the sequence of published epochs is total. *)
let publish_epoch (eng : t) (chains : Translation.t array array array)
  : unit =
  let prev = Atomic.get eng.published in
  let lo, hi = Simcpu.Codecache.main_range eng.cache in
  let ep =
    { ep_seq = prev.ep_seq + 1;
      ep_gen = eng.generation;
      ep_chains = chains;
      ep_huge = eng.opts.huge_pages && eng.optimized_published;
      ep_main_lo = lo;
      ep_main_hi = hi }
  in
  Atomic.set eng.published ep;
  adopt eng (ctx_of eng) ep

(* ------------------------------------------------------------------ *)
(* Lazy translation (write lease + incremental epoch publish)          *)
(* ------------------------------------------------------------------ *)

(* First entry of [tr] whose guards are subsumed by the captured types —
   the entry the requester's chain walk would have selected. *)
let entry_for_types (tr : Translation.t) ~(locals : Hhbc.Rtype.t array)
    ~(stack : Hhbc.Rtype.t array) : Translation.entry option =
  let entries = tr.Translation.tr_entries in
  let rec go j =
    if j >= Array.length entries then None
    else if Translation.entry_covers ~locals ~stack entries.(j) then
      Some entries.(j)
    else go (j + 1)
  in
  go 0

(** Smash [src]'s bind exit [eid] to [target]: target first, then
    generation, so a reader racing the store sees a dead link or a fully
    written one (and re-validates the entry's guards in any case).  Never
    binds to an evicted translation; a link already bound to [target] in
    this generation is left alone.  Write-lease holder only. *)
let smash_link (eng : t) ((src : Translation.t), (eid : int))
    (((dst : Translation.t), (en : Translation.entry)) as target) : unit =
  let lk = src.Translation.tr_links.(eid) in
  let bound =
    lk.Translation.lk_gen = eng.generation
    && (match lk.Translation.lk_target with
        | Some (d, e) -> d == dst && e == en
        | None -> false)
  in
  if not (bound || dst.Translation.tr_evicted) then begin
    lk.Translation.lk_target <- Some target;
    lk.Translation.lk_gen <- eng.generation;
    Obs.Vmstats.bump c_link_smashed;
    if Obs.Trace.on Obs.Trace.Link then
      Obs.Trace.emit Obs.Trace.Link
        [ ("event", Obs.Trace.S "smash");
          ("src", Obs.Trace.I src.Translation.tr_id);
          ("exit", Obs.Trace.I eid);
          ("dst", Obs.Trace.I dst.Translation.tr_id) ]
  end

(* Link an exit resolved in [ctx]'s epoch, unless that epoch is of an
   older generation than the engine's.  Write-lease holder only. *)
let bind_exit (eng : t) (ctx : serve_ctx) (via : Translation.t * int)
    (target : Translation.t * Translation.entry) : unit =
  if ctx.sx_epoch.ep_gen = eng.generation then smash_link eng via target

(* Compile (fid, pc) for the types of [frame]'s locals and stack into a
   copy of the latest epoch, smash [via] to the new code, and publish the
   changed row.  Unless the srckey became no-compile, the types are first
   re-checked against the latest epoch: a compile that landed since the
   caller pinned its epoch may already cover them.  Write-lease holder
   only. *)
let compile_miss (eng : t) (frame : Vm.Interp.frame) ~(fid : int)
    ~(pc : int) ~(via : (Translation.t * int) option) : unit =
  (* stack indexed by depth: element [d] types [sp - 1 - d] *)
  let locals = Array.map Hhbc.Rtype.of_value frame.locals in
  let stack =
    Array.init (max frame.sp 0)
      (fun d -> Hhbc.Rtype.of_value frame.stack.(frame.sp - 1 - d))
  in
  let chains = Array.copy (Atomic.get eng.published).ep_chains in
  let chain = chain_at chains fid pc in
  let compiled =
    if no_compile eng fid pc then false
    else if Array.exists
        (fun tr -> entry_for_types tr ~locals ~stack <> None) chain
    then (Obs.Vmstats.bump c_lazy_covered; false)
    else if Array.length chain >= eng.opts.max_live_per_srckey then false
    else begin
      let oracle (loc : Rd.loc) : Hhbc.Rtype.t =
        match loc with
        | Rd.LLocal l ->
          if l < Array.length locals then locals.(l) else Hhbc.Rtype.uninit
        | Rd.LStack d ->
          if d < Array.length stack then stack.(d) else Hhbc.Rtype.uninit
      in
      match compile_at eng chains ~fid ~pc ~oracle with
      | Some tr ->
        Obs.Vmstats.bump c_lazy_compiled;
        (match via, entry_for_types tr ~locals ~stack with
         | Some via, Some en -> smash_link eng via (tr, en)
         | _ -> ());
        Obs.Vmstats.bump c_epoch_delta;
        publish_epoch eng chains;
        true
      | None -> false
    end
  in
  if Obs.Trace.on Obs.Trace.Lease then
    Obs.Trace.emit Obs.Trace.Lease
      [ ("event", Obs.Trace.S "compile");
        ("fid", Obs.Trace.I fid);
        ("pc", Obs.Trace.I pc);
        ("compiled", Obs.Trace.I (Bool.to_int compiled));
        ("epoch", Obs.Trace.I (Atomic.get eng.published).ep_seq) ]

(** A dispatch miss.  Unless the srckey cannot compile or its chain in the
    pinned epoch is already [max_live_per_srckey] long: make one attempt
    at the write lease.  The winner compiles its own srckey for the
    frame's types ({!compile_miss}), adopts the latest epoch, looks
    itself up and links the exit it came through, so it enters the fresh
    code at once; a loser returns [None] and interprets, and tries again
    at its next miss. *)
let translate_miss (eng : t) (ctx : serve_ctx) (frame : Vm.Interp.frame)
    (pc : int) ~(via : (Translation.t * int) option)
  : (Translation.t * Translation.entry) option =
  let fid = frame.func.fn_id in
  let chain_len = Array.length (chain_at ctx.sx_epoch.ep_chains fid pc) in
  (* racy read of [nocompile] (rows are replaced wholesale under the
     lease): a stale [true] skips a compile that would be rejected
     anyway, a stale [false] is re-checked under the lease *)
  if chain_len >= eng.opts.max_live_per_srckey || no_compile eng fid pc
  then None
  else begin
    if Obs.Span.on () then Obs.Span.count Obs.Span.Miss;
    if Lease.try_acquire () then
      let lw0 =
        if Obs.Span.on () then (Runtime.Ledger.acct ()).Runtime.Ledger.a_cycles
        else 0
      in
      Fun.protect
        ~finally:(fun () ->
            Lease.release ();
            if Obs.Span.on () then
              Obs.Span.add Obs.Span.LeaseWait
                ((Runtime.Ledger.acct ()).Runtime.Ledger.a_cycles - lw0))
        (fun () ->
          compile_miss eng frame ~fid ~pc ~via;
          ignore (catch_up eng ctx);
          let found = select_entry ctx frame pc in
          if found <> None then Obs.Vmstats.bump c_lazy_entered;
          (match found, via with
           | Some target, Some v -> bind_exit eng ctx v target
           | _ -> ());
          found)
    else None
  end

(** Materialize an inlined callee frame from exit metadata (§5.3.1). *)
let materialize_inline (eng : t) (tr : Translation.t)
    (reader : Vasm.Regalloc.operand -> value) (ie : Hhir.Ir.inline_exit)
  : Vm.Interp.frame =
  let callee = Hhbc.Hunit.func eng.hunit ie.ie_fid in
  let read_tmp (t : Hhir.Ir.tmp) : value =
    match Hashtbl.find_opt tr.tr_loc t.t_id with
    | Some loc -> reader loc
    | None -> VUninit
  in
  let locals = Array.make (max callee.fn_num_locals 1) VUninit in
  List.iter (fun (l, t) -> if l < Array.length locals then locals.(l) <- read_tmp t)
    ie.ie_locals;
  let stack = Array.make (Vm.Interp.frame_stack_size callee) VUninit in
  List.iteri (fun i t -> stack.(i) <- read_tmp t) ie.ie_stack;
  { Vm.Interp.func = callee;
    unit_ = eng.hunit;
    locals;
    stack;
    sp = List.length ie.ie_stack;
    this_ = (match ie.ie_this with Some t -> read_tmp t | None -> VNull);
    iters =
      (if callee.fn_num_iters = 0 then [||]
       else
         Array.init callee.fn_num_iters
           (fun _ -> { Vm.Interp.it_arr = None; it_pos = 0 }));
    acct = Vm.Interp.no_acct; pc_ = 0; ret_ = VUninit; cyc_ = 0; icnt_ = 0 }

(** Attempt to enter compiled code at (frame, pc) through the dispatch
    context [ctx]; handles chaining through exits until compiled execution
    ends.  [install]'s translation hook calls this with the calling
    domain's context ({!ctx_of}), implementing the [translation_hook]
    contract.

    Every domain runs this one path: lookups read only the context's
    pinned epoch, the machine is the context's, a miss takes the
    write-lease path ({!translate_miss}), links are followed against the
    pinned epoch's generation, an exit resolved by lookup is linked while
    holding the lease (skipped when the lease is busy), and TransCFG arcs
    go to the domain's profile shard. *)
let try_enter (eng : t) (ctx : serve_ctx) (frame : Vm.Interp.frame)
    (pc : int) : Vm.Interp.enter_result =
  let machine = ctx.sx_machine in
  let prev_prof_block : int option ref = ref None in
  (* [via] is the (translation, exit id) we are chaining out of, if any:
     when the exit's target resolves, the link is memoized there so later
     exits skip the table lookup and chain walk entirely — the software
     analogue of the paper's smashed bind jumps (§4.3). *)
  let rec go ~(via : (Translation.t * int) option) (pc : int) (first : bool)
    : Vm.Interp.enter_result =
    let entry =
      let linked =
        match via with
        | Some (src, eid) ->
          let lk = src.Translation.tr_links.(eid) in
          if lk.Translation.lk_gen = ctx.sx_epoch.ep_gen then
            (match lk.Translation.lk_target with
             | Some (_, en) as tgt when entry_matches frame en ->
               Obs.Vmstats.bump c_link_follow;
               tgt
             | _ -> None)
          else begin
            (* smashed in a previous generation; dead since retranslate-all *)
            if lk.Translation.lk_target <> None then
              Obs.Vmstats.bump c_link_stale;
            None
          end
        | None -> None
      in
      match linked with
      | Some _ -> linked
      | None ->
        match select_entry ctx frame pc with
        | Some target as found ->
          (match via with
           | Some v when Lease.try_acquire () ->
             (match bind_exit eng ctx v target with
              | () -> Lease.release ()
              | exception e -> Lease.release (); raise e)
           | _ -> ());
          found
        | None ->
          Obs.Vmstats.bump c_serving_miss;
          if eng.opts.mode = Jit_options.Interp then None
          else translate_miss eng ctx frame pc ~via
    in
    match entry with
    | None ->
      Obs.Vmstats.bump c_serving_fallback;
      if Obs.Span.on () then Obs.Span.count Obs.Span.Interp;
      if first then Vm.Interp.NoTranslation else Vm.Interp.Resumed pc
    | Some (tr, en) ->
      let rb = en.Translation.en_block and idx = en.Translation.en_idx in
      (* record TransCFG arcs between consecutive profiling blocks (§4.2) *)
      (* profiling translations carry instrumentation beyond the block
         counter (targeted profiles, §4.1 item 4); charge its overhead at
         each entry *)
      if tr.tr_kind = Translation.KProfiling then begin
        Runtime.Ledger.charge_jit 45;
        if Obs.Profiler.on () then
          Obs.Profiler.record ~frames:[ "jit-instrument" ] ~cycles:45
      end;
      (match tr.tr_kind with
       | Translation.KProfiling ->
         (match !prev_prof_block with
          | Some src ->
            if Obs.Trace.on Obs.Trace.Link then
              Obs.Trace.emit Obs.Trace.Link
                [ ("event", Obs.Trace.S "arc");
                  ("src", Obs.Trace.I src);
                  ("dst", Obs.Trace.I rb.Rd.b_id) ];
            Region.Transcfg.record_arc ~src ~dst:rb.Rd.b_id
          | None -> ());
         prev_prof_block := Some rb.Rd.b_id
       | _ -> prev_prof_block := None);
      let entry_sp = frame.sp in
      let outcome, reader =
        Exec.run_with_state machine tr ~entry:idx ~frame ~entry_sp
      in
      (match outcome with
       | Exec.XReturn _ -> Obs.Vmstats.bump c_exit_return
       | Exec.XBind e ->
         let es = tr.tr_exits.(e) in
         if es.es_inline <> None then Obs.Vmstats.bump c_exit_inline
         else if es.es_interp then Obs.Vmstats.bump c_exit_interp
         else Obs.Vmstats.bump c_exit_bind
       | Exec.XUnwind _ -> Obs.Vmstats.bump c_exit_unwind);
      if Obs.Trace.on Obs.Trace.Exit then
        Obs.Trace.emit Obs.Trace.Exit
          (("tr", Obs.Trace.I tr.tr_id)
           :: ("fid", Obs.Trace.I tr.tr_fid)
           :: (match outcome with
               | Exec.XReturn _ -> [ ("kind", Obs.Trace.S "return") ]
               | Exec.XBind e ->
                 let es = tr.tr_exits.(e) in
                 [ ("kind", Obs.Trace.S "bind");
                   ("pc", Obs.Trace.I es.es_pc);
                   ("spdelta", Obs.Trace.I es.es_spdelta);
                   ("interp", Obs.Trace.B es.es_interp);
                   ("inline", Obs.Trace.B (es.es_inline <> None)) ]
               | Exec.XUnwind (e, _) ->
                 [ ("kind", Obs.Trace.S "unwind");
                   ("exit", Obs.Trace.I e) ]));
      (match outcome with
       | Exec.XReturn v -> Vm.Interp.Returned v
       | Exec.XBind eid ->
         let es = tr.tr_exits.(eid) in
         (match es.es_inline with
          | None when es.es_interp ->
            (* the exit re-executes its instruction: must interpret *)
            frame.sp <- entry_sp + es.es_spdelta;
            Vm.Interp.Resumed es.es_pc
          | None ->
            frame.sp <- entry_sp + es.es_spdelta;
            go ~via:(Some (tr, eid)) es.es_pc false
          | Some ie ->
            (* partial-inlining side exit: run the rest of the callee in
               the interpreter, push its result, continue in the caller *)
            frame.sp <- entry_sp + es.es_spdelta;
            let cf = materialize_inline eng tr reader ie in
            (match Vm.Interp.run cf ie.ie_pc with
             | v ->
               Vm.Interp.push frame v;
               go ~via:None es.es_pc false
             | exception Vm.Interp.Php_exception e ->
               (* the callee frame was torn down by its unwinder; the
                  exception propagates into the caller at the call's pc *)
               Vm.Interp.Returned
                 (Vm.Interp.resume_with_exception frame (es.es_pc - 1) e)))
       | Exec.XUnwind (eid, exn_v) ->
         let es = tr.tr_exits.(eid) in
         frame.sp <- entry_sp + es.es_spdelta;
         (match es.es_inline with
          | Some ie ->
            (* exception inside a call made by inlined code: give the
               callee's handlers a chance first *)
            let cf = materialize_inline eng tr reader ie in
            (try
               let v = Vm.Interp.resume_with_exception cf ie.ie_pc exn_v in
               Vm.Interp.push frame v;
               go ~via:None es.es_pc false
             with Vm.Interp.Php_exception e2 ->
               (* propagate into the caller at the call's pc *)
               Vm.Interp.Returned
                 (Vm.Interp.resume_with_exception frame (es.es_pc - 1) e2))
          | None ->
            Vm.Interp.Returned
              (Vm.Interp.resume_with_exception frame es.es_pc exn_v)))
  in
  go ~via:None pc true

(* ------------------------------------------------------------------ *)
(* Whole-program reoptimization (§5.1)                                 *)
(* ------------------------------------------------------------------ *)

(** Estimate a function's code size from its profiled blocks (for C3). *)
let func_size_estimate (fid : int) : int =
  match Hashtbl.find_opt Region.Transcfg.blocks_by_func fid with
  | Some l ->
    40 + List.fold_left (fun a (b : Rd.block) -> a + 12 * b.b_len) 0 !l
  | None -> 40

(** Sort inputs for retranslate-all, from the engine's cache when the
    TransCFG registry and the profile are structurally unchanged since the
    last retranslation (weight-only growth does not re-scan). *)
let sort_inputs (eng : t) (funcs : int list) : sort_cache =
  let tv = Region.Transcfg.version () and pv = Vm.Prof.version () in
  match eng.sort_cache with
  | Some sc when sc.sc_tcfg_version = tv && sc.sc_prof_version = pv -> sc
  | _ ->
    let sc_sizes = Hashtbl.create (2 * List.length funcs + 1) in
    List.iter
      (fun fid -> Hashtbl.replace sc_sizes fid (func_size_estimate fid))
      funcs;
    (* method-call edges resolved through receiver-class profiles *)
    let sc_medges =
      List.filter_map
        (fun (caller, mname, cls, w) ->
           if cls < 0 || cls >= Runtime.Vclass.count () then None
           else
             Option.map
               (fun (m : Runtime.Vclass.meth) -> ((caller, m.m_func), w))
               (Runtime.Vclass.lookup_method (Runtime.Vclass.get cls) mname))
        (Vm.Prof.method_edges ())
    in
    let sc = { sc_tcfg_version = tv; sc_prof_version = pv;
               sc_sizes; sc_medges } in
    eng.sort_cache <- Some sc;
    sc

(** Place an optimized publish sequence as a new generation: bump the
    generation, start fresh srckey chains and no-compile marks, and run
    [finish_translation] serially in publish order — code-cache offsets,
    translation ids and inline-cache ids are assigned here.  Returns the
    fresh table, for the caller to publish.  Shared by retranslate-all and
    jumpstart adoption; write-lease holder only. *)
let place_optimized (eng : t)
    (prs : (Translation.prepared * int) list) : Translation.t array array array =
  eng.generation <- eng.generation + 1;
  eng.nocompile <- fresh_rows eng.hunit false;
  let chains = fresh_rows eng.hunit [||] in
  let placed =
    List.filter_map
      (fun ((p, nb) as pr) ->
         match finish_translation eng pr with
         | Some tr ->
           append_chain chains tr;
           eng.n_optimized <- eng.n_optimized + 1;
           eng.opt_bytes <- eng.opt_bytes + tr.Translation.tr_bytes;
           Some (p, nb, tr)
         | None -> None)
      prs
  in
  eng.last_opt <- Array.of_list placed;
  eng.optimized_published <- true;
  chains

(** The global retranslation trigger (§5.1): form regions for every profiled
    function, optimize, sort functions with C3, and publish the optimized
    code.  Profiling translations are dropped (their section is reclaimed).
    Returns the number of optimized translations produced.

    The compile phase (region formation -> HHIR -> vasm -> prepared code)
    is read-only with respect to engine state and fans out across
    [opts.jit_workers] domains; the publish phase then places every
    prepared translation serially in C3 function order, so code-cache
    offsets, translation ids, inline-cache ids, links and trace output are
    identical for any worker count. *)
let retranslate_all_locked (eng : t) : int =
  let t0 = Obs.Clock.now () in
  Obs.Vmstats.bump c_retranslate;
  (* fold profile deltas flushed by serving workers into the canonical
     profile — "merge at retranslate-all trigger time" (the trigger may
     itself be firing on a worker domain while its siblings keep serving
     on their pinned epochs) *)
  Vm.Prof.merge_pending ();
  eng.phase <- POptimized;
  (* candidate functions, hottest first *)
  let funcs =
    Hashtbl.fold (fun fid _ acc -> fid :: acc) Region.Transcfg.blocks_by_func []
    |> List.sort_uniq compare
  in
  (* function order (part of PGO layout): C3 over the dynamic call graph *)
  let order =
    if eng.opts.pgo_layout then begin
      let sc = sort_inputs eng funcs in
      let edges = Vm.Prof.call_graph () in
      let sizes fid =
        Option.value (Hashtbl.find_opt sc.sc_sizes fid) ~default:40
      in
      C3.sort ~edges:(edges @ sc.sc_medges) ~sizes funcs
    end else funcs
  in
  (* drop profiling translations; optimized code replaces them.  The
     fresh table's generation drops every monomorphic entry cache, and
     bumping the generation unsmashes every translation link — stale
     translations cannot be re-entered through any cache once the
     optimized epoch is published. *)
  if Obs.Vmstats.on () then
    (* count the links the generation bump is about to kill *)
    iter_chains
      (fun tr ->
         Array.iter
           (fun (lk : Translation.link) ->
              if lk.Translation.lk_target <> None
              && lk.Translation.lk_gen = eng.generation then
                Obs.Vmstats.bump c_link_invalidated)
           tr.Translation.tr_links)
      (Atomic.get eng.published).ep_chains;
  (* compile phase: one task per function, in C3 order.  Tasks read the
     unit, the TransCFG registry and the canonical profile, and write
     task-local buffers.  Only the write-lease holder (or a domain running
     alone) writes the registry and [Vm.Prof.main_ctx]; serving workers
     write private profile contexts that [merge_pending] folds in under
     the lease, and this function holds the lease for its whole run.  So
     the profile cannot change under the tasks, any interleaving yields
     the same prepared code, and the task array's order fixes the
     publish order. *)
  let tasks =
    Array.of_list
      (List.map
         (fun fid () ->
            Region.Form.form_func_regions
              ~max_instrs:eng.opts.max_region_instrs fid
            |> List.map
              (fun region ->
                 let region =
                   if eng.opts.guard_relax then Region.Relax.run region
                   else region
                 in
                 prepare_region eng ~fid ~region
                   ~kind:Translation.KOptimized))
         order)
  in
  let t1 = Obs.Clock.now () in
  let prepared = Jit_worker.run ~workers:eng.opts.jit_workers tasks in
  let t2 = Obs.Clock.now () in
  (* publish phase: serial, in task (C3) order — every global id below is
     assigned here, independent of which worker compiled what when *)
  let chains = place_optimized eng (List.concat (Array.to_list prepared)) in
  let count = Array.length eng.last_opt in
  if Obs.Trace.on Obs.Trace.Retranslate then
    Obs.Trace.emit Obs.Trace.Retranslate
      [ ("generation", Obs.Trace.I eng.generation);
        ("functions", Obs.Trace.I (List.length order));
        ("optimized", Obs.Trace.I count) ];
  let t3 = Obs.Clock.now () in
  (* stall accounting: the compile window [t1, t2] stalls the main domain
     only when it compiles inline (one worker); with background workers the
     main thread is merely waiting and would keep serving requests *)
  let compile_s = t2 -. t1 in
  let stall_s =
    (t1 -. t0) +. (t3 -. t2)
    +. (if eng.opts.jit_workers <= 1 then compile_s else 0.0)
  in
  Obs.Vmstats.record_seconds t_compile compile_s;
  Obs.Vmstats.record_seconds t_pause stall_s;
  (* one atomic swap publishes the optimized table; this domain adopts
     them at once, mapping the hot section onto huge pages (§5.1.2), and
     requests in flight elsewhere finish on the epoch they pinned *)
  publish_epoch eng chains;
  count

(** Retranslate-all takes the write lease for its whole run: it rewrites
    the translation table, id allocators and code cache that in-burst
    lazy translation mutates under the same lease, so a retranslate fired
    mid-burst serializes against any lazy compile in progress (and lease
    holders observe a consistent generation).  Outside a burst the lease is
    always free and this is one uncontended CAS. *)
let retranslate_all (eng : t) : int =
  Lease.acquire ();
  Fun.protect ~finally:Lease.release
    (fun () -> retranslate_all_locked eng)

(* ------------------------------------------------------------------ *)
(* Code-cache lifecycle: liveness decay, eviction, Main compaction     *)
(* ------------------------------------------------------------------ *)

(** One liveness decay tick over the optimized publish sequence: halve
    every translation's score and add the entries it received since the
    last tick.  A translation the traffic stopped entering decays toward
    zero geometrically while still-hot ones are replenished each tick, so
    the score is a recency-weighted exec count, not a lifetime one. *)
let decay_liveness (eng : t) : unit =
  Array.iter
    (fun (_, _, (tr : Translation.t)) ->
       if not tr.Translation.tr_evicted then begin
         let fresh = tr.Translation.tr_execs - tr.Translation.tr_exec_mark in
         tr.Translation.tr_live_score <-
           (tr.Translation.tr_live_score asr 1) + fresh;
         tr.Translation.tr_exec_mark <- tr.Translation.tr_execs;
         tr.Translation.tr_age <- tr.Translation.tr_age + 1
       end)
    eng.last_opt

(** Evict optimized translations whose decayed liveness fell below
    [threshold].  For each victim: the srckey chain is pruned, every
    smashed bind jump pointing at it anywhere
    in the surviving chains is unpatched through the link machinery, its
    Main/Cold extents become code-cache holes, and — when a function's
    optimized code is entirely gone — its stale profile is pruned so the
    next retranslate-all cannot resurrect a traffic phase that has
    passed.  The rebuilt rows are published as an epoch; requests in
    flight finish on the epoch they pinned (victim objects stay reachable
    and correct), new requests stop seeing the victims at their next
    boundary, and mono tables — which keep their entries across this
    same-generation epoch — never hit an evicted translation.
    Translations younger than two ticks
    are never victims: freshly placed code has had no chance to
    accumulate a score.  Caller must hold the write lease. *)
let evict_cold_locked (eng : t) ~(threshold : int) : int =
  decay_liveness eng;
  let victims =
    Array.to_list eng.last_opt
    |> List.filter_map
      (fun (_, _, (tr : Translation.t)) ->
         if (not tr.Translation.tr_evicted)
         && tr.Translation.tr_age >= 2
         && tr.Translation.tr_live_score < threshold
         then Some tr else None)
  in
  if victims = [] then 0
  else begin
    Obs.Vmstats.bump c_tc_evict_runs;
    let affected = Hashtbl.create 8 in
    List.iter
      (fun (tr : Translation.t) ->
         tr.Translation.tr_evicted <- true;
         Hashtbl.replace affected tr.Translation.tr_fid ();
         Simcpu.Codecache.free eng.cache Simcpu.Codecache.Main
           tr.Translation.tr_hot_bytes;
         Simcpu.Codecache.free eng.cache Simcpu.Codecache.Cold
           tr.Translation.tr_cold_bytes;
         eng.n_optimized <- eng.n_optimized - 1;
         eng.opt_bytes <- eng.opt_bytes - tr.Translation.tr_bytes;
         Obs.Vmstats.bump c_tc_evicted;
         Obs.Vmstats.add c_tc_evicted_bytes tr.Translation.tr_bytes;
         if Obs.Trace.on Obs.Trace.Translate then
           Obs.Trace.emit Obs.Trace.Translate
             [ ("event", Obs.Trace.S "evict");
               ("tr", Obs.Trace.I tr.Translation.tr_id);
               ("fid", Obs.Trace.I tr.Translation.tr_fid);
               ("bytes", Obs.Trace.I tr.Translation.tr_bytes);
               ("score", Obs.Trace.I tr.Translation.tr_live_score) ])
      victims;
    (* rebuild the affected rows without the victims (mono tables skip
       evicted translations on their own) *)
    let chains = Array.copy (Atomic.get eng.published).ep_chains in
    Hashtbl.iter
      (fun fid () ->
         if fid < Array.length chains then
           chains.(fid) <-
             Array.map
               (fun chain ->
                  Array.of_list
                    (List.filter
                       (fun (tr : Translation.t) ->
                          not tr.Translation.tr_evicted)
                       (Array.to_list chain)))
               chains.(fid))
      affected;
    (* one pass over the surviving chains.  Unpatch incoming smashed bind
       jumps whose target died: links smashed in the current generation
       count as invalidations (the same counter a retranslate-all
       generation bump feeds); a reader racing the store either sees the
       old target — still a correct, reachable translation — or the
       unlinked state.  And a function still holding optimized code
       keeps its profile. *)
    iter_chains
      (fun tr ->
         if tr.Translation.tr_kind = Translation.KOptimized then
           Hashtbl.remove affected tr.Translation.tr_fid;
         Array.iter
           (fun (lk : Translation.link) ->
              match lk.Translation.lk_target with
              | Some (dst, _) when dst.Translation.tr_evicted ->
                if lk.Translation.lk_gen = eng.generation
                && Obs.Vmstats.on () then
                  Obs.Vmstats.bump c_link_invalidated;
                lk.Translation.lk_target <- None
              | _ -> ())
           tr.Translation.tr_links)
      chains;
    (* a function with no optimized translation left: drop its profile *)
    Hashtbl.iter (fun fid () -> Region.Transcfg.prune_func fid) affected;
    Obs.Vmstats.bump c_epoch_delta;
    publish_epoch eng chains;
    List.length victims
  end

(** Compact the Main/Cold sections: rewind the cursors and re-place every
    surviving optimized translation in its original publish order,
    closing the eviction holes.  [Translation.relocate] rewrites each
    survivor's instruction addresses in place, and since links, mono
    caches and published epochs all hold the translation objects, the
    move is visible everywhere without a fixup pass.  The same table is
    republished (same generation — adopting contexts keep their mono
    tables) and adopting it remaps the tightened hot extent onto huge
    pages, so the
    i-cache/I-TLB footprint shrinks back to the live code.  Returns the
    hole bytes closed (0 when there were none).  Caller must hold the
    write lease. *)
let compact_tc_locked (eng : t) : int =
  if Simcpu.Codecache.holes_bytes eng.cache = 0 then 0
  else begin
    Obs.Vmstats.bump c_tc_compact_runs;
    let survivors =
      Array.of_list
        (List.filter (fun (_, _, (tr : Translation.t)) ->
             not tr.Translation.tr_evicted)
           (Array.to_list eng.last_opt))
    in
    let holes = Simcpu.Codecache.compact_optimized eng.cache in
    Array.iter
      (fun (_, _, tr) ->
         (* cannot fail: survivors fit in the extent they vacated *)
         ignore (Translation.relocate ~cache:eng.cache tr))
      survivors;
    eng.last_opt <- survivors;
    if Obs.Trace.on Obs.Trace.Retranslate then
      Obs.Trace.emit Obs.Trace.Retranslate
        [ ("event", Obs.Trace.S "tc_compact");
          ("survivors", Obs.Trace.I (Array.length survivors));
          ("reclaimed", Obs.Trace.I holes) ];
    publish_epoch eng (Atomic.get eng.published).ep_chains;
    holes
  end

(** Public lifecycle entry points: like [retranslate_all], each takes the
    write lease for its whole run — lifecycle mutation serializes against
    in-burst lazy compiles, and a lease-holding miss never observes a
    half-pruned table. *)
let evict_cold (eng : t) ~(threshold : int) : int =
  Lease.acquire ();
  Fun.protect ~finally:Lease.release
    (fun () -> evict_cold_locked eng ~threshold)

let compact_tc (eng : t) : int =
  Lease.acquire ();
  Fun.protect ~finally:Lease.release
    (fun () -> compact_tc_locked eng)

(** One lifecycle tick, the policy form the server/bench drives: decay +
    evict below [opts.tc_evict_threshold], then compact if [opts.tc_compact]
    asked for it.  A no-op (0, 0) until optimized code is published or
    while the threshold is 0 (the default: lifecycle off).  Returns
    (victims evicted, hole bytes reclaimed by compaction). *)
let tc_lifecycle_tick (eng : t) : int * int =
  if eng.opts.tc_evict_threshold <= 0 || not eng.optimized_published
  then (0, 0)
  else begin
    Lease.acquire ();
    Fun.protect ~finally:Lease.release
      (fun () ->
         let evicted =
           evict_cold_locked eng ~threshold:eng.opts.tc_evict_threshold
         in
         let reclaimed =
           if eng.opts.tc_compact then compact_tc_locked eng else 0
         in
         (evicted, reclaimed))
  end

(* ------------------------------------------------------------------ *)
(* Jumpstart: capture and adopt optimized TC images (§6.2)             *)
(* ------------------------------------------------------------------ *)

(** Capture the warmed engine's state as a jumpstart image: the canonical
    profile, the TransCFG registry, and the optimized publish sequence
    with its current-generation link state.  [None] until a
    retranslate-all has published optimized code. *)
let capture_image (eng : t) : Jumpstart.image option =
  (* evicted translations never enter an image: an adopting process
     replays the publish sequence through fresh placement, so the image
     of a post-eviction engine is the compacted survivor sequence —
     restoring it onto a cold cache reproduces the dense layout *)
  let live_opt =
    Array.of_list
      (List.filter
         (fun (_, _, (tr : Translation.t)) -> not tr.Translation.tr_evicted)
         (Array.to_list eng.last_opt))
  in
  if not eng.optimized_published || Array.length live_opt = 0 then None
  else begin
    let idx = Hashtbl.create 64 in
    Array.iteri
      (fun i (_, _, (tr : Translation.t)) ->
         Hashtbl.replace idx tr.Translation.tr_id i)
      live_opt;
    (* links smashed in the current generation between optimized
       translations, as publish-order index quadruples (translation ids
       and entry pointers don't survive a process boundary; publish
       indices do) *)
    let links = ref [] in
    Array.iteri
      (fun si (_, _, (src : Translation.t)) ->
         Array.iteri
           (fun eid (lk : Translation.link) ->
              if lk.Translation.lk_gen = eng.generation then
                match lk.Translation.lk_target with
                | Some (dst, en) ->
                  (match Hashtbl.find_opt idx dst.Translation.tr_id with
                   | Some di ->
                     let entries = dst.Translation.tr_entries in
                     let ei = ref (-1) in
                     Array.iteri
                       (fun j e -> if !ei < 0 && e == en then ei := j)
                       entries;
                     if !ei >= 0 then links := (si, eid, di, !ei) :: !links
                   | None -> ())
                | None -> ())
           src.Translation.tr_links)
      live_opt;
    Some { Jumpstart.im_prof = Vm.Prof.export ();
           im_tcfg = Region.Transcfg.export ();
           im_next_block_id = !Region.Select.next_block_id;
           im_trans = Array.map (fun (p, nb, _) -> (p, nb)) live_opt;
           im_links = Array.of_list (List.rev !links);
           im_opt_bytes = eng.opt_bytes }
  end

(** Adopt a deserialized jumpstart image into a freshly installed engine:
    import the profile and TransCFG, then replay the image's publish
    sequence through the normal serial publish path — code-cache offsets,
    translation ids, inline-cache ids and the epoch come out exactly as a
    live retranslate-all would have assigned them, but no region is
    formed, no HHIR is built, and [retranslate.runs] stays at zero.  The
    engine lands in the optimized phase: no profiling translation will
    ever be compiled. *)
let adopt_image (eng : t) (im : Jumpstart.image) : unit =
  Vm.Prof.import im.Jumpstart.im_prof;
  Region.Transcfg.import im.Jumpstart.im_tcfg;
  Region.Select.next_block_id :=
    max !Region.Select.next_block_id im.Jumpstart.im_next_block_id;
  eng.phase <- POptimized;
  let chains = place_optimized eng (Array.to_list im.Jumpstart.im_trans) in
  let placed = eng.last_opt in
  (* re-smash the captured bind jumps at this engine's generation *)
  Array.iter
    (fun (si, eid, di, ei) ->
       if si < Array.length placed && di < Array.length placed then begin
         let _, _, src = placed.(si) and _, _, dst = placed.(di) in
         if eid < Array.length src.Translation.tr_links
         && ei < Array.length dst.Translation.tr_entries then begin
           let lk = src.Translation.tr_links.(eid) in
           lk.Translation.lk_target <-
             Some (dst, dst.Translation.tr_entries.(ei));
           lk.Translation.lk_gen <- eng.generation
         end
       end)
    im.Jumpstart.im_links;
  if Obs.Trace.on Obs.Trace.Retranslate then
    Obs.Trace.emit Obs.Trace.Retranslate
      [ ("event", Obs.Trace.S "jumpstart_adopt");
        ("generation", Obs.Trace.I eng.generation);
        ("optimized", Obs.Trace.I (Array.length placed));
        ("links", Obs.Trace.I (Array.length im.Jumpstart.im_links)) ];
  publish_epoch eng chains

(* ------------------------------------------------------------------ *)
(* Call dispatch and installation                                      *)
(* ------------------------------------------------------------------ *)

let call_func (eng : t) (u : Hhbc.Hunit.t) (fid : int) (args : value array)
    (this_ : value) : value =
  Vm.Prof.record_func_entry fid;
  let f = Hhbc.Hunit.func u fid in
  let frame = Vm.Interp.make_frame u f args this_ in
  match try_enter eng (ctx_of eng) frame 0 with
  | Vm.Interp.Returned v -> v
  | Vm.Interp.Resumed pc -> Vm.Interp.run frame pc
  | Vm.Interp.NoTranslation -> Vm.Interp.run frame 0

(** Create an engine for a loaded unit and install it as the VM's execution
    engine (call dispatcher + translation hook). *)
let install ?(opts : Jit_options.t option) (u : Hhbc.Hunit.t) : t =
  let opts = match opts with Some o -> o | None -> Jit_options.default () in
  Obs.Vmstats.enabled := opts.stats;
  Obs.Vmstats.reset ();
  Obs.Trace.configure ~spec:opts.trace ?path:opts.trace_out ();
  (* the span and profiler layers share one knob: both are request-level
     attribution, both off by default, and Serving.measure forces both
     on for the deterministic measured burst *)
  Obs.Span.enabled := opts.spans;
  Obs.Span.reset_local ();
  (* the cycle-attribution profiler costs a probe per interpreted
     instruction, so it is not tied to the cheap boundary-only spans:
     Serving.measure forces it on for the deterministic measured burst
     (--serving-report / --profile-folded), where wall clock is not the
     quantity being measured *)
  Obs.Profiler.enabled := false;
  Obs.Profiler.reset ();
  Obs.Snapshot.configure ?path:opts.snapshot_out
    ~every:opts.snapshot_interval ();
  let eng = {
    opts;
    hunit = u;
    cache = Simcpu.Codecache.create ?budget:opts.code_budget ();
    nocompile = fresh_rows u false;
    generation = 0;
    phase = PProfiling;
    optimized_published = false;
    n_live = 0; n_profiling = 0; n_optimized = 0;
    opt_bytes = 0; compile_count = 0;
    sort_cache = None;
    last_opt = [||];
    published = Atomic.make empty_epoch;
    main_ctx =
      { sx_machine = Exec.create_machine (); sx_epoch = empty_epoch;
        sx_mono = fresh_rows u None };
  } in
  (* the installing domain dispatches through the new main context *)
  Domain.DLS.set serve_key None;
  (* translation ids, inline-cache ids and TransCFG block ids restart per
     engine: sequential runs (bench determinism sweeps) produce identical
     tc-print reports and trace streams *)
  Translation.reset_ids ();
  Region.Select.next_block_id := 0;
  Region.Transcfg.reset ();
  Vm.Prof.reset ();
  Vm.Interp.reset_instr_count ();
  Region.Relax.reset_stats ();
  Hhir_opt.Rce.reset_stats ();
  (* stale interpreter call-site dispatch caches from a previous engine
     die here *)
  Vm.Interp.reset_meth_site_caches ();
  (* lower every function to its flat threaded-dispatch form now (install
     runs after any hhbbc rewrites): serving workers never contend on the
     flatten path mid-burst, and first-request latency excludes lowering *)
  Vm.Interp.preflatten u;
  (if opts.mode = Jit_options.Interp then begin
     Vm.Interp.call_dispatch := Vm.Interp.call_interpreted;
     Vm.Interp.translation_hook := (fun _ _ -> Vm.Interp.NoTranslation);
     Vm.Interp.hook_active := false
   end else begin
     Vm.Interp.call_dispatch := (fun u fid args this_ -> call_func eng u fid args this_);
     Vm.Interp.translation_hook :=
       (fun frame pc -> try_enter eng (ctx_of eng) frame pc);
     Vm.Interp.hook_active := true
   end);
  publish_epoch eng (fresh_rows u [||]);
  eng

(* ------------------------------------------------------------------ *)
(* Parallel request serving (per-domain dispatch contexts)             *)
(* ------------------------------------------------------------------ *)

(** Turn this domain into a serving worker: pin the latest published epoch
    in a dispatch context of its own (private machine, private mono
    table).  The scheduler calls this once per worker domain. *)
let enter_serving (eng : t) : unit =
  let ep = Atomic.get eng.published in
  let ctx =
    { sx_machine = Exec.create_machine (); sx_epoch = ep;
      sx_mono = fresh_rows eng.hunit None }
  in
  adopt eng ctx ep;
  Domain.DLS.set serve_key (Some ctx)

(** Request boundary: the calling domain's context adopts the latest
    published epoch if it changed. *)
let begin_request (eng : t) : unit =
  let ctx = ctx_of eng in
  if catch_up eng ctx && Obs.Span.on () then Obs.Span.count Obs.Span.Adopt

(** Leave serving mode: the domain falls back to the main context.
    Returns the worker's machine so the scheduler can fold its counters
    into the main context's with [merge_machine]. *)
let exit_serving () : Exec.machine option =
  match Domain.DLS.get serve_key with
  | None -> None
  | Some ctx ->
    Domain.DLS.set serve_key None;
    Some ctx.sx_machine

(** Fold a joined serving worker's machine counters into the main
    context's machine, so process-wide exec/i-cache/I-TLB totals stay
    exact. *)
let merge_machine (eng : t) (w : Exec.machine) : unit =
  let m = eng.main_ctx.sx_machine in
  m.Exec.instrs_executed <- m.Exec.instrs_executed + w.Exec.instrs_executed;
  m.Exec.cycles_live <- m.Exec.cycles_live + w.Exec.cycles_live;
  m.Exec.cycles_prof <- m.Exec.cycles_prof + w.Exec.cycles_prof;
  m.Exec.cycles_opt <- m.Exec.cycles_opt + w.Exec.cycles_opt;
  let mi = m.Exec.icache and wi = w.Exec.icache in
  mi.Simcpu.Icache.accesses <- mi.Simcpu.Icache.accesses + wi.Simcpu.Icache.accesses;
  mi.Simcpu.Icache.misses <- mi.Simcpu.Icache.misses + wi.Simcpu.Icache.misses;
  let mt = m.Exec.itlb and wt = w.Exec.itlb in
  mt.Simcpu.Itlb.accesses <- mt.Simcpu.Itlb.accesses + wt.Simcpu.Itlb.accesses;
  mt.Simcpu.Itlb.misses <- mt.Simcpu.Itlb.misses + wt.Simcpu.Itlb.misses

let code_bytes (eng : t) : int = Simcpu.Codecache.bytes_used eng.cache

(** Retranslation-chain length at a srckey (test observability: the lease
    contention test asserts racing misses produced exactly one entry). *)
let chain_length (eng : t) ~(fid : int) ~(pc : int) : int =
  Array.length (chain_at (Atomic.get eng.published).ep_chains fid pc)

(** Sample the engine's level-style metrics into vmstats gauges.  These are
    cheap to read on demand but would be expensive to maintain per event,
    so dumps ([--vmstats], bench json) sync them just before reading. *)
let sync_vmstats (eng : t) : unit =
  let g name v = Obs.Vmstats.set (Obs.Vmstats.gauge name) v in
  let m = eng.main_ctx.sx_machine in
  let cb s = Simcpu.Codecache.section_bytes eng.cache s in
  g "code.bytes.main" (cb Simcpu.Codecache.Main);
  g "code.bytes.cold" (cb Simcpu.Codecache.Cold);
  g "code.bytes.prof" (cb Simcpu.Codecache.Prof);
  g "code.bytes.live" (cb Simcpu.Codecache.Live);
  g "code.bytes.used" (Simcpu.Codecache.bytes_used eng.cache);
  g "codecache.holes_bytes" (Simcpu.Codecache.holes_bytes eng.cache);
  g "icache.accesses" m.icache.Simcpu.Icache.accesses;
  g "icache.misses" m.icache.Simcpu.Icache.misses;
  g "itlb.accesses" m.itlb.Simcpu.Itlb.accesses;
  g "itlb.misses" m.itlb.Simcpu.Itlb.misses;
  g "exec.instrs" m.instrs_executed;
  g "cycles.live" m.cycles_live;
  g "cycles.prof" m.cycles_prof;
  g "cycles.opt" m.cycles_opt;
  g "cycles.total" (Runtime.Ledger.read ());
  let hs = Runtime.Heap.stats () in
  g "heap.allocated" hs.Runtime.Heap.allocated;
  g "heap.freed" hs.Runtime.Heap.freed;
  g "heap.live" hs.Runtime.Heap.live;
  g "heap.incref_ops" hs.Runtime.Heap.incref_ops;
  g "heap.decref_ops" hs.Runtime.Heap.decref_ops;
  g "interp.instrs" (Vm.Interp.instr_count ());
  g "trans.live" eng.n_live;
  g "trans.profiling" eng.n_profiling;
  g "trans.optimized" eng.n_optimized;
  g "engine.generation" eng.generation;
  g "engine.compiles" eng.compile_count
