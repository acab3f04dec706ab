(** The HHIR optimization pipeline (paper Fig. 7, HHIR column).

    Profiling translations skip the expensive passes (inlining happens at
    lowering time; load/store elimination and RCE are disabled) to keep
    compilation fast, per §4.1 item 5. *)

open Hhir.Lower

type pass_stats = {
  ps_simplified : int;
  ps_gvn : int;
  ps_loads : int;
  ps_stores : int;
  ps_rce_pairs : int;
  ps_dce : int;
  ps_unreachable : int;
}

(* per-pass telemetry: wall time spent in each pass plus the number of
   instructions each one changed/removed, for `--vmstats` pipeline reports *)
let t_simplify = Obs.Vmstats.timer "pass.simplify"
let t_load_elim = Obs.Vmstats.timer "pass.load_elim"
let t_gvn = Obs.Vmstats.timer "pass.gvn"
let t_store_elim = Obs.Vmstats.timer "pass.store_elim"
let t_rce = Obs.Vmstats.timer "pass.rce"
let t_dce = Obs.Vmstats.timer "pass.dce"
let t_unreachable = Obs.Vmstats.timer "pass.unreachable"
let c_simplify = Obs.Vmstats.counter "pass.simplify.changed"
let c_load_elim = Obs.Vmstats.counter "pass.load_elim.changed"
let c_gvn = Obs.Vmstats.counter "pass.gvn.changed"
let c_store_elim = Obs.Vmstats.counter "pass.store_elim.changed"
let c_rce = Obs.Vmstats.counter "pass.rce.changed"
let c_dce = Obs.Vmstats.counter "pass.dce.changed"
let c_unreachable = Obs.Vmstats.counter "pass.unreachable.changed"

let run ~(mode : mode) ~(opts : options) (u : Hhir.Ir.t) : pass_stats =
  let full = mode = Optimized in
  let pass t c f =
    let n = Obs.Vmstats.time t (fun () -> f u) in
    Obs.Vmstats.add c n;
    n
  in
  (* profiling translations skip even simplify: JIT speed over code speed *)
  let simplify () =
    if mode <> Profiling then pass t_simplify c_simplify Simplify.run else 0
  in
  let full_pass t c f = if full then pass t c f else 0 in
  let simplified = simplify () in
  let loads = full_pass t_load_elim c_load_elim Load_elim.run in
  let gvn = full_pass t_gvn c_gvn Gvn.run in
  let simplified = simplified + simplify () in
  let stores = full_pass t_store_elim c_store_elim Store_elim.run in
  let rce_pairs = if opts.o_rce then full_pass t_rce c_rce Rce.run else 0 in
  let dce = pass t_dce c_dce Dce.run in
  let unreachable = pass t_unreachable c_unreachable Unreachable.run in
  { ps_simplified = simplified;
    ps_gvn = gvn;
    ps_loads = loads;
    ps_stores = stores;
    ps_rce_pairs = rce_pairs;
    ps_dce = dce;
    ps_unreachable = unreachable }
