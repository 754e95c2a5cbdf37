(* The indirect edges a solve propagates along. The SVFG holds the
   intraprocedural and direct-call ones; the interprocedural edges of an
   indirect call edge are wired by the solver that resolves it, in its own
   state, and are recomputed here from its call graph. *)

open Pta_ir
module Svfg = Pta_svfg.Svfg

(* [f src o dst] for each edge of every indirect call edge in [cg]. *)
let iter_call_edges svfg cg f =
  let p = Svfg.prog svfg in
  Callgraph.iter_edges cg (fun cs g ->
      match Prog.inst (Prog.func p cs.Callgraph.cs_func) cs.Callgraph.cs_inst with
      | Inst.Call { callee = Inst.Indirect _; _ } -> Svfg.iter_call_edges svfg cs g f
      | _ -> ())

let n_call_edges svfg cg =
  let n = ref 0 in
  iter_call_edges svfg cg (fun _ _ _ -> incr n);
  !n

(* [f src o dst] for each edge of the SVFG, then each one [cg] wires. *)
let iter_edges svfg cg f =
  for n = 0 to Svfg.n_nodes svfg - 1 do
    Svfg.iter_ind_all svfg n (f n)
  done;
  iter_call_edges svfg cg f
