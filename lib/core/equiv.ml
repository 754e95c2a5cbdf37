open Pta_ds
open Pta_ir
module Svfg = Pta_svfg.Svfg

type report = {
  top_level_mismatches : (Inst.var * string) list;
  load_mismatches : (int * Inst.var * string) list;
}

let set_to_string prog s =
  "{"
  ^ String.concat "," (List.map (Prog.name prog) (Bitset.elements s))
  ^ "}"

let compare sfs vsfs svfg =
  let prog = Svfg.prog svfg in
  let empty = Bitset.create () in
  let top = ref [] in
  Prog.iter_vars prog (fun v ->
      if Prog.is_top prog v then begin
        let a = Pta_sfs.Sfs.pt sfs v and b = Vsfs.pt vsfs v in
        if not (Bitset.equal a b) then
          top :=
            ( v,
              Printf.sprintf "sfs=%s vsfs=%s" (set_to_string prog a)
                (set_to_string prog b) )
            :: !top
      end);
  (* Compare what each load reads per object: a load's slots are its μ. *)
  let loads = ref [] in
  for s = 0 to Svfg.n_slots svfg - 1 do
    let n = Svfg.slot_node svfg s and o = Svfg.slot_obj svfg s in
    match Svfg.kind svfg n with
    | Svfg.NInst _ when Inst.is_load (Svfg.inst_of svfg n) ->
      let a = Option.value ~default:empty (Pta_sfs.Sfs.in_set sfs n o) in
      let b = Option.value ~default:empty (Vsfs.consumed_pt vsfs n o) in
      if not (Bitset.equal a b) then
        loads :=
          ( n,
            o,
            Printf.sprintf "sfs=%s vsfs=%s" (set_to_string prog a)
              (set_to_string prog b) )
          :: !loads
    | _ -> ()
  done;
  { top_level_mismatches = !top; load_mismatches = !loads }

let is_equal r = r.top_level_mismatches = [] && r.load_mismatches = []

let pp_report prog ppf r =
  List.iter
    (fun (v, msg) ->
      Format.fprintf ppf "top-level %s: %s@." (Prog.name prog v) msg)
    r.top_level_mismatches;
  List.iter
    (fun (n, o, msg) ->
      Format.fprintf ppf "load node %d, object %s: %s@." n (Prog.name prog o)
        msg)
    r.load_mismatches
