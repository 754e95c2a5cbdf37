type result = {
  comp : int array;
  n_comps : int;
  topo_rank : int array;
  sizes : int array;
}

(* Iterative Tarjan. Components are emitted successors-first, so emission
   order is reverse-topological; we invert it to get [topo_rank]. *)
let compute_succs ~n succs =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Stack.create () in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Explicit DFS stack: (node, remaining successors). *)
  let dfs root =
    let call = Stack.create () in
    let start v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      Stack.push v stack;
      on_stack.(v) <- true;
      Stack.push (v, ref (succs v)) call
    in
    start root;
    while not (Stack.is_empty call) do
      let v, rest = Stack.top call in
      match !rest with
      | w :: tl ->
        rest := tl;
        if index.(w) = -1 then start w
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
      | [] ->
        ignore (Stack.pop call);
        if lowlink.(v) = index.(v) then begin
          let continue = ref true in
          while !continue do
            let w = Stack.pop stack in
            on_stack.(w) <- false;
            comp.(w) <- !next_comp;
            if w = v then continue := false
          done;
          incr next_comp
        end;
        if not (Stack.is_empty call) then begin
          let parent, _ = Stack.top call in
          lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
        end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then dfs v
  done;
  let n_comps = !next_comp in
  (* Emission was reverse-topological: later components precede earlier ones
     in any topological order of the condensation. *)
  let topo_rank = Array.init n_comps (fun c -> n_comps - 1 - c) in
  let sizes = Array.make n_comps 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  { comp; n_comps; topo_rank; sizes }

let compute g =
  compute_succs ~n:(Digraph.n_nodes g) (fun v ->
      Pta_ds.Bitset.elements (Digraph.succs g v))

let rank_of_node r v = r.topo_rank.(r.comp.(v))

let is_trivial g r v =
  r.sizes.(r.comp.(v)) = 1 && not (Digraph.has_edge g v v)

let members r c =
  let acc = ref [] in
  Array.iteri (fun v cv -> if cv = c then acc := v :: !acc) r.comp;
  List.rev !acc
