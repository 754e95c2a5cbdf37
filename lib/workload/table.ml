type align = L | R

let render ppf ~header ~align rows =
  let ncols = List.length header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  measure header;
  List.iter measure rows;
  let align = Array.of_list align in
  let pad i cell =
    let w = widths.(i) in
    let n = w - String.length cell in
    let fill = String.make (max n 0) ' ' in
    match if i < Array.length align then align.(i) else L with
    | L -> cell ^ fill
    | R -> fill ^ cell
  in
  let rule () =
    Format.fprintf ppf "%s@."
      (String.concat "-+-"
         (Array.to_list (Array.map (fun w -> String.make w '-') widths)))
  in
  let row_out row =
    Format.fprintf ppf "%s@." (String.concat " | " (List.mapi pad row))
  in
  rule ();
  row_out header;
  rule ();
  List.iter row_out rows;
  rule ()

let geomean xs =
  let xs = List.filter (fun x -> x > 0.) xs in
  match xs with
  | [] -> 0.
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float (List.length xs))

let human_seconds s =
  if s < 0.001 then Printf.sprintf "%.2fus" (s *. 1e6)
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fs" s

let ratio a b =
  if b <= 0. || a <= 0. then "-" else Printf.sprintf "%.2fx" (a /. b)
