type counts = { tp : int; fp : int; fn : int }

type scores = { precision : float; recall : float; f1 : float }

let of_counts { tp; fp; fn } =
  let precision =
    if tp + fp = 0 then 1.0 else float_of_int tp /. float_of_int (tp + fp)
  in
  let recall =
    if tp + fn = 0 then 1.0 else float_of_int tp /. float_of_int (tp + fn)
  in
  let f1 =
    if precision +. recall = 0.0 then 0.0
    else 2.0 *. precision *. recall /. (precision +. recall)
  in
  { precision; recall; f1 }

let to_set xs =
  let tbl = Hashtbl.create (List.length xs) in
  List.iter (fun x -> Hashtbl.replace tbl x ()) xs;
  tbl

let compare_sets ~expected ~predicted =
  let e = to_set expected and p = to_set predicted in
  let tp = ref 0 and fp = ref 0 and fn = ref 0 in
  Hashtbl.iter (fun x () -> if Hashtbl.mem e x then incr tp else incr fp) p;
  Hashtbl.iter (fun x () -> if not (Hashtbl.mem p x) then incr fn) e;
  { tp = !tp; fp = !fp; fn = !fn }

let evaluate ~expected ~predicted =
  of_counts (compare_sets ~expected ~predicted)

let pair_key a b = if a <= b then a ^ "\x00" ^ b else b ^ "\x00" ^ a

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
