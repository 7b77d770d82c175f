module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type t = unit Vtbl.t

let create ?(size = 64) () = Vtbl.create size

let add t v = if not (Vtbl.mem t v) then Vtbl.add t v ()

let mem t v = Vtbl.mem t v

let cardinal t = Vtbl.length t

let iter f t = Vtbl.iter (fun v () -> f v) t

let of_list vs =
  let t = create () in
  List.iter (add t) vs;
  t

let of_column values =
  let t = create ~size:(Array.length values) () in
  Array.iter (fun v -> if not (Value.is_null v) then add t v) values;
  t

let subset a b =
  cardinal a <= cardinal b
  &&
  let ok = ref true in
  (try iter (fun v -> if not (mem b v) then begin ok := false; raise Exit end) a
   with Exit -> ());
  !ok

let equal a b = cardinal a = cardinal b && subset a b

let inter_count a b =
  let small, large = if cardinal a <= cardinal b then (a, b) else (b, a) in
  let n = ref 0 in
  iter (fun v -> if mem large v then incr n) small;
  !n
