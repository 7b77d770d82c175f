type ty = Tint | Tfloat | Ttext

type t =
  | Null
  | Int of int
  | Float of float
  | Text of string

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | (Int _ | Float _), Text _ -> -1
  | Text _, (Int _ | Float _) -> 1
  | Text x, Text y -> String.compare x y

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Int x -> Hashtbl.hash (1, x)
  | Float x ->
      if Float.is_integer x && Float.abs x < 1e15 then
        Hashtbl.hash (1, int_of_float x)
      else Hashtbl.hash (2, x)
  | Text s -> Hashtbl.hash (3, s)

let is_null = function Null -> true | Int _ | Float _ | Text _ -> false

let to_string = function
  | Null -> ""
  | Int x -> string_of_int x
  | Float x ->
      if Float.is_integer x && Float.abs x < 1e15 then
        Printf.sprintf "%.1f" x
      else string_of_float x
  | Text s -> s

let is_int_literal s =
  let n = String.length s in
  if n = 0 then false
  else
    let start = if s.[0] = '-' || s.[0] = '+' then 1 else 0 in
    start < n
    &&
    let rec loop i = i >= n || (s.[i] >= '0' && s.[i] <= '9' && loop (i + 1)) in
    loop start

let is_float_literal s =
  match float_of_string_opt s with
  | None -> false
  | Some _ ->
      (* reject hex floats and "nan"/"inf" spellings: sources never use them *)
      String.for_all
        (fun c -> (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E')
        s

let of_string s =
  if s = "" || s = "\\N" then Null
  else if is_int_literal s then
    match int_of_string_opt s with Some i -> Int i | None -> Text s
  else if is_float_literal s then Float (float_of_string s)
  else Text s

let text s = Text s

let as_text = function Text s -> Some s | Null | Int _ | Float _ -> None

let is_numeric = function Int _ | Float _ -> true | Null | Text _ -> false

let contains_alpha v =
  let s = to_string v in
  String.exists (fun c -> (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) s

let length v = String.length (to_string v)
