type t = { mutable state : int64 }

let create seed =
  { state = Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit int non-negatively *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod n

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let chance t p = float t 1.0 < p

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + int t (hi - lo + 1)

let choice t = function
  | [] -> invalid_arg "Rng.choice: empty list"
  | xs -> List.nth xs (int t (List.length xs))

let choice_arr t a =
  if Array.length a = 0 then invalid_arg "Rng.choice_arr: empty array";
  a.(int t (Array.length a))

let shuffle t xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let sample t k xs =
  let shuffled = shuffle t xs in
  List.filteri (fun i _ -> i < k) shuffled

let digits t n = String.init n (fun _ -> Char.chr (Char.code '0' + int t 10))

let letters t n = String.init n (fun _ -> Char.chr (Char.code 'A' + int t 26))

let pattern t p =
  String.init (String.length p) (fun i ->
      match p.[i] with
      | '#' -> Char.chr (Char.code '0' + int t 10)
      | '@' -> Char.chr (Char.code 'A' + int t 26)
      | c -> c)
