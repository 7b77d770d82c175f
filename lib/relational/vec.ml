type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (length %d)" i v.len)

let get v i =
  check v i;
  v.data.(i)

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let data = Array.make cap' x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let find_opt p v =
  let rec loop i =
    if i >= v.len then None
    else if p v.data.(i) then Some v.data.(i)
    else loop (i + 1)
  in
  loop 0

let to_list v = List.init v.len (fun i -> v.data.(i))
