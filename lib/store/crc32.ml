(* Slicing-by-8: [tables] holds eight 256-entry tables back to back.
   Table 0 is the classic bytewise table; table k maps a byte to the CRC
   contribution of that byte followed by k zero bytes, so one step folds
   eight input bytes with eight lookups. Built when the module
   initialises, so no domain ever races another to build them. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
      else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- t.(prev land 0xff) lxor (prev lsr 8)
    done
  done;
  t

let byte s i = Char.code (String.unsafe_get s i)

let lookup k b = Array.unsafe_get tables ((k * 256) + b)

(* the caller has checked that [pos, pos + len) lies inside [s] *)
let update_range crc s pos len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let j = !i and v = !c in
    c :=
      lookup 7 (byte s j lxor (v land 0xff))
      lxor lookup 6 (byte s (j + 1) lxor ((v lsr 8) land 0xff))
      lxor lookup 5 (byte s (j + 2) lxor ((v lsr 16) land 0xff))
      lxor lookup 4 (byte s (j + 3) lxor (v lsr 24))
      lxor lookup 3 (byte s (j + 4))
      lxor lookup 2 (byte s (j + 5))
      lxor lookup 1 (byte s (j + 6))
      lxor lookup 0 (byte s (j + 7));
    i := j + 8
  done;
  for j = !i to pos + len - 1 do
    c := lookup 0 ((!c lxor byte s j) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let update crc s = update_range crc s 0 (String.length s)

let string s = update 0 s

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub"
  else update_range 0 s pos len

let hex_digits = "0123456789abcdef"

let to_hex crc =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set b i hex_digits.[(crc lsr (28 - (4 * i))) land 0xf]
  done;
  Bytes.unsafe_to_string b

(* [to_hex] is a bijection onto 8 lowercase hex digits, so comparing the
   rendering digit by digit is [of_hex (String.sub s pos 8) = Some crc] *)
let matches_hex crc s ~pos =
  pos >= 0
  && pos <= String.length s - 8
  &&
  let rec go i =
    i = 8
    || String.unsafe_get s (pos + i)
       = hex_digits.[(crc lsr (28 - (4 * i))) land 0xf]
       && go (i + 1)
  in
  go 0

(* exactly what to_hex produces: 8 lowercase hex digits. Not
   [int_of_string], which would also admit uppercase and underscores —
   bytes a single bit flip away from a valid stored checksum. *)
let of_hex s =
  let rec go i acc =
    if i = 8 then Some acc
    else
      match s.[i] with
      | '0' .. '9' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 48))
      | 'a' .. 'f' as c -> go (i + 1) ((acc lsl 4) lor (Char.code c - 87))
      | _ -> None
  in
  if String.length s <> 8 then None else go 0 0
