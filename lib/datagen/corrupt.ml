let typo rng s =
  let n = String.length s in
  if n < 2 then s
  else
    let b = Bytes.of_string s in
    let i = Rng.int rng (n - 1) in
    (match Rng.int rng 4 with
    | 0 ->
        (* swap *)
        let c = Bytes.get b i in
        Bytes.set b i (Bytes.get b (i + 1));
        Bytes.set b (i + 1) c;
        ()
    | 1 ->
        (* replace *)
        Bytes.set b i (Char.chr (Char.code 'a' + Rng.int rng 26))
    | 2 ->
        (* delete: shift left *)
        Bytes.blit b (i + 1) b i (n - i - 1);
        Bytes.set b (n - 1) ' '
    | _ ->
        (* duplicate char (cheap insert) *)
        Bytes.set b (i + 1) (Bytes.get b i));
    String.trim (Bytes.to_string b)

let value rng ~rate s =
  let rec go s passes =
    if passes >= 3 || not (Rng.chance rng rate) then s
    else go (typo rng s) (passes + 1)
  in
  go s 0

let flip_bit_at s ~byte ~bit =
  let n = String.length s in
  if n = 0 || byte < 0 || byte >= n then s
  else begin
    let b = Bytes.of_string s in
    let c = Char.code (Bytes.get b byte) in
    Bytes.set b byte (Char.chr (c lxor (1 lsl (bit land 7))));
    Bytes.to_string b
  end

let truncate_at s n =
  let n = max 0 n in
  if n >= String.length s then s else String.sub s 0 n
