type kind = Dna | Rna | Protein

let dna = "ACGT"

let rna = "ACGU"

let protein = "ACDEFGHIKLMNPQRSTVWY"

let normalize s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> ()
      | 'a' .. 'z' -> Buffer.add_char buf (Char.uppercase_ascii c)
      | _ -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let is_over ~alphabet s =
  let s = normalize s in
  s <> "" && String.for_all (fun c -> String.contains alphabet c) s

(* per byte, the alphabets that hold it after normalization (lowercase
   letters count as uppercase): bit 1 DNA, 2 RNA, 4 protein *)
let membership =
  let t = Array.make 256 0 in
  List.iter
    (fun (alphabet, bit) ->
      String.iter
        (fun c ->
          List.iter
            (fun c -> t.(Char.code c) <- t.(Char.code c) lor bit)
            [ c; Char.lowercase_ascii c ])
        alphabet)
    [ (dna, 1); (rna, 2); (protein, 4) ];
  t

(* one pass over the raw value, without building its normalized form:
   the normalized length, and the bits of the alphabets that hold every
   normalized character *)
let scan s =
  let len = ref 0 and bits = ref 7 in
  String.iter
    (function
      | ' ' | '\t' | '\n' | '\r' -> ()
      | c ->
          incr len;
          bits := !bits land membership.(Char.code c))
    s;
  (!len, !bits)

let kind_of ~min_len (len, bits) =
  if len = 0 || len < min_len then None
  else if bits land 1 <> 0 then Some Dna
  else if bits land 2 <> 0 then Some Rna
  else if bits land 4 <> 0 then Some Protein
  else None

let classify ?(min_len = 10) s = kind_of ~min_len (scan s)

(* the share of a column's non-empty values that must agree on a kind *)
let min_frac = 0.9

let classify_column ?(min_len = 10) values =
  (* each value scanned and classified once *)
  let nonempty = ref 0 and dna = ref 0 and rna = ref 0 and protein = ref 0 in
  List.iter
    (fun s ->
      let ((len, _) as scanned) = scan s in
      if len > 0 then begin
        incr nonempty;
        match kind_of ~min_len scanned with
        | Some Dna -> incr dna
        | Some Rna -> incr rna
        | Some Protein -> incr protein
        | None -> ()
      end)
    values;
  (* the most frequent kind, DNA > RNA > Protein on ties *)
  let kind, n =
    List.fold_left
      (fun (k, n) (k', n') -> if n' > n then (k', n') else (k, n))
      (Dna, !dna)
      [ (Rna, !rna); (Protein, !protein) ]
  in
  if !nonempty > 0 && float_of_int n >= min_frac *. float_of_int !nonempty
  then Some kind
  else None
