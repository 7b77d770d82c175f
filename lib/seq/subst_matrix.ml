type t = { table : string; gap_open : int; gap_extend : int }

let table_bias = 128

(* Each matrix is tabulated when the module initialises: pool domains
   align concurrently, so they must only ever read the table. One biased
   byte per score keeps a table at 64 KB, which every program linking
   this module pays; a score outside [-128, 127] fails here. *)
let tabulate lookup =
  String.init (256 * 256) (fun i ->
      Char.chr (lookup (Char.chr (i / 256)) (Char.chr (i mod 256)) + table_bias))

let nucleotide =
  let lookup a b =
    let a = Char.uppercase_ascii a and b = Char.uppercase_ascii b in
    if a = b then 5 else -4
  in
  { table = tabulate lookup; gap_open = -8; gap_extend = -2 }

(* BLOSUM62, row/column order A R N D C Q E G H I L K M F P S T W Y V. *)
let blosum62_order = "ARNDCQEGHILKMFPSTWYV"

let blosum62_rows =
  [|
    [| 4; -1; -2; -2; 0; -1; -1; 0; -2; -1; -1; -1; -1; -2; -1; 1; 0; -3; -2; 0 |];
    [| -1; 5; 0; -2; -3; 1; 0; -2; 0; -3; -2; 2; -1; -3; -2; -1; -1; -3; -2; -3 |];
    [| -2; 0; 6; 1; -3; 0; 0; 0; 1; -3; -3; 0; -2; -3; -2; 1; 0; -4; -2; -3 |];
    [| -2; -2; 1; 6; -3; 0; 2; -1; -1; -3; -4; -1; -3; -3; -1; 0; -1; -4; -3; -3 |];
    [| 0; -3; -3; -3; 9; -3; -4; -3; -3; -1; -1; -3; -1; -2; -3; -1; -1; -2; -2; -1 |];
    [| -1; 1; 0; 0; -3; 5; 2; -2; 0; -3; -2; 1; 0; -3; -1; 0; -1; -2; -1; -2 |];
    [| -1; 0; 0; 2; -4; 2; 5; -2; 0; -3; -3; 1; -2; -3; -1; 0; -1; -3; -2; -2 |];
    [| 0; -2; 0; -1; -3; -2; -2; 6; -2; -4; -4; -2; -3; -3; -2; 0; -2; -2; -3; -3 |];
    [| -2; 0; 1; -1; -3; 0; 0; -2; 8; -3; -3; -1; -2; -1; -2; -1; -2; -2; 2; -3 |];
    [| -1; -3; -3; -3; -1; -3; -3; -4; -3; 4; 2; -3; 1; 0; -3; -2; -1; -3; -1; 3 |];
    [| -1; -2; -3; -4; -1; -2; -3; -4; -3; 2; 4; -2; 2; 0; -3; -2; -1; -2; -1; 1 |];
    [| -1; 2; 0; -1; -3; 1; 1; -2; -1; -3; -2; 5; -1; -3; -1; 0; -1; -3; -2; -2 |];
    [| -1; -1; -2; -3; -1; 0; -2; -3; -2; 1; 2; -1; 5; 0; -2; -1; -1; -1; -1; 1 |];
    [| -2; -3; -3; -3; -2; -3; -3; -3; -1; 0; 0; -3; 0; 6; -4; -2; -2; 1; 3; -1 |];
    [| -1; -2; -2; -1; -3; -1; -1; -2; -2; -3; -3; -1; -2; -4; 7; -1; -1; -4; -3; -2 |];
    [| 1; -1; 1; 0; -1; 0; 0; 0; -1; -2; -2; 0; -1; -2; -1; 4; 1; -3; -2; -2 |];
    [| 0; -1; 0; -1; -1; -1; -1; -2; -2; -1; -1; -1; -1; -2; -1; 1; 5; -2; -2; 0 |];
    [| -3; -3; -4; -4; -2; -2; -3; -2; -2; -3; -2; -3; -1; 1; -4; -3; -2; 11; 2; -3 |];
    [| -2; -2; -2; -3; -2; -1; -2; -3; 2; -1; -1; -2; -1; 3; -3; -2; -2; 2; 7; -2 |];
    [| 0; -3; -3; -3; -1; -2; -2; -3; -3; 3; 1; -2; 1; -1; -2; -2; 0; -3; -2; 4 |];
  |]

let blosum62 =
  let index = Array.make 256 (-1) in
  String.iteri (fun i c -> index.(Char.code c) <- i) blosum62_order;
  let lookup a b =
    let ia = index.(Char.code (Char.uppercase_ascii a)) in
    let ib = index.(Char.code (Char.uppercase_ascii b)) in
    if ia < 0 || ib < 0 then -4 else blosum62_rows.(ia).(ib)
  in
  { table = tabulate lookup; gap_open = -11; gap_extend = -1 }

let score t a b =
  Char.code t.table.[(Char.code a * 256) + Char.code b] - table_bias

let table t = t.table

let for_kind = function
  | Alphabet.Dna | Alphabet.Rna -> nucleotide
  | Alphabet.Protein -> blosum62

let gap_open t = t.gap_open
