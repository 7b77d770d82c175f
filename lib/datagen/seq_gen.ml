module Sq = Aladin_seq

let dna rng n =
  String.init n (fun _ -> Sq.Alphabet.dna.[Rng.int rng 4])

let protein rng n =
  String.init n (fun _ -> Sq.Alphabet.protein.[Rng.int rng 20])

let alphabet_of s =
  if Sq.Alphabet.is_over ~alphabet:Sq.Alphabet.dna s then Sq.Alphabet.dna
  else Sq.Alphabet.protein

let mutate rng ~rate s =
  let alphabet = alphabet_of s in
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if Rng.chance rng (rate /. 10.0) then () (* deletion *)
      else begin
        let c' =
          if Rng.chance rng rate then alphabet.[Rng.int rng (String.length alphabet)]
          else c
        in
        Buffer.add_char buf c';
        if Rng.chance rng (rate /. 10.0) then Buffer.add_char buf c' (* duplication *)
      end)
    s;
  Buffer.contents buf
