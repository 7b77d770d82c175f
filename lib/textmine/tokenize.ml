let is_word_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let split_words s =
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  String.iter (fun c -> if is_word_char c then Buffer.add_char buf c else flush ()) s;
  flush ();
  List.rev !out

let words s = List.map String.lowercase_ascii (split_words s)

let words_raw s = split_words s

let stopwords =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun w -> Hashtbl.replace tbl w ())
    [
      "a"; "an"; "and"; "are"; "as"; "at"; "be"; "by"; "for"; "from"; "has";
      "in"; "is"; "it"; "its"; "of"; "on"; "or"; "that"; "the"; "this"; "to";
      "was"; "which"; "with"; "putative"; "probable"; "predicted";
      "hypothetical"; "uncharacterized"; "fragment"; "precursor";
    ];
  tbl

let stopword w = Hashtbl.mem stopwords (String.lowercase_ascii w)

let terms s =
  List.filter (fun w -> String.length w > 1 && not (stopword w)) (words s)
