type mention = { surface : string; start : int; score : float }

type t = { dict : (string, unit) Hashtbl.t }

let create () = { dict = Hashtbl.create 256 }

let add_dictionary t names =
  List.iter
    (fun n -> Hashtbl.replace t.dict (String.lowercase_ascii n) ())
    names

let has_digit s = String.exists (fun c -> c >= '0' && c <= '9') s

let has_upper s = String.exists (fun c -> c >= 'A' && c <= 'Z') s

let has_lower s = String.exists (fun c -> c >= 'a' && c <= 'z') s

let internal_upper s =
  String.length s > 1
  && String.exists (fun c -> c >= 'A' && c <= 'Z') (String.sub s 1 (String.length s - 1))

let all_upper s = has_upper s && not (has_lower s)

let surface_score token =
  let n = String.length token in
  if n < 2 || n > 20 then 0.0
  else if Tokenize.stopword token then 0.0
  else begin
    let score = ref 0.0 in
    let letters = has_upper token || has_lower token in
    if letters && has_digit token then score := !score +. 0.5;
    if all_upper token && n >= 2 && n <= 8 then score := !score +. 0.3;
    if internal_upper token && has_lower token then score := !score +. 0.3;
    (* short lowercase+digit names like p53 *)
    if n <= 5 && has_digit token && has_lower token then score := !score +. 0.2;
    Float.min 1.0 !score
  end

(* Dictionary-only recognition for the linking path: when every mention is
   immediately looked up in the dictionary anyway, scoring the surface
   shape of every non-dictionary token is pure waste (tokens vastly
   outnumber dictionary hits). Produces exactly the mentions [recognize]
   would that survive a dictionary-membership filter. *)
let recognize_dictionary t text =
  let rec go i acc = function
    | [] -> List.rev acc
    | surface :: rest ->
        let acc =
          if Tokenize.stopword surface then acc
          else if Hashtbl.mem t.dict (String.lowercase_ascii surface) then
            { surface; start = i; score = 1.0 } :: acc
          else acc
        in
        go (i + 1) acc rest
  in
  go 0 [] (Tokenize.words_raw text)

let recognize t ?(min_score = 0.5) text =
  Tokenize.words_raw text
  |> List.mapi (fun i tok -> (i, tok))
  |> List.filter_map (fun (start, surface) ->
         if Tokenize.stopword surface then None
         else if Hashtbl.mem t.dict (String.lowercase_ascii surface) then
           Some { surface; start; score = 1.0 }
         else
           let score = surface_score surface in
           if score >= min_score then Some { surface; start; score } else None)
