type node =
  | Element of { tag : string; attrs : (string * string) list; children : node list }
  | Text of string

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let looking_at c prefix =
  let n = String.length prefix in
  c.pos + n <= String.length c.src && String.sub c.src c.pos n = prefix

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | Some _ | None -> false
  do
    advance c
  done

let is_name_char ch =
  (ch >= 'a' && ch <= 'z')
  || (ch >= 'A' && ch <= 'Z')
  || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = '.' || ch = ':'

let read_name c =
  let start = c.pos in
  while (match peek c with Some ch -> is_name_char ch | None -> false) do
    advance c
  done;
  if c.pos = start then fail "expected name at offset %d" c.pos;
  String.sub c.src start (c.pos - start)

let decode_entities s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i >= n then ()
    else if s.[i] = '&' then begin
      match String.index_from_opt s i ';' with
      | Some j when j - i <= 6 ->
          (match String.sub s (i + 1) (j - i - 1) with
          | "amp" -> Buffer.add_char buf '&'
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | other -> Buffer.add_string buf ("&" ^ other ^ ";"));
          loop (j + 1)
      | Some _ | None ->
          Buffer.add_char buf '&';
          loop (i + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0;
  Buffer.contents buf

let read_until c stop =
  match String.index_from_opt c.src c.pos stop with
  | None -> fail "unterminated construct at offset %d" c.pos
  | Some j ->
      let s = String.sub c.src c.pos (j - c.pos) in
      c.pos <- j;
      s

let skip_past c marker =
  let rec loop () =
    if looking_at c marker then c.pos <- c.pos + String.length marker
    else if c.pos >= String.length c.src then fail "unterminated %s" marker
    else begin
      advance c;
      loop ()
    end
  in
  loop ()

let read_attrs c =
  let attrs = ref [] in
  let rec loop () =
    skip_ws c;
    match peek c with
    | Some ch when is_name_char ch ->
        let name = read_name c in
        skip_ws c;
        (match peek c with
        | Some '=' ->
            advance c;
            skip_ws c;
            (match peek c with
            | Some (('"' | '\'') as q) ->
                advance c;
                let v = read_until c q in
                advance c;
                attrs := (name, decode_entities v) :: !attrs
            | Some _ | None -> fail "expected quoted attribute value for %s" name)
        | Some _ | None -> attrs := (name, "") :: !attrs);
        loop ()
    | Some _ | None -> ()
  in
  loop ();
  List.rev !attrs

let rec parse_element c =
  (* cursor sits on '<' of an opening tag *)
  advance c;
  let tag = read_name c in
  let attrs = read_attrs c in
  skip_ws c;
  if looking_at c "/>" then begin
    c.pos <- c.pos + 2;
    Element { tag; attrs; children = [] }
  end
  else begin
    (match peek c with
    | Some '>' -> advance c
    | Some ch -> fail "unexpected %c in tag %s" ch tag
    | None -> fail "unexpected end of input in tag %s" tag);
    let children = parse_children c tag in
    Element { tag; attrs; children }
  end

and parse_children c tag =
  let children = ref [] in
  let rec loop () =
    if c.pos >= String.length c.src then fail "missing </%s>" tag
    else if looking_at c "</" then begin
      c.pos <- c.pos + 2;
      let close = read_name c in
      if close <> tag then fail "mismatched </%s>, expected </%s>" close tag;
      skip_ws c;
      match peek c with
      | Some '>' -> advance c
      | Some _ | None -> fail "malformed close tag </%s>" close
    end
    else if looking_at c "<!--" then begin
      skip_past c "-->";
      loop ()
    end
    else if looking_at c "<![CDATA[" then begin
      c.pos <- c.pos + 9;
      let start = c.pos in
      skip_past c "]]>";
      let v = String.sub c.src start (c.pos - start - 3) in
      children := Text v :: !children;
      loop ()
    end
    else if looking_at c "<?" then begin
      skip_past c "?>";
      loop ()
    end
    else if looking_at c "<" then begin
      children := parse_element c :: !children;
      loop ()
    end
    else begin
      let start = c.pos in
      while (match peek c with Some '<' -> false | Some _ -> true | None -> false) do
        advance c
      done;
      let raw = String.sub c.src start (c.pos - start) in
      if String.trim raw <> "" then children := Text (decode_entities raw) :: !children;
      loop ()
    end
  in
  loop ();
  List.rev !children

let parse doc =
  let c = { src = doc; pos = 0 } in
  let rec find_root () =
    skip_ws c;
    if looking_at c "<?" then begin
      skip_past c "?>";
      find_root ()
    end
    else if looking_at c "<!--" then begin
      skip_past c "-->";
      find_root ()
    end
    else if looking_at c "<!" then begin
      skip_past c ">";
      find_root ()
    end
    else if looking_at c "<" then parse_element c
    else fail "no root element"
  in
  find_root ()

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec render = function
  | Text s -> escape s
  | Element { tag; attrs; children } ->
      let attrs_s =
        String.concat ""
          (List.map (fun (k, v) -> Printf.sprintf " %s=\"%s\"" k (escape v)) attrs)
      in
      if children = [] then Printf.sprintf "<%s%s/>" tag attrs_s
      else
        Printf.sprintf "<%s%s>%s</%s>" tag attrs_s
          (String.concat "" (List.map render children))
          tag
