let needs_escape = function '\\' | '\t' | '\n' | '\r' -> true | _ -> false

let rec clean_from s i =
  i >= String.length s || ((not (needs_escape s.[i])) && clean_from s (i + 1))

let escape_into buf s =
  if clean_from s 0 then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      match s.[i] with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c
    done

let escape s =
  if clean_from s 0 then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    escape_into buf s;
    Buffer.contents buf
  end

let rec has_backslash s i =
  i < String.length s
  && (String.unsafe_get s i = '\\' || has_backslash s (i + 1))

let unescape s =
  if not (has_backslash s 0) then s
  else begin
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let rec loop i =
      if i >= n then ()
      else if s.[i] = '\\' && i + 1 < n then begin
        (match s.[i + 1] with
        | '\\' -> Buffer.add_char buf '\\'
        | 't' -> Buffer.add_char buf '\t'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | c ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c);
        loop (i + 2)
      end
      else begin
        Buffer.add_char buf s.[i];
        loop (i + 1)
      end
    in
    loop 0;
    Buffer.contents buf
  end

let add_record buf fs =
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf '\t';
      escape_into buf f)
    fs

let record fs =
  let buf = Buffer.create 64 in
  add_record buf fs;
  Buffer.contents buf

(* one forward pass: each field is copied once, and unescaped only when
   the scan that found its end saw a backslash in it *)
let fields_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Serial.fields_sub";
  let stop = pos + len in
  let rec go acc start i escaped =
    if i = stop || String.unsafe_get s i = '\t' then begin
      let f = String.sub s start (i - start) in
      let acc = (if escaped then unescape f else f) :: acc in
      if i = stop then List.rev acc else go acc (i + 1) (i + 1) false
    end
    else go acc start (i + 1) (escaped || String.unsafe_get s i = '\\')
  in
  go [] pos pos false

let fields line = fields_sub line ~pos:0 ~len:(String.length line)

(* %h hex floats round-trip exactly and are locale-independent, but the
   non-finite renderings are platform/libc prose ("infinity", "-nan", ...)
   — pin them to fixed tokens so checksummed records never embed
   surprising float text. *)
let float_to_string f =
  match classify_float f with
  | FP_nan -> "nan"
  | FP_infinite -> if f > 0.0 then "inf" else "-inf"
  | FP_normal | FP_subnormal | FP_zero -> Printf.sprintf "%h" f

let float_of_string_exn s =
  match s with
  | "nan" -> Float.nan
  | "inf" -> Float.infinity
  | "-inf" -> Float.neg_infinity
  | s -> (
      match float_of_string_opt s with
      | Some f -> f
      | None -> invalid_arg (Printf.sprintf "Serial.float_of_string_exn: %S" s))
