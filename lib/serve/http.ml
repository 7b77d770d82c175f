type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let response ?(headers = []) ?(content_type = "text/plain; charset=utf-8")
    status body =
  { status; headers = ("content-type", content_type) :: headers; body }

(* ASCII case-insensitive equality, without lowercased copies *)
let equal_ci a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || (Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i] && go (i + 1))
  in
  go 0

let header r name =
  List.find_map (fun (k, v) -> if equal_ci k name then Some v else None) r.headers

let with_header r name value =
  let rest = List.filter (fun (k, _) -> not (equal_ci k name)) r.headers in
  { r with headers = rest @ [ (String.lowercase_ascii name, value) ] }

let query_param req name = List.assoc_opt name req.query

(* --- percent coding --- *)

let hex_val c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let pct_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then begin
      (match s.[i] with
      | '+' ->
          Buffer.add_char b ' ';
          go (i + 1)
      | '%' when i + 2 < n && hex_val s.[i + 1] >= 0 && hex_val s.[i + 2] >= 0 ->
          Buffer.add_char b
            (Char.chr ((hex_val s.[i + 1] * 16) + hex_val s.[i + 2]));
          go (i + 3)
      | c ->
          Buffer.add_char b c;
          go (i + 1))
    end
  in
  go 0;
  Buffer.contents b

let unreserved c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '_' | '~' -> true
  | _ -> false

let pct_encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if unreserved c then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Aladin_obs.Sink.add_json_string b s;
  Buffer.contents b

(* --- parsing --- *)

let parse_query qs =
  if qs = "" then []
  else
    String.split_on_char '&' qs
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | Some i ->
                 Some
                   ( pct_decode (String.sub kv 0 i),
                     pct_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) )
             | None -> Some (pct_decode kv, ""))

let parse_target target =
  match String.index_opt target '?' with
  | Some i ->
      ( pct_decode (String.sub target 0 i),
        parse_query (String.sub target (i + 1) (String.length target - i - 1)) )
  | None -> (pct_decode target, [])

(* the lines of a head, each without its trailing \r *)
let head_lines head =
  String.split_on_char '\n' head
  |> List.map (fun l ->
         let n = String.length l in
         if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)

(* "name: value" lines, names lowercased, both trimmed; a line without a
   colon is skipped *)
let parse_headers lines =
  List.filter_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i ->
          Some
            ( String.lowercase_ascii (String.trim (String.sub l 0 i)),
              String.trim (String.sub l (i + 1) (String.length l - i - 1)) )
      | None -> None)
    (List.filter (( <> ) "") lines)

let is_http_version v = String.length v >= 5 && String.sub v 0 5 = "HTTP/"

let parse_request head =
  match head_lines head with
  | [] -> Error "empty request"
  | rl :: rest -> (
      match String.split_on_char ' ' rl with
      | [ meth; target; version ] when is_http_version version ->
          let path, query = parse_target target in
          Ok { meth; target; path; query; headers = parse_headers rest }
      | _ -> Error (Printf.sprintf "malformed request line %S" rl))

let normalize_target req =
  let params =
    List.stable_sort (fun (a, _) (b, _) -> String.compare a b) req.query
  in
  match params with
  | [] -> req.path
  | ps ->
      req.path ^ "?"
      ^ String.concat "&"
          (List.map (fun (k, v) -> pct_encode k ^ "=" ^ pct_encode v) ps)

(* --- rendering --- *)

(* the head is built first, so that the whole response goes into one
   buffer of its exact size: the body is copied once *)
let render r =
  let head = Buffer.create 256 in
  let add = Buffer.add_string head in
  add "HTTP/1.1 ";
  add (string_of_int r.status);
  add " ";
  add (reason r.status);
  add "\r\n";
  List.iter
    (fun (k, v) ->
      add k;
      add ": ";
      add v;
      add "\r\n")
    r.headers;
  add "content-length: ";
  add (string_of_int (String.length r.body));
  add "\r\nconnection: close\r\n\r\n";
  let head_len = Buffer.length head and body_len = String.length r.body in
  let b = Bytes.create (head_len + body_len) in
  Buffer.blit head 0 b 0 head_len;
  Bytes.blit_string r.body 0 b head_len body_len;
  (* [b] is never written again *)
  Bytes.unsafe_to_string b

(* --- response parsing --- *)

(* (head length, offset just past the \r\n\r\n or \n\n separator) in the
   first [len] bytes of [b], for a separator ending at or after [from] *)
let find_head_end ?(from = 0) b len =
  let rec go i =
    if i >= len then None
    else if Bytes.get b i = '\n' then
      if
        i >= 3
        && Bytes.get b (i - 1) = '\r'
        && Bytes.get b (i - 2) = '\n'
        && Bytes.get b (i - 3) = '\r'
      then Some (i - 3, i + 1)
      else if i >= 1 && Bytes.get b (i - 1) = '\n' then Some (i - 1, i + 1)
      else go (i + 1)
    else go (i + 1)
  in
  go from

(* status line and headers of a response head *)
let parse_response_head head =
  match head_lines head with
  | [] -> Error "empty response head"
  | sl :: rest -> (
      match String.split_on_char ' ' sl with
      | version :: code :: _ when is_http_version version -> (
          match int_of_string_opt code with
          | None -> Error (Printf.sprintf "bad status code %S" code)
          | Some status -> Ok (status, parse_headers rest))
      | _ -> Error (Printf.sprintf "malformed status line %S" sl))

(* [Ok None] when the head has no Content-Length *)
let content_length headers =
  match List.assoc_opt "content-length" headers with
  | None -> Ok None
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok (Some n)
      | _ -> Error (Printf.sprintf "bad content-length %S" v))

let cut_short ~got n =
  Error (Printf.sprintf "response body cut short: %d of %d bytes" got n)

let ( let* ) = Result.bind

let parse_response raw =
  let* head_len, body_off =
    Option.to_result ~none:"no header terminator in response"
      (find_head_end (Bytes.unsafe_of_string raw) (String.length raw))
  in
  let* status, headers = parse_response_head (String.sub raw 0 head_len) in
  let have = String.length raw - body_off in
  let* length = content_length headers in
  match length with
  | Some n when n > have -> cut_short ~got:have n
  | Some n -> Ok { status; headers; body = String.sub raw body_off n }
  | None -> Ok { status; headers; body = String.sub raw body_off have }

(* --- descriptor I/O --- *)

let header_of (req : request) name = List.assoc_opt name req.headers

(* one read into [b] at [off] of at most [len] bytes; [Ok 0] at end of
   file *)
let rec read_some ~what fd b off len =
  match Unix.read fd b off len with
  | k -> Ok k
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      Error ("timed out reading " ^ what)
  | exception Unix.Unix_error (EINTR, _, _) -> read_some ~what fd b off len
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* [b], or [b] doubled when its first [len] bytes fill it *)
let room b len =
  if len < Bytes.length b then b else Bytes.extend b 0 (Bytes.length b)

(* Read until a whole head has arrived. Returns the buffer, how many
   bytes it holds (the head and whatever followed it in the same reads)
   and the head's end as [find_head_end] gives it. The buffer starts at
   1 KiB, small enough for the minor heap, and doubles for longer heads. *)
let read_head ~what ~max_head fd =
  let rec fill buf len =
    if len > max_head then Error (what ^ " head too large")
    else
      let buf = room buf len in
      let* k = read_some ~what fd buf len (Bytes.length buf - len) in
      if k = 0 then Error ("connection closed before " ^ what ^ " head")
      else
        match find_head_end ~from:len buf (len + k) with
        | Some (head_len, body_off) -> Ok (buf, len + k, head_len, body_off)
        | None -> fill buf (len + k)
  in
  fill (Bytes.create 1024) 0

let read_request fd =
  let* buf, len, head_len, body_off =
    read_head ~what:"request" ~max_head:16384 fd
  in
  let* req = parse_request (Bytes.sub_string buf 0 head_len) in
  (* drain any body so the peer never sees a reset before our response;
     GET bodies are ignored *)
  (match header_of req "content-length" with
  | Some n -> (
      match int_of_string_opt (String.trim n) with
      | Some want when want > 0 ->
          let have = ref (len - body_off) in
          (try
             while !have < want && want <= 1_048_576 do
               match Unix.read fd buf 0 (Bytes.length buf) with
               | 0 -> have := want
               | k -> have := !have + k
             done
           with Unix.Unix_error (_, _, _) -> ())
      | _ -> ())
  | None -> ());
  Ok req

(* read into [b] from [got] on until it is full *)
let rec read_exactly fd b got =
  let n = Bytes.length b in
  if got = n then Ok ()
  else
    let* k = read_some ~what:"response" fd b got (n - got) in
    if k = 0 then cut_short ~got n else read_exactly fd b (got + k)

(* the largest response body a client reads *)
let max_body = 16 * 1024 * 1024

(* a body without Content-Length runs to end of file *)
let rec read_to_eof ~limit fd buf len =
  if len > limit then Error "response too large"
  else
    let buf = room buf len in
    let* k = read_some ~what:"response" fd buf len (Bytes.length buf - len) in
    if k = 0 then Ok (buf, len) else read_to_eof ~limit fd buf (len + k)

let read_response fd =
  let* buf, len, head_len, body_off =
    read_head ~what:"response" ~max_head:65536 fd
  in
  let* status, headers =
    parse_response_head (Bytes.sub_string buf 0 head_len)
  in
  let* length = content_length headers in
  match length with
  | Some n when n > max_body ->
      Error
        (Printf.sprintf "response body of %d bytes is over the %d-byte limit" n
           max_body)
  | Some n ->
      (* one buffer of the body's size: what came with the head, then
         exactly the rest, and no read past it *)
      let body = Bytes.create n in
      let got = min n (len - body_off) in
      Bytes.blit buf body_off body 0 got;
      let* () = read_exactly fd body got in
      (* [body] is never written again *)
      Ok { status; headers; body = Bytes.unsafe_to_string body }
  | None ->
      let* buf, len = read_to_eof ~limit:(body_off + max_body) fd buf len in
      Ok { status; headers; body = Bytes.sub_string buf body_off (len - body_off) }

let write fd s =
  let n = String.length s in
  let rec go off =
    if off >= n then true
    else
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) -> false
  in
  go 0
