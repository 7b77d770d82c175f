open Aladin_discovery
open Aladin_links
open Aladin_dup

type budgets = {
  primary : float option;
  secondary : float option;
  links : float option;
  xref_pass : float option;
  seq_pass : float option;
  text_pass : float option;
  onto_pass : float option;
  dups : float option;
}

let no_budgets =
  {
    primary = None;
    secondary = None;
    links = None;
    xref_pass = None;
    seq_pass = None;
    text_pass = None;
    onto_pass = None;
    dups = None;
  }

type t = {
  accession : Accession.params;
  inclusion : Inclusion.params;
  linker : Linker.params;
  dup : Dup_detect.params;
  max_path_len : int;
  change_threshold : float;
  domains : int;
  budgets : budgets;
}

let default =
  {
    accession = Accession.default_params;
    inclusion = Inclusion.default_params;
    linker = Linker.default_params;
    dup = Dup_detect.default_params;
    max_path_len = 6;
    change_threshold = 0.1;
    domains = 0;
    budgets = no_budgets;
  }

let parse_bool key v =
  match bool_of_string_opt (String.lowercase_ascii v) with
  | Some b -> Ok b
  | None -> Error (Printf.sprintf "%s expects a bool, got %S" key v)

let parse_int key v =
  match int_of_string_opt v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "%s expects an int, got %S" key v)

let parse_float key v =
  match float_of_string_opt v with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "%s expects a float, got %S" key v)

(* a budget is seconds, or "none"/"off"/"unlimited" for no budget *)
let parse_budget key v =
  match String.lowercase_ascii v with
  | "none" | "off" | "unlimited" -> Ok None
  | _ -> (
      match float_of_string_opt v with
      | Some f -> Ok (Some f)
      | None ->
          Error
            (Printf.sprintf "%s expects seconds or \"none\", got %S" key v))

let budget_to_string = function None -> "none" | Some f -> Printf.sprintf "%g" f

(* Every key once: its name, how its value renders and how a value
   parses into a config. [apply] and [to_string] both read this table,
   and the journal's config digest hashes [to_string], so a key cannot
   be parsed without also being rendered into the digest. The order is
   the rendering's. *)
type key = {
  name : string;
  get : t -> string;
  set : t -> string -> (t, string) result;
}

let key render parse name get set =
  { name;
    get = (fun t -> render (get t));
    set = (fun t v -> Result.map (set t) (parse name v)) }

let int_key = key string_of_int parse_int

let float_key = key (Printf.sprintf "%g") parse_float

let bool_key = key string_of_bool parse_bool

let budget_key = key budget_to_string parse_budget

let keys =
  [
    int_key "accession.min_length"
      (fun t -> t.accession.min_length)
      (fun t i -> { t with accession = { t.accession with min_length = i } });
    float_key "accession.max_length_spread"
      (fun t -> t.accession.max_length_spread)
      (fun t f -> { t with accession = { t.accession with max_length_spread = f } });
    float_key "inclusion.min_containment"
      (fun t -> t.inclusion.min_containment)
      (fun t f -> { t with inclusion = { t.inclusion with min_containment = f } });
    bool_key "inclusion.require_name_affinity"
      (fun t -> t.inclusion.require_name_affinity_for_pk_pk)
      (fun t b ->
        { t with
          inclusion = { t.inclusion with require_name_affinity_for_pk_pk = b } });
    float_key "links.seq.min_normalized"
      (fun t -> t.linker.seq.min_normalized)
      (fun t f ->
        { t with
          linker = { t.linker with seq = { t.linker.seq with min_normalized = f } } });
    int_key "links.seq.min_seq_len"
      (fun t -> t.linker.seq.min_seq_len)
      (fun t i ->
        { t with
          linker = { t.linker with seq = { t.linker.seq with min_seq_len = i } } });
    float_key "links.text.min_cosine"
      (fun t -> t.linker.text.min_cosine)
      (fun t f ->
        { t with
          linker = { t.linker with text = { Text_links.min_cosine = f } } });
    int_key "links.xref.min_matches"
      (fun t -> t.linker.xref.min_matches)
      (fun t i ->
        { t with
          linker = { t.linker with xref = { t.linker.xref with min_matches = i } } });
    bool_key "links.enable_seq"
      (fun t -> t.linker.enable_seq)
      (fun t b -> { t with linker = { t.linker with enable_seq = b } });
    bool_key "links.enable_text"
      (fun t -> t.linker.enable_text)
      (fun t b -> { t with linker = { t.linker with enable_text = b } });
    bool_key "links.enable_onto"
      (fun t -> t.linker.enable_onto)
      (fun t b -> { t with linker = { t.linker with enable_onto = b } });
    float_key "dup.min_similarity"
      (fun t -> t.dup.min_similarity)
      (fun t f -> { t with dup = { t.dup with min_similarity = f } });
    bool_key "dup.all_pairs"
      (fun t -> t.dup.all_pairs)
      (fun t b -> { t with dup = { t.dup with all_pairs = b } });
    int_key "max_path_len"
      (fun t -> t.max_path_len)
      (fun t i -> { t with max_path_len = i });
    float_key "change_threshold"
      (fun t -> t.change_threshold)
      (fun t f -> { t with change_threshold = f });
    int_key "domains" (fun t -> t.domains) (fun t i -> { t with domains = i });
    budget_key "budget.primary"
      (fun t -> t.budgets.primary)
      (fun t b -> { t with budgets = { t.budgets with primary = b } });
    budget_key "budget.secondary"
      (fun t -> t.budgets.secondary)
      (fun t b -> { t with budgets = { t.budgets with secondary = b } });
    budget_key "budget.links"
      (fun t -> t.budgets.links)
      (fun t b -> { t with budgets = { t.budgets with links = b } });
    budget_key "budget.links.xref"
      (fun t -> t.budgets.xref_pass)
      (fun t b -> { t with budgets = { t.budgets with xref_pass = b } });
    budget_key "budget.links.seq"
      (fun t -> t.budgets.seq_pass)
      (fun t b -> { t with budgets = { t.budgets with seq_pass = b } });
    budget_key "budget.links.text"
      (fun t -> t.budgets.text_pass)
      (fun t b -> { t with budgets = { t.budgets with text_pass = b } });
    budget_key "budget.links.onto"
      (fun t -> t.budgets.onto_pass)
      (fun t b -> { t with budgets = { t.budgets with onto_pass = b } });
    budget_key "budget.dups"
      (fun t -> t.budgets.dups)
      (fun t b -> { t with budgets = { t.budgets with dups = b } });
  ]

let apply t name v =
  match List.find_opt (fun k -> k.name = name) keys with
  | Some k -> k.set t v
  | None -> Error (Printf.sprintf "unknown key %S" name)

(* fold lines over [default], keeping the 1-based line number for errors *)
let parse_lines doc =
  let rec go t lineno = function
    | [] -> Ok t
    | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go t (lineno + 1) rest
        else
          match String.index_opt line '=' with
          | None ->
              Error (lineno, Printf.sprintf "expected key = value, got %S" line)
          | Some i -> (
              let key = String.trim (String.sub line 0 i) in
              let v =
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              in
              match apply t key v with
              | Ok t -> go t (lineno + 1) rest
              | Error msg -> Error (lineno, msg)))
  in
  go default 1 (String.split_on_char '\n' doc)

let of_file path =
  match
    let ic = open_in path in
    let len = in_channel_length ic in
    let doc = really_input_string ic len in
    close_in ic;
    doc
  with
  | doc -> (
      match parse_lines doc with
      | Ok t -> Ok t
      | Error (lineno, msg) -> Error (Printf.sprintf "%s:%d: %s" path lineno msg))
  | exception Sys_error msg -> Error msg

let to_string t =
  String.concat "" (List.map (fun k -> k.name ^ " = " ^ k.get t ^ "\n") keys)
