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

let ( let* ) = Result.bind

let apply t key v =
  match key with
  | "accession.min_length" ->
      let* i = parse_int key v in
      Ok { t with accession = { t.accession with min_length = i } }
  | "accession.max_length_spread" ->
      let* f = parse_float key v in
      Ok { t with accession = { t.accession with max_length_spread = f } }
  | "inclusion.min_containment" ->
      let* f = parse_float key v in
      Ok { t with inclusion = { t.inclusion with min_containment = f } }
  | "inclusion.require_name_affinity" ->
      let* b = parse_bool key v in
      Ok
        { t with
          inclusion = { t.inclusion with require_name_affinity_for_pk_pk = b } }
  | "links.seq.min_normalized" ->
      let* f = parse_float key v in
      Ok
        { t with
          linker = { t.linker with seq = { t.linker.seq with min_normalized = f } } }
  | "links.seq.min_seq_len" ->
      let* i = parse_int key v in
      Ok
        { t with
          linker = { t.linker with seq = { t.linker.seq with min_seq_len = i } } }
  | "links.text.min_cosine" ->
      let* f = parse_float key v in
      Ok
        { t with
          linker = { t.linker with text = { t.linker.text with min_cosine = f } } }
  | "links.xref.min_matches" ->
      let* i = parse_int key v in
      Ok
        { t with
          linker = { t.linker with xref = { t.linker.xref with min_matches = i } } }
  | "links.enable_seq" ->
      let* b = parse_bool key v in
      Ok { t with linker = { t.linker with enable_seq = b } }
  | "links.enable_text" ->
      let* b = parse_bool key v in
      Ok { t with linker = { t.linker with enable_text = b } }
  | "links.enable_onto" ->
      let* b = parse_bool key v in
      Ok { t with linker = { t.linker with enable_onto = b } }
  | "dup.min_similarity" ->
      let* f = parse_float key v in
      Ok { t with dup = { t.dup with min_similarity = f } }
  | "dup.all_pairs" ->
      let* b = parse_bool key v in
      Ok { t with dup = { t.dup with all_pairs = b } }
  | "max_path_len" ->
      let* i = parse_int key v in
      Ok { t with max_path_len = i }
  | "change_threshold" ->
      let* f = parse_float key v in
      Ok { t with change_threshold = f }
  | "domains" ->
      let* i = parse_int key v in
      Ok { t with domains = i }
  | "budget.primary" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with primary = b } }
  | "budget.secondary" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with secondary = b } }
  | "budget.links" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with links = b } }
  | "budget.links.xref" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with xref_pass = b } }
  | "budget.links.seq" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with seq_pass = b } }
  | "budget.links.text" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with text_pass = b } }
  | "budget.links.onto" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with onto_pass = b } }
  | "budget.dups" ->
      let* b = parse_budget key v in
      Ok { t with budgets = { t.budgets with dups = b } }
  | _ -> Error (Printf.sprintf "unknown key %S" key)

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

let of_string doc =
  match parse_lines doc with
  | Ok t -> Ok t
  | Error (lineno, msg) -> Error (Printf.sprintf "line %d: %s" lineno msg)

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

let budget_to_string = function None -> "none" | Some f -> Printf.sprintf "%g" f

let to_string t =
  String.concat "\n"
    [
      Printf.sprintf "accession.min_length = %d" t.accession.min_length;
      Printf.sprintf "accession.max_length_spread = %g" t.accession.max_length_spread;
      Printf.sprintf "inclusion.min_containment = %g" t.inclusion.min_containment;
      Printf.sprintf "inclusion.require_name_affinity = %b"
        t.inclusion.require_name_affinity_for_pk_pk;
      Printf.sprintf "links.seq.min_normalized = %g" t.linker.seq.min_normalized;
      Printf.sprintf "links.seq.min_seq_len = %d" t.linker.seq.min_seq_len;
      Printf.sprintf "links.text.min_cosine = %g" t.linker.text.min_cosine;
      Printf.sprintf "links.xref.min_matches = %d" t.linker.xref.min_matches;
      Printf.sprintf "links.enable_seq = %b" t.linker.enable_seq;
      Printf.sprintf "links.enable_text = %b" t.linker.enable_text;
      Printf.sprintf "links.enable_onto = %b" t.linker.enable_onto;
      Printf.sprintf "dup.min_similarity = %g" t.dup.min_similarity;
      Printf.sprintf "dup.all_pairs = %b" t.dup.all_pairs;
      Printf.sprintf "max_path_len = %d" t.max_path_len;
      Printf.sprintf "change_threshold = %g" t.change_threshold;
      Printf.sprintf "domains = %d" t.domains;
      Printf.sprintf "budget.primary = %s" (budget_to_string t.budgets.primary);
      Printf.sprintf "budget.secondary = %s" (budget_to_string t.budgets.secondary);
      Printf.sprintf "budget.links = %s" (budget_to_string t.budgets.links);
      Printf.sprintf "budget.links.xref = %s" (budget_to_string t.budgets.xref_pass);
      Printf.sprintf "budget.links.seq = %s" (budget_to_string t.budgets.seq_pass);
      Printf.sprintf "budget.links.text = %s" (budget_to_string t.budgets.text_pass);
      Printf.sprintf "budget.links.onto = %s" (budget_to_string t.budgets.onto_pass);
      Printf.sprintf "budget.dups = %s" (budget_to_string t.budgets.dups);
    ]
  ^ "\n"
