open Aladin_links
open Aladin_access
module Run_report = Aladin_resilience.Run_report
module Import_error = Aladin_resilience.Import_error

(* everything a read needs, built together from one warehouse state *)
type access = {
  browser : Browser.t;
  search : Search.t;
  index : Link_query.t;
}

type t = { w : Warehouse.t; mutable access : access }

(* the one builder of access structures: one per-object link index over
   the link view, which the browser, traversal and path ranking all
   read. A mutation that changes the links alone passes the structures
   it has as [links_only]: only the link index is made anew, and the
   search index, the browser's row indexes and its representations,
   which read the profiles and the exclude triples, are kept. *)
let build ?links_only w =
  let index = Link_query.create (Warehouse.links w) in
  match links_only with
  | Some a -> { a with index; browser = Browser.with_index a.browser index }
  | None ->
      let profiles = Warehouse.profiles w in
      {
        browser = Browser.create profiles index (Warehouse.dup_reprs w);
        search = Search.build profiles;
        index;
      }

let create w = { w; access = build w }

let integrate catalogs = create (Warehouse.integrate catalogs)

let warehouse t = t.w

(* the typed cache key: the warehouse generation counters pin exactly
   the data the caller declared it reads, so a consumer keyed on
   [key t [Source "uniprot"]] keeps its cache across updates of every
   other source. *)
let key t deps = Generation.key (Warehouse.generation t.w) deps

let rebuild t = t.access <- build t.w

(* --- browse --- *)

let objects t = Browser.objects t.access.browser

let view t obj = Browser.view t.access.browser obj

let resolve t accession = Search.resolve t.access.search accession

let browse t ?source accession =
  match source with
  | Some s -> Browser.view_accession t.access.browser ~source:s accession
  | None -> Option.bind (resolve t accession) (view t)

let follow t v i = Browser.follow t.access.browser v i

let browser t = t.access.browser

(* --- search --- *)

let search t ?limit query = Search.search t.access.search ?limit query

let focused t ?source ?field ?limit query =
  Search.focused t.access.search ?source ?field ?limit query

(* --- query --- *)

let query t sql =
  match Sql_eval.run ~resolve:(Warehouse.resolve_table t.w) sql with
  | r -> Ok r
  | exception Sql_lexer.Lex_error msg -> Error ("lex error: " ^ msg)
  | exception Sql_parser.Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Sql_eval.Eval_error msg -> Error msg

let links ?kind t =
  let all = Warehouse.links t.w in
  match kind with
  | None -> all
  | Some k -> List.filter (fun (l : Link.t) -> Link.kind_name l.kind = k) all

let traverse t ~start ~steps = Link_query.run t.access.index ~start ~steps

let related t obj = Path_rank.rank_from t.access.index obj

let link_index t = t.access.index

(* --- mutation --- *)

let update_source t catalog ~changed_rows =
  let r = Warehouse.update_source t.w catalog ~changed_rows in
  (match r.Warehouse.outcome with
  | `Reanalyzed _ -> rebuild t
  | `Deferred -> ());
  r

(* a rejected link changes no profile and no exclude triple, so neither
   the search index nor the browser's rows and representations *)
let reject_link t l =
  Warehouse.reject_link t.w l;
  t.access <- build ~links_only:t.access t.w
