open Aladin_links
open Aladin_access
module Run_report = Aladin_resilience.Run_report
module Import_error = Aladin_resilience.Import_error

type t = {
  w : Warehouse.t;
  mutable browser : Browser.t;
  mutable search : Search.t;
  mutable link_query : Link_query.t;
  mutable paths : Path_rank.t;
}

(* the warehouse memoizes each structure until its own invalidation, so
   pulling them here never builds twice; the facade pins the handles so
   every access path between two mutations shares the same session
   state *)
let create w =
  {
    w;
    browser = Warehouse.browser w;
    search = Warehouse.search w;
    link_query = Warehouse.link_query w;
    paths = Warehouse.path_index w;
  }

let integrate ?config catalogs = create (Warehouse.integrate ?config catalogs)

let warehouse t = t.w

(* the typed cache key: the warehouse generation counters pin exactly
   the data the caller declared it reads, so a consumer keyed on
   [key t [Source "uniprot"]] keeps its cache across updates of every
   other source. *)
let key t deps = Generation.key (Warehouse.generation t.w) deps

(* pull the memoized structures the last mutation invalidated *)
let rebuild t =
  t.browser <- Warehouse.browser t.w;
  t.search <- Warehouse.search t.w;
  t.link_query <- Warehouse.link_query t.w;
  t.paths <- Warehouse.path_index t.w

(* the public refresh is for mutations not routed through this facade,
   so it cannot know which counters the warehouse already bumped —
   conservatively move every tracked one *)
let refresh t =
  rebuild t;
  Generation.bump_all (Warehouse.generation t.w)

(* --- browse --- *)

let objects t = Browser.objects t.browser

let view t obj = Browser.view t.browser obj

let resolve t accession = Search.resolve t.search accession

let browse t ?source accession =
  match source with
  | Some s -> Browser.view_accession t.browser ~source:s accession
  | None -> Option.bind (resolve t accession) (view t)

let follow t v i = Browser.follow t.browser v i

let browser t = t.browser

(* --- search --- *)

let search t ?limit query = Search.search t.search ?limit query

let focused t ?source ?field ?limit query =
  Search.focused t.search ?source ?field ?limit query

(* --- query --- *)

let query t sql =
  match Warehouse.sql t.w sql with
  | r -> Ok r
  | exception Sql_parser.Parse_error msg -> Error ("parse error: " ^ msg)
  | exception Sql_eval.Eval_error msg -> Error msg

let links ?kind t =
  let all = Warehouse.links t.w in
  match kind with
  | None -> all
  | Some k -> List.filter (fun (l : Link.t) -> Link.kind_name l.kind = k) all

let traverse t ~start ~steps = Link_query.run t.link_query ~start ~steps

let related t obj = Path_rank.rank_from t.paths obj

let paths t = t.paths

(* --- mutation --- *)

(* facade-routed mutations only [rebuild]: the warehouse bumped exactly
   the generation counters the mutation touched, so keys over unrelated
   sources/kinds — and the cache entries they guard — survive *)
let add_source ?import_errors t catalog =
  let report = Warehouse.add_source ?import_errors t.w catalog in
  rebuild t;
  report

let update_source t catalog ~changed_rows =
  let r = Warehouse.update_source t.w catalog ~changed_rows in
  (match r.Warehouse.outcome with
  | `Reanalyzed _ -> rebuild t
  | `Deferred -> ());
  r

let reject_link t l =
  Warehouse.reject_link t.w l;
  rebuild t
