open Aladin_relational
open Aladin_discovery

(* a hub target referenced by more objects than this is skipped *)
let max_fanout = 25

(* is_a levels an xref climbs *)
let parent_depth = 2

type result = {
  links : Link.t list;
  hub_targets_skipped : int;
}

module Otbl = Hashtbl.Make (struct
  type t = Objref.t

  let equal = Objref.equal
  let hash = Objref.hash
end)

let parentish attr =
  let a = String.lowercase_ascii attr in
  List.exists
    (fun needle -> Aladin_text.Strdist.contains ~needle a)
    [ "parent"; "isa"; "is_a"; "super"; "broader" ]

(* hierarchy tables: two FKs from one relation into the primary relation of
   the same source, the second with a parent-ish name *)
let parents_from_profiles profiles =
  let table : Objref.t list Otbl.t = Otbl.create 64 in
  List.iter
    (fun (e : Profile_list.entry) ->
      match Source_profile.primary_accession e.sp with
      | None -> ()
      | Some (prel, pacc) ->
          let norm = String.lowercase_ascii in
          let catalog = Profile.catalog e.sp.profile in
          let source = Source_profile.source e.sp in
          (* group this source's FKs into primary by source relation *)
          let into_primary =
            List.filter
              (fun (fk : Inclusion.fk) ->
                norm fk.dst_relation = norm prel
                && norm fk.src_relation <> norm prel)
              e.sp.fks
          in
          let by_rel = Hashtbl.create 8 in
          List.iter
            (fun (fk : Inclusion.fk) ->
              let k = norm fk.src_relation in
              Hashtbl.replace by_rel k
                (fk :: (try Hashtbl.find by_rel k with Not_found -> [])))
            into_primary;
          Hashtbl.iter
            (fun _ fks ->
              match fks with
              | [ a; b ] -> (
                  let child_fk, parent_fk =
                    if parentish a.Inclusion.src_attribute then (b, a)
                    else if parentish b.Inclusion.src_attribute then (a, b)
                    else (a, a)
                  in
                  if child_fk != parent_fk then
                    match Catalog.find catalog child_fk.src_relation with
                    | None -> ()
                    | Some rel ->
                        (* pk value -> accession of the primary relation *)
                        let primary = Catalog.find_exn catalog prel in
                        let pk_attr = child_fk.dst_attribute in
                        let pk_i =
                          Schema.index_of_exn (Relation.schema primary) pk_attr
                        in
                        let acc_i =
                          Schema.index_of_exn (Relation.schema primary) pacc
                        in
                        let acc_of = Hashtbl.create 64 in
                        Relation.iter_rows
                          (fun row ->
                            Hashtbl.replace acc_of
                              (Value.to_string row.(pk_i))
                              (Value.to_string row.(acc_i)))
                          primary;
                        let ci =
                          Schema.index_of_exn (Relation.schema rel)
                            child_fk.src_attribute
                        in
                        let pi =
                          Schema.index_of_exn (Relation.schema rel)
                            parent_fk.src_attribute
                        in
                        Relation.iter_rows
                          (fun row ->
                            match
                              ( Hashtbl.find_opt acc_of (Value.to_string row.(ci)),
                                Hashtbl.find_opt acc_of (Value.to_string row.(pi)) )
                            with
                            | Some child_acc, Some parent_acc
                              when child_acc <> parent_acc ->
                                let child =
                                  Objref.make ~source ~relation:prel
                                    ~accession:child_acc
                                in
                                let parent =
                                  Objref.make ~source ~relation:prel
                                    ~accession:parent_acc
                                in
                                Otbl.replace table child
                                  (parent
                                  :: (try Otbl.find table child
                                      with Not_found -> []))
                            | _ -> ())
                          rel)
              | _ :: _ | [] -> ())
            by_rel)
    (Profile_list.entries profiles);
  fun obj -> try Otbl.find table obj with Not_found -> []

let discover ?parents ~xrefs () =
  (* group xref links by target; with a hierarchy, an xref also vouches for
     the target's ancestors at decayed confidence *)
  let by_target : Link.t list Otbl.t = Otbl.create 256 in
  let record target l =
    Otbl.replace by_target target
      (l :: (try Otbl.find by_target target with Not_found -> []))
  in
  List.iter
    (fun (l : Link.t) ->
      if l.kind = Link.Xref then begin
        record l.dst l;
        match parents with
        | None -> ()
        | Some up ->
            let rec climb node depth conf =
              if depth < parent_depth then
                List.iter
                  (fun parent ->
                    let ghost = { l with dst = parent; confidence = conf } in
                    record parent ghost;
                    climb parent (depth + 1) (conf *. 0.7))
                  (up node)
            in
            climb l.dst 0 (l.confidence *. 0.7)
      end)
    xrefs;
  let skipped = ref 0 in
  (* count shared targets per cross-source object pair *)
  let pair_counts : (string * Objref.t * Objref.t) list ref = ref [] in
  Otbl.iter
    (fun target incoming ->
      let sources =
        incoming
        |> List.map (fun (l : Link.t) -> l.src)
        |> List.sort_uniq Objref.compare
      in
      if List.length sources > max_fanout then incr skipped
      else
        let rec pairs = function
          | [] -> ()
          | a :: rest ->
              List.iter
                (fun b ->
                  if a.Objref.source <> b.Objref.source then
                    pair_counts :=
                      (Objref.to_string target, a, b) :: !pair_counts)
                rest;
              pairs rest
        in
        pairs sources)
    by_target;
  let grouped : (string, string list ref) Hashtbl.t = Hashtbl.create 256 in
  let reps : (string, Objref.t * Objref.t) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun (term, a, b) ->
      let key = Objref.to_string a ^ "\x00" ^ Objref.to_string b in
      (match Hashtbl.find_opt grouped key with
      | Some terms -> terms := term :: !terms
      | None ->
          Hashtbl.add grouped key (ref [ term ]);
          Hashtbl.add reps key (a, b)))
    !pair_counts;
  let links =
    Hashtbl.fold
      (fun key terms acc ->
        let a, b = Hashtbl.find reps key in
        let n = List.length !terms in
        let confidence = Float.min 0.9 (0.3 +. (0.15 *. float_of_int n)) in
        Link.make ~src:a ~dst:b ~kind:Link.Shared_term ~confidence
          ~evidence:
            (Printf.sprintf "shared targets: %s"
               (String.concat ", "
                  (List.filteri (fun i _ -> i < 3) (List.rev !terms))))
        :: acc)
      grouped []
  in
  { links = Link.dedup links; hub_targets_skipped = !skipped }
