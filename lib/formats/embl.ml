let first_semi_token s =
  match String.split_on_char ';' s with
  | t :: _ -> String.trim t
  | [] -> String.trim s

let records doc =
  Line_format.records doc
  |> List.map (fun lines ->
         let locus =
           match Line_format.joined ~code:"ID" lines with
           | Some p -> first_semi_token p
           | None -> ""
         in
         let accession =
           match Line_format.joined ~code:"AC" lines with
           | Some p -> (
               match Line_format.split_list p with a :: _ -> a | [] -> "")
           | None -> ""
         in
         let definition =
           Option.value (Line_format.joined ~code:"DE" lines) ~default:""
         in
         let organism =
           match Line_format.joined ~code:"OS" lines with
           | Some p ->
               let n = String.length p in
               if n > 0 && p.[n - 1] = '.' then String.sub p 0 (n - 1) else p
           | None -> ""
         in
         (* the FT feature table: a new feature starts with a key token; a
            qualifier line starts with '/' *)
         let features = ref [] in
         let current : Genbank.feature option ref = ref None in
         let flush () =
           match !current with
           | Some f ->
               features := f :: !features;
               current := None
           | None -> ()
         in
         List.iter
           (fun (l : Line_format.line) ->
             if l.code = "FT" then begin
               match Genbank.parse_qualifier l.payload with
               | Some (k, v) -> (
                   match !current with
                   | Some f ->
                       current :=
                         Some { f with Genbank.qualifiers = f.Genbank.qualifiers @ [ (k, v) ] }
                   | None -> ())
               | None -> (
                   match
                     String.split_on_char ' ' l.payload |> List.filter (( <> ) "")
                   with
                   | key :: loc :: _ ->
                       flush ();
                       current := Some { Genbank.key; location = loc; qualifiers = [] }
                   | [ key ] ->
                       flush ();
                       current := Some { Genbank.key; location = ""; qualifiers = [] }
                   | [] -> ())
             end)
           lines;
         flush ();
         (* sequence: lines after SQ; generators and real EMBL indent them,
            so their "codes" are sequence chunks *)
         let after_sq = ref false in
         let seq = Buffer.create 128 in
         List.iter
           (fun (l : Line_format.line) ->
             if l.code = "SQ" then after_sq := true
             else if !after_sq && l.code <> "FT" then begin
               Buffer.add_string seq (Genbank.letters l.code);
               Buffer.add_string seq (Genbank.letters l.payload)
             end)
           lines;
         {
           Genbank.locus;
           definition;
           accession;
           organism;
           features = List.rev !features;
           origin = Buffer.contents seq;
         })

let parse ?(name = "embl") doc =
  Genbank.catalog ~name ~seq_relation:"embl_seq" (records doc)

let render rs =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (r : Genbank.record) ->
      add "ID   %s; SV 1; linear; STD; %d BP.\n" r.locus (String.length r.origin);
      add "AC   %s;\n" r.accession;
      add "DE   %s\n" r.definition;
      add "OS   %s.\n" r.organism;
      List.iter
        (fun (ft : Genbank.feature) ->
          add "FT   %-15s %s\n" ft.key
            (if ft.location = "" then "1" else ft.location);
          List.iter
            (fun (k, v) ->
              if v = "" then add "FT                   /%s\n" k
              else add "FT                   /%s=\"%s\"\n" k v)
            ft.qualifiers)
        r.features;
      if r.origin <> "" then begin
        add "SQ   Sequence %d BP;\n" (String.length r.origin);
        let s = String.lowercase_ascii r.origin in
        let n = String.length s in
        let rec line i =
          if i < n then begin
            add "     %s\n" (String.sub s i (min 60 (n - i)));
            line (i + 60)
          end
        in
        line 0
      end;
      add "//\n")
    rs;
  Buffer.contents buf
