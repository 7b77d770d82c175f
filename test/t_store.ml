(* Crash-safety acceptance tests for the snapshot store (ISSUE 4):
   CRC vectors, record-level salvage, quarantine/repair, and the
   torn-write property — a save killed at ANY byte offset must leave
   the previous snapshot loadable byte-identically. *)

open Aladin_store
module Corrupt = Aladin_datagen.Corrupt

let check = Alcotest.check

(* the status the load report gives member [path] *)
let find_status (report : Load_report.t) path =
  List.find_map
    (fun (m : Load_report.member) -> if m.path = path then Some m.status else None)
    report.members

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let committed_report dir =
  match Snapshot.verify dir with
  | Ok r -> r
  | Error msg -> Alcotest.fail ("verify: " ^ msg)

let gen_dir dir gen = Filename.concat dir (Printf.sprintf "snap-%08d" gen)

let stored_path dir gen member = Filename.concat (gen_dir dir gen) member

let save_exn dir members =
  match Snapshot.save dir members with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("save: " ^ msg)

let load_exn dir =
  match Snapshot.load dir with
  | Ok (members, report) -> (members, report)
  | Error msg -> Alcotest.fail ("load: " ^ msg)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let sorted_members ms =
  List.sort
    (fun (a : Snapshot.member) (b : Snapshot.member) ->
      String.compare a.path b.path)
    ms

(* every committed byte of the store: the manifest plus the committed
   generation's files. Partial generations from killed saves are
   deliberately excluded — they are invisible until a manifest commits
   them, and get swept by the next successful save/load. *)
let committed_bytes dir =
  let report = committed_report dir in
  let sdir = gen_dir dir report.generation in
  let rec walk acc path rel =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc e ->
          walk acc (Filename.concat path e)
            (if rel = "" then e else rel ^ "/" ^ e))
        acc (Sys.readdir path)
    else (rel, read_file path) :: acc
  in
  let files = if Sys.file_exists sdir then walk [] sdir "" else [] in
  ( read_file (Filename.concat dir "MANIFEST"),
    List.sort compare files )

let test_members : Snapshot.member list =
  [
    { path = "a/recs.txt"; kind = Records;
      content = "alpha\nbeta\twith tab\ngamma\n" };
    { path = "a/table.csv"; kind = Csv;
      content = "id,name\n1,aardvark\n2,badger\n3,civet\n" };
    { path = "blob.bin"; kind = Records; content = "\x00\x01binary\xffpayload\n" };
  ]

let crc_tests =
  [
    Alcotest.test_case "crc32 check vector" `Quick (fun () ->
        (* the canonical IEEE 802.3 test vector *)
        check Alcotest.int "123456789" 0xCBF43926 (Crc32.string "123456789");
        check Alcotest.int "empty" 0 (Crc32.string ""));
    Alcotest.test_case "crc32 update composes" `Quick (fun () ->
        let a = "aladin" and b = "\tstore\nbytes" in
        check Alcotest.int "concat"
          (Crc32.string (a ^ b))
          (Crc32.update (Crc32.update 0 a) b));
    Alcotest.test_case "crc32 hex roundtrip" `Quick (fun () ->
        List.iter
          (fun v ->
            check Alcotest.(option int) "roundtrip" (Some v)
              (Crc32.of_hex (Crc32.to_hex v)))
          [ 0; 1; 0xCBF43926; 0xFFFFFFFF ];
        check Alcotest.(option int) "too short" None (Crc32.of_hex "abc");
        check Alcotest.(option int) "not hex" None (Crc32.of_hex "xyzwxyzw"));
  ]

let records_tests =
  [
    Alcotest.test_case "records encode/decode roundtrip" `Quick (fun () ->
        let doc = "one\ntwo\tkeeps tabs\n\nfour\n" in
        check Alcotest.(option string) "roundtrip" (Some doc)
          (Records.decode (Records.encode doc));
        (* a missing final newline is normalized, not lost *)
        check Alcotest.(option string) "normalized" (Some "a\nb\n")
          (Records.decode (Records.encode "a\nb")));
    Alcotest.test_case "records bit flip drops exactly one record" `Quick
      (fun () ->
        let doc = "alpha\nbeta\ngamma\n" in
        let stored = Records.encode doc in
        (* flip a bit inside beta's payload: each stored line is
           "<8 hex>\t<payload>\n", so beta's 't' sits 4 bytes before the
           gamma line *)
        let byte = String.length stored - (8 + 1 + 5 + 1) - 4 in
        let torn = Corrupt.flip_bit_at stored ~byte ~bit:2 in
        check Alcotest.(option string) "strict decode refuses" None
          (Records.decode torn);
        match Records.decode_salvage torn with
        | None -> Alcotest.fail "salvage gave up"
        | Some (kept, dropped) ->
            check Alcotest.int "one dropped" 1 dropped;
            check Alcotest.string "others survive" "alpha\ngamma\n" kept);
    Alcotest.test_case "records truncation keeps the prefix" `Quick (fun () ->
        let doc = "alpha\nbeta\ngamma\ndelta\n" in
        let stored = Records.encode doc in
        (* each stored line is "<8 hex>\t<payload>\n"; cut midway through
           the gamma line so it is torn and delta is gone entirely *)
        let line len = 8 + 1 + len + 1 in
        let cut = String.length stored - line 5 - (line 5 - 4) in
        match Records.decode_salvage (Corrupt.truncate_at stored cut) with
        | None -> Alcotest.fail "salvage gave up"
        | Some (kept, dropped) ->
            check Alcotest.string "prefix" "alpha\nbeta\n" kept;
            check Alcotest.int "shortfall counted" 2 dropped);
    Alcotest.test_case "records salvage without header" `Quick (fun () ->
        let stored = Records.encode "alpha\nbeta\n" in
        (* strip the header line entirely: records can still verify *)
        let body =
          String.sub stored
            (String.index stored '\n' + 1)
            (String.length stored - String.index stored '\n' - 1)
        in
        match Records.decode_salvage body with
        | None -> Alcotest.fail "salvage gave up"
        | Some (kept, _dropped) ->
            check Alcotest.string "lines recovered" "alpha\nbeta\n" kept);
  ]

(* --- the codecs against reference copies of their earlier, bytewise
   implementations: for every input the same checksum, the same
   Some/None, the same content and the same dropped count --- *)

module Ref = struct
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
          else c := !c lsr 1
        done;
        !c)

  let crc_update crc s =
    let c = ref (crc lxor 0xFFFFFFFF) in
    String.iter
      (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
      s;
    !c lxor 0xFFFFFFFF

  let crc s = crc_update 0 s

  let to_hex crc = Printf.sprintf "%08x" (crc land 0xFFFFFFFF)

  let of_hex s =
    let digit c =
      match c with
      | '0' .. '9' -> Some (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
      | _ -> None
    in
    if String.length s <> 8 then None
    else
      String.fold_left
        (fun acc c ->
          match (acc, digit c) with
          | Some v, Some d -> Some ((v lsl 4) lor d)
          | _, _ -> None)
        (Some 0) s

  let split_lines doc =
    if doc = "" then []
    else
      let parts = String.split_on_char '\n' doc in
      match List.rev parts with "" :: rest -> List.rev rest | _ -> parts

  let join_lines = function
    | [] -> ""
    | lines -> String.concat "\n" lines ^ "\n"

  let encode doc =
    let lines = split_lines doc in
    let buf = Buffer.create (String.length doc + (16 * List.length lines)) in
    Printf.bprintf buf "%s\t%d\t%d\n" "aladin-records" 1 (List.length lines);
    List.iter (fun l -> Printf.bprintf buf "%s\t%s\n" (to_hex (crc l)) l) lines;
    Buffer.contents buf

  let parse_header line =
    match String.split_on_char '\t' line with
    | [ m; v; count ] when m = "aladin-records" && v = "1" ->
        int_of_string_opt count
    | _ -> None

  let parse_record line =
    match String.index_opt line '\t' with
    | None -> None
    | Some i -> (
        let payload = String.sub line (i + 1) (String.length line - i - 1) in
        match of_hex (String.sub line 0 i) with
        | Some c when c = crc payload -> Some payload
        | Some _ | None -> None)

  let decode stored =
    match split_lines stored with
    | [] -> None
    | header :: rest -> (
        match parse_header header with
        | None -> None
        | Some count ->
            let payloads = List.map parse_record rest in
            if List.length payloads = count && List.for_all Option.is_some payloads
            then Some (join_lines (List.filter_map Fun.id payloads))
            else None)

  let decode_salvage stored =
    match split_lines stored with
    | [] -> None
    | first :: rest ->
        let header = parse_header first in
        let records = if header = None then first :: rest else rest in
        let kept = List.filter_map parse_record records in
        let bad = List.length records - List.length kept in
        if header = None && kept = [] then None
        else
          let dropped =
            match header with
            | Some count -> max (count - List.length kept) bad
            | None -> bad
          in
          Some (join_lines kept, dropped)

  let escape s =
    let buf = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let unescape s =
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

  let record fs = String.concat "\t" (List.map escape fs)

  let fields line = List.map unescape (String.split_on_char '\t' line)
end

(* these cases draw from one fixed seed, so a tier-1 run is repeatable *)
let fixed_seed test =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |]) test

(* bytes the codecs treat specially, and a few they do not *)
let codec_char =
  QCheck.Gen.(
    frequency
      [ (6, oneofl [ 'a'; 'b'; 'z'; '0'; '9'; 'f'; ' '; ':' ]);
        (3, oneofl [ '\t'; '\n'; '\\'; '\r' ]);
        (1, oneofl [ 't'; 'n'; 'r'; 'x'; 'F'; '_'; '\x00'; '\xff' ]) ])

let codec_string = QCheck.Gen.(string_size ~gen:codec_char (int_range 0 40))

(* a logical document: lines of codec bytes, blank lines among them, with
   or without a final newline *)
let doc_gen =
  QCheck.Gen.(
    map2
      (fun lines final ->
        String.concat "\n" lines ^ if final && lines <> [] then "\n" else "")
      (list_size (int_range 0 12)
         (string_size
            ~gen:(frequency [ (9, codec_char); (1, return '\n') ])
            (int_range 0 30)))
      bool)

(* the stored bytes of a document, intact or damaged: a bit flip, a
   truncation, a blank line inserted, the header dropped or rewritten,
   or a line appended that is no record *)
let stored_gen =
  QCheck.Gen.(
    doc_gen >>= fun doc ->
    let stored = Ref.encode doc in
    let n = String.length stored in
    let lines = String.split_on_char '\n' stored in
    let at i f =
      List.mapi (fun j l -> if j = i mod List.length lines then f l else l) lines
    in
    let join = String.concat "\n" in
    oneof
      [
        return stored;
        map2
          (fun byte bit -> Corrupt.flip_bit_at stored ~byte:(byte mod n) ~bit)
          nat (int_bound 7);
        map (fun cut -> Corrupt.truncate_at stored (cut mod (n + 1))) nat;
        map (fun i -> join (at i (fun l -> l ^ "\n"))) nat;
        return (join (List.tl lines));
        map
          (fun h ->
            join
              (Printf.sprintf "aladin-records\t1\t%s" h :: List.tl lines))
          (oneofl [ "0"; "-1"; "+2"; "0x3"; "1_0"; " 4"; "99"; "" ]);
        return (join ("aladin-records\t2\t1" :: List.tl lines));
        map (fun tail -> stored ^ tail)
          (oneofl [ "\\"; "00000000\tx\n"; "CBF43926\t123456789\n"; "\n\n" ]);
        string_size ~gen:codec_char (int_range 0 60);
      ])

let codec_reference_tests =
  let module G = QCheck.Gen in
  let big = String.init 5000 (fun i -> Char.chr ((i * 7919) land 0xff)) in
  [
    fixed_seed
      (QCheck.Test.make ~name:"crc32 of a string and of a range equal the bytewise reference"
         ~count:500
         (QCheck.make
            ~print:(fun (s, (p, l)) -> Printf.sprintf "%S pos %d len %d" s p l)
            G.(
              pair
                (oneof
                   [ string_size ~gen:char (int_range 0 300);
                     map (fun k -> String.sub big 0 (k mod 5001)) nat ])
                (pair nat nat)))
         (fun (s, (p, l)) ->
           let n = String.length s in
           let pos = if n = 0 then 0 else p mod (n + 1) in
           let len = l mod (n - pos + 1) in
           Crc32.string s = Ref.crc s
           && Crc32.sub s ~pos ~len = Ref.crc (String.sub s pos len)
           && Crc32.update (Ref.crc (String.sub s 0 pos))
                (String.sub s pos (n - pos))
              = Ref.crc s
           && Crc32.to_hex (Crc32.string s) = Ref.to_hex (Ref.crc s)));
    Alcotest.test_case "crc32 hex forms equal the reference" `Quick (fun () ->
        List.iter
          (fun h ->
            check Alcotest.(option int) h (Ref.of_hex h) (Crc32.of_hex h);
            List.iter
              (fun v ->
                check Alcotest.bool (h ^ " matches")
                  (String.length h >= 8
                  && Ref.of_hex (String.sub h 0 8) = Some v)
                  (Crc32.matches_hex v h ~pos:0))
              [ 0; 0xCBF43926; 0xFFFFFFFF; 0x0badc0de ])
          [ "cbf43926"; "CBF43926"; "00000000"; "ffffffff"; "0badc0de";
            "0badc0d"; "0badc0de0"; "0x0badc0"; "0badc0_e"; "" ];
        check Alcotest.bool "short tail" false
          (Crc32.matches_hex 0 "0000000" ~pos:0));
    fixed_seed
      (QCheck.Test.make ~name:"records encode equals the reference" ~count:400
         (QCheck.make ~print:(Printf.sprintf "%S") doc_gen)
         (fun doc -> Records.encode doc = Ref.encode doc));
    fixed_seed
      (QCheck.Test.make
         ~name:"records decode and salvage equal the reference on damaged bytes"
         ~count:1500
         (QCheck.make ~print:(Printf.sprintf "%S") stored_gen)
         (fun stored ->
           Records.decode stored = Ref.decode stored
           && Records.decode_salvage stored = Ref.decode_salvage stored));
    fixed_seed
      (QCheck.Test.make
         ~name:"records decode and salvage equal the reference on arbitrary bytes"
         ~count:500
         (QCheck.make ~print:(Printf.sprintf "%S")
            G.(string_size ~gen:char (int_range 0 200)))
         (fun stored ->
           Records.decode stored = Ref.decode stored
           && Records.decode_salvage stored = Ref.decode_salvage stored));
    fixed_seed
      (QCheck.Test.make ~name:"records record forms equal the reference"
         ~count:400
         (QCheck.make ~print:(Printf.sprintf "%S") codec_string)
         (fun s ->
           let line = Ref.to_hex (Ref.crc s) ^ "\t" ^ s in
           Records.record s = line
           && Records.parse_record s = Ref.parse_record s
           && Records.parse_record line = Ref.parse_record line));
    fixed_seed
      (QCheck.Test.make
         ~name:"serial escape, unescape, record and fields equal the reference"
         ~count:800
         (QCheck.make
            ~print:(fun fs -> String.concat " | " (List.map (Printf.sprintf "%S") fs))
            G.(list_size (int_range 1 6) codec_string))
         (fun fs ->
           let line = String.concat "\t" fs in
           List.for_all
             (fun s ->
               Serial.escape s = Ref.escape s && Serial.unescape s = Ref.unescape s)
             (line :: fs)
           && Serial.record fs = Ref.record fs
           && Serial.fields line = Ref.fields line
           && Serial.fields (Ref.record fs) = Ref.fields (Ref.record fs)
           &&
           let framed = "<" ^ line ^ ">" in
           Serial.fields_sub framed ~pos:1 ~len:(String.length line)
           = Ref.fields line));
  ]

let snapshot_tests =
  [
    Alcotest.test_case "snapshot save/load roundtrip" `Quick (fun () ->
        let dir = Tmp.path "st1" in
        save_exn dir test_members;
        let members, report = load_exn dir in
        check Alcotest.bool "clean" true (Load_report.is_clean report);
        check Alcotest.int "generation" 1 report.generation;
        List.iter2
          (fun (a : Snapshot.member) (b : Snapshot.member) ->
            check Alcotest.string "path" a.path b.path;
            check Alcotest.string ("content of " ^ a.path) a.content b.content)
          (sorted_members test_members)
          (sorted_members members));
    Alcotest.test_case "re-save advances generation and sweeps the old one"
      `Quick (fun () ->
        let dir = Tmp.path "st2" in
        save_exn dir test_members;
        (match Snapshot.save dir test_members with
        | Ok gen -> check Alcotest.int "save names its generation" 2 gen
        | Error msg -> Alcotest.fail ("save: " ^ msg));
        let report = committed_report dir in
        check Alcotest.int "generation" 2 report.generation;
        check Alcotest.bool "old generation swept" false
          (Sys.file_exists (gen_dir dir 1)));
    Alcotest.test_case "save refuses foreign non-empty directories" `Quick
      (fun () ->
        let dir = Tmp.path "st3" in
        Sys.mkdir dir 0o755;
        write_file (Filename.concat dir "precious.txt") "user data\n";
        (match Snapshot.save dir test_members with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "clobbered a user directory");
        check Alcotest.string "file untouched" "user data\n"
          (read_file (Filename.concat dir "precious.txt")));
    Alcotest.test_case "stale temps and orphan generations are swept" `Quick
      (fun () ->
        let dir = Tmp.path "st4" in
        save_exn dir test_members;
        let orphan = gen_dir dir 999 in
        Sys.mkdir orphan 0o755;
        write_file (Filename.concat orphan "junk") "torn";
        write_file (Filename.concat dir "MANIFEST.aladin-tmp") "torn";
        let _ = load_exn dir in
        check Alcotest.bool "orphan gone" false (Sys.file_exists orphan);
        check Alcotest.bool "temp gone" false
          (Sys.file_exists (Filename.concat dir "MANIFEST.aladin-tmp")));
    Alcotest.test_case "verify is read-only" `Quick (fun () ->
        let dir = Tmp.path "st5" in
        save_exn dir test_members;
        let path = stored_path dir 1 "blob.bin" in
        let torn = Corrupt.flip_bit_at (read_file path) ~byte:3 ~bit:0 in
        write_file path torn;
        let report = committed_report dir in
        check Alcotest.bool "damage seen" false (Load_report.is_clean report);
        check Alcotest.string "file untouched" torn (read_file path);
        check Alcotest.bool "no quarantine" false
          (Sys.file_exists (Filename.concat dir ".quarantine")));
    Alcotest.test_case "bit flip in a records member salvages" `Quick (fun () ->
        let dir = Tmp.path "st6" in
        save_exn dir test_members;
        let path = stored_path dir 1 "a/recs.txt" in
        let stored = read_file path in
        (* flip a payload bit in the last record's line *)
        write_file path
          (Corrupt.flip_bit_at stored ~byte:(String.length stored - 3) ~bit:1);
        let members, report = load_exn dir in
        (match find_status report "a/recs.txt" with
        | Some (Load_report.Salvaged n) -> check Alcotest.int "dropped" 1 n
        | other ->
            Alcotest.failf "expected Salvaged, got %s"
              (match other with
              | Some (Load_report.Quarantined reason) -> "quarantined: " ^ reason
              | Some _ -> "another status"
              | None -> "absent"));
        check Alcotest.(option string) "good records kept"
          (Some "alpha\nbeta\twith tab\n")
          (Snapshot.find members "a/recs.txt"));
    Alcotest.test_case "arity-breaking damage in a csv drops the row" `Quick
      (fun () ->
        let dir = Tmp.path "st7" in
        save_exn dir test_members;
        let path = stored_path dir 1 "a/table.csv" in
        let stored = read_file path in
        (* corrupt the comma of the "2,badger" row: the row no longer
           fits the header arity and must be dropped, not parsed *)
        let comma =
          let i = ref (-1) in
          String.iteri
            (fun j c ->
              if !i < 0 && c = ',' && j > 0 && stored.[j - 1] = '2' then i := j)
            stored;
          !i
        in
        check Alcotest.bool "found the comma" true (comma > 0);
        write_file path (Corrupt.flip_bit_at stored ~byte:comma ~bit:0);
        let members, report = load_exn dir in
        (match find_status report "a/table.csv" with
        | Some (Load_report.Salvaged n) ->
            check Alcotest.bool "rows dropped" true (n >= 1)
        | _ -> Alcotest.fail "expected Salvaged");
        match Snapshot.find members "a/table.csv" with
        | None -> Alcotest.fail "csv lost entirely"
        | Some csv ->
            check Alcotest.bool "bad row gone" false (contains csv "badger");
            check Alcotest.bool "good row kept" true (contains csv "civet"));
    Alcotest.test_case "unrecoverable members are quarantined with a reason"
      `Quick (fun () ->
        let dir = Tmp.path "st8" in
        save_exn dir test_members;
        (* no header and no line whose checksum verifies: nothing to
           salvage *)
        write_file (stored_path dir 1 "blob.bin") "not a checksummed record";
        let members, report = load_exn dir in
        (match find_status report "blob.bin" with
        | Some (Load_report.Quarantined _) -> ()
        | _ -> Alcotest.fail "expected Quarantined");
        check Alcotest.(option string) "member absent" None
          (Snapshot.find members "blob.bin");
        let qdir = Filename.concat dir ".quarantine" in
        check Alcotest.bool "quarantine dir" true (Sys.file_exists qdir);
        check Alcotest.bool "reason recorded" true
          (Array.exists
             (fun e -> Filename.check_suffix e ".reason")
             (Sys.readdir qdir)));
    Alcotest.test_case "missing members are reported, not fatal" `Quick
      (fun () ->
        let dir = Tmp.path "st9" in
        save_exn dir test_members;
        Sys.remove (stored_path dir 1 "blob.bin");
        let _, report = load_exn dir in
        match find_status report "blob.bin" with
        | Some Load_report.Missing -> ()
        | _ -> Alcotest.fail "expected Missing");
    Alcotest.test_case "repair commits the salvage as a clean snapshot" `Quick
      (fun () ->
        let dir = Tmp.path "st10" in
        save_exn dir test_members;
        let rpath = stored_path dir 1 "a/recs.txt" in
        let stored = read_file rpath in
        write_file rpath
          (Corrupt.flip_bit_at stored ~byte:(String.length stored - 3) ~bit:1);
        Sys.remove (stored_path dir 1 "blob.bin");
        (match Snapshot.repair dir with
        | Ok report ->
            check Alcotest.bool "repair reports damage" false
              (Load_report.is_clean report)
        | Error msg -> Alcotest.fail ("repair: " ^ msg));
        let report = committed_report dir in
        check Alcotest.bool "clean after repair" true
          (Load_report.is_clean report);
        let members, report2 = load_exn dir in
        check Alcotest.bool "clean load after repair" true
          (Load_report.is_clean report2);
        check Alcotest.(option string) "salvaged content committed"
          (Some "alpha\nbeta\twith tab\n")
          (Snapshot.find members "a/recs.txt"));
    Alcotest.test_case "repair of a clean store is a no-op" `Quick (fun () ->
        let dir = Tmp.path "st11" in
        save_exn dir test_members;
        let before = committed_bytes dir in
        (match Snapshot.repair dir with
        | Ok report ->
            check Alcotest.bool "clean" true (Load_report.is_clean report)
        | Error msg -> Alcotest.fail ("repair: " ^ msg));
        check Alcotest.bool "nothing rewritten" true
          (before = committed_bytes dir));
    Alcotest.test_case "a manifest naming the old pairs kind loads and relinks"
      `Quick (fun () ->
        (* stores written before pairs.txt became a Records member name
           its kind "pairs": such a store loads clean, and its next save
           hard-links the unchanged member *)
        let dir = Tmp.path "oldkind" in
        let pairs : Snapshot.member =
          { path = "pairs.txt"; kind = Records; content = "pair\tone\npair\ttwo\n" }
        in
        save_exn dir (pairs :: test_members);
        let manifest = Filename.concat dir "MANIFEST" in
        let body =
          String.split_on_char '\n' (read_file manifest)
          |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"crc\t" l))
          |> List.map (fun l ->
                 let prefix = "member\tpairs.txt\trecords\t" in
                 let n = String.length prefix in
                 if String.starts_with ~prefix l then
                   "member\tpairs.txt\tpairs\t" ^ String.sub l n (String.length l - n)
                 else l)
          |> List.map (fun l -> l ^ "\n")
          |> String.concat ""
        in
        write_file manifest
          (body ^ "crc\t" ^ Crc32.to_hex (Crc32.string body) ^ "\n");
        let members, report = load_exn dir in
        check Alcotest.bool "clean" true (Load_report.is_clean report);
        check Alcotest.(option string) "pairs.txt read as records"
          (Some pairs.content) (Snapshot.find members "pairs.txt");
        (* the save sweeps generation 1, so its inode is taken first *)
        let ino gen = (Unix.stat (stored_path dir gen "pairs.txt")).Unix.st_ino in
        let before = ino 1 in
        save_exn dir members;
        check Alcotest.int "hard-linked" before (ino 2));
  ]

(* --- the tentpole acceptance property ------------------------------- *)

let altered_members : Snapshot.member list =
  List.map
    (fun (m : Snapshot.member) ->
      { m with content = m.content ^ "appended-by-second-save\n" })
    test_members

let torn_write_tests =
  [
    Alcotest.test_case "kill at every byte keeps snapshot 1 byte-identical"
      `Slow (fun () ->
        let dir = Tmp.path "torn" in
        save_exn dir test_members;
        let baseline = committed_bytes dir in
        let kills = ref 0 in
        let rec attempt budget =
          Fault.arm ~bytes:budget;
          match Snapshot.save dir altered_members with
          | exception Fault.Killed ->
              Fault.disarm ();
              incr kills;
              let report = committed_report dir in
              check Alcotest.bool
                (Printf.sprintf "clean after kill at %d" budget)
                true
                (Load_report.is_clean report);
              if committed_bytes dir <> baseline then
                Alcotest.failf "snapshot bytes changed after kill at %d" budget;
              attempt (budget + 1)
          | Ok _ -> Fault.disarm ()
          | Error msg ->
              Fault.disarm ();
              Alcotest.fail ("save: " ^ msg)
        in
        attempt 0;
        check Alcotest.bool "swept the whole save" true (!kills > 100);
        (* once the save finally commits, the NEW snapshot loads clean *)
        let members, report = load_exn dir in
        check Alcotest.bool "new snapshot clean" true
          (Load_report.is_clean report);
        check Alcotest.(option string) "new content in force"
          (Some "\x00\x01binary\xffpayload\nappended-by-second-save\n")
          (Snapshot.find members "blob.bin"));
    Alcotest.test_case "kill between member writes and the manifest rename"
      `Quick (fun () ->
        let prepare tag =
          let dir = Tmp.path tag in
          save_exn dir test_members;
          save_exn dir altered_members;
          dir
        in
        (* measure what re-saving the same members costs on an identical
           store: every byte it writes (unchanged members are hard-linked,
           so mostly the manifest) plus one unit for the commit rename. A
           budget one short of that means every member and every manifest
           byte is on disk; the commit rename itself is what dies. *)
        let cost =
          let probe = prepare "torn2p" in
          Fault.reset_counters ();
          save_exn probe altered_members;
          let bytes, _, _ = Fault.counters () in
          bytes + 1
        in
        let dir = prepare "torn2" in
        let baseline = committed_bytes dir in
        Fault.arm ~bytes:(cost - 1);
        (match Snapshot.save dir altered_members with
        | exception Fault.Killed -> Fault.disarm ()
        | Ok _ ->
            Fault.disarm ();
            Alcotest.fail "save should have been killed at the commit"
        | Error msg ->
            Fault.disarm ();
            Alcotest.fail ("save: " ^ msg));
        check Alcotest.bool "manifest temp written in full" true
          (Sys.file_exists (Filename.concat dir "MANIFEST.aladin-tmp"));
        check Alcotest.bool "previous snapshot byte-identical" true
          (committed_bytes dir = baseline);
        (* the interrupted commit is cleaned up by the next save *)
        save_exn dir altered_members;
        check Alcotest.bool "temp swept" false
          (Sys.file_exists (Filename.concat dir "MANIFEST.aladin-tmp")));
    Alcotest.test_case "unchanged members are hard-linked, not rewritten"
      `Quick (fun () ->
        let dir = Tmp.path "link" in
        save_exn dir test_members;
        let changed =
          List.map
            (fun (m : Snapshot.member) ->
              if m.path = "a/table.csv" then
                { m with content = m.content ^ "4,dingo\n" }
              else m)
            test_members
        in
        Fault.reset_counters ();
        save_exn dir changed;
        let bytes, _, _ = Fault.counters () in
        let table =
          List.find (fun (m : Snapshot.member) -> m.path = "a/table.csv") changed
        in
        let manifest = read_file (Filename.concat dir "MANIFEST") in
        check Alcotest.int "only the changed member and the manifest written"
          (String.length table.content + String.length manifest)
          bytes;
        let members, report = load_exn dir in
        check Alcotest.bool "clean" true (Load_report.is_clean report);
        List.iter
          (fun (m : Snapshot.member) ->
            check Alcotest.(option string) m.path (Some m.content)
              (Snapshot.find members m.path))
          changed);
    Alcotest.test_case "a damaged member is rewritten, not linked" `Quick
      (fun () ->
        let dir = Tmp.path "nolink" in
        save_exn dir test_members;
        let path = stored_path dir 1 "a/table.csv" in
        write_file path (Corrupt.flip_bit_at (read_file path) ~byte:12 ~bit:0);
        save_exn dir test_members;
        let members, report = load_exn dir in
        check Alcotest.bool "clean" true (Load_report.is_clean report);
        check Alcotest.(option string) "intact content"
          (Some
             (List.find
                (fun (m : Snapshot.member) -> m.path = "a/table.csv")
                test_members)
               .content)
          (Snapshot.find members "a/table.csv"));
    Alcotest.test_case "truncation at every offset of every member" `Slow
      (fun () ->
        let dir = Tmp.path "torn3" in
        save_exn dir test_members;
        let report = committed_report dir in
        List.iter
          (fun (m : Load_report.member) ->
            let path = stored_path dir report.generation m.path in
            let orig = read_file path in
            for cut = 0 to String.length orig - 1 do
              write_file path (Corrupt.truncate_at orig cut);
              match Snapshot.verify dir with
              | Ok r ->
                  if Load_report.is_clean r then
                    Alcotest.failf "%s truncated at %d passed verify" m.path
                      cut
              | Error msg ->
                  Alcotest.failf "%s truncated at %d: store-level error %s"
                    m.path cut msg
            done;
            write_file path orig)
          report.members;
        let report = committed_report dir in
        check Alcotest.bool "restored store verifies clean" true
          (Load_report.is_clean report));
  ]

(* --- warehouse-level durability ------------------------------------- *)

open Aladin
let dump_load = T_resilience.dump_load

let mini_catalogs () =
  [
    dump_load ~name:"uniprot"
      [ ("entry", "acc,name\nP10001,alpha\nP10002,beta\nP10003,gamma\n") ];
    dump_load ~name:"pdb"
      [ ("item", "id,acc,score\n1,P10001,0.5\n2,P10003,1.5\n") ];
  ]

let mini_warehouse () = Warehouse.integrate (mini_catalogs ())

let save_wh_exn w dir =
  match Warehouse.save_dir w dir with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("save_dir: " ^ msg)

let warehouse_store_tests =
  [
    Alcotest.test_case "a source named like a store member is refused"
      `Quick (fun () ->
        (* its CSVs would lie under a directory named like the member,
           which is a file: refused before any generation is created *)
        List.iter
          (fun name ->
            let w =
              Warehouse.integrate
                [ dump_load ~name
                    [ ("entry", "acc,name\nP10001,alpha\nP10002,beta\nP10003,gamma\n") ];
                  List.nth (mini_catalogs ()) 1 ]
            in
            check Alcotest.(list string) "integrated" [ name; "pdb" ]
              (Warehouse.sources w);
            let dir = Tmp.path "wname" in
            (match Warehouse.save_dir w dir with
            | Ok () -> Alcotest.failf "saved a source named %S" name
            | Error msg ->
                check Alcotest.bool ("error names " ^ name) true
                  (contains msg (Printf.sprintf "%S" name)));
            check Alcotest.bool "no generation created" false
              (Sys.file_exists dir
              && Array.exists
                   (String.starts_with ~prefix:"snap-")
                   (Sys.readdir dir)))
          [ "metadata.txt"; "sources.txt"; "pairs.txt"; "feedback.txt" ]);
    Alcotest.test_case "a source named under another source is refused" `Quick
      (fun () ->
        (* x/y's members would lie under x/, and a load would give x a
           relation y/entry *)
        let entry = [ ("entry", "acc,name\nP10001,alpha\nP10002,beta\nP10003,gamma\n") ] in
        let w =
          Warehouse.integrate [ dump_load ~name:"x" entry; dump_load ~name:"x/y" entry ]
        in
        let dir = Tmp.path "wnest" in
        (match Warehouse.save_dir w dir with
        | Ok () -> Alcotest.fail "saved a source named x/y"
        | Error msg ->
            check Alcotest.bool "error names x/y" true (contains msg "\"x/y\""));
        check Alcotest.bool "nothing written" false (Sys.file_exists dir));
    Alcotest.test_case "a source name holding a newline is refused" `Quick
      (fun () ->
        (* sources.txt holds one name per line: a load would lose it *)
        let name = "two\nlines" in
        let w =
          Warehouse.integrate
            [ dump_load ~name
                [ ("entry", "acc,name\nP10001,alpha\nP10002,beta\nP10003,gamma\n") ];
              List.nth (mini_catalogs ()) 1 ]
        in
        let dir = Tmp.path "wnl" in
        (match Warehouse.save_dir w dir with
        | Ok () -> Alcotest.fail "saved a source name holding a newline"
        | Error msg ->
            check Alcotest.bool "error names it" true
              (contains msg (Printf.sprintf "%S" name)));
        check Alcotest.bool "nothing written" false (Sys.file_exists dir));
    Alcotest.test_case "save/load/save is byte-identical" `Quick (fun () ->
        let w = mini_warehouse () in
        let dir1 = Tmp.path "wbi1" and dir2 = Tmp.path "wbi2" in
        save_wh_exn w dir1;
        let w2, report = Warehouse.load_dir dir1 in
        check Alcotest.bool "clean" true (Load_report.is_clean report);
        save_wh_exn w2 dir2;
        let _, files1 = committed_bytes dir1 and _, files2 = committed_bytes dir2 in
        check Alcotest.int "same member count" (List.length files1)
          (List.length files2);
        List.iter2
          (fun (p1, c1) (p2, c2) ->
            check Alcotest.string "member path" p1 p2;
            check Alcotest.string ("bytes of " ^ p1) c1 c2)
          files1 files2);
    Alcotest.test_case "warehouse save killed mid-flight keeps snapshot 1"
      `Slow (fun () ->
        let w = mini_warehouse () in
        let dir = Tmp.path "wtorn" in
        save_wh_exn w dir;
        let baseline = committed_bytes dir in
        let kills = ref 0 in
        (* stride through the save's byte offsets; every kill must leave
           the first snapshot loadable byte-identically *)
        let rec attempt budget =
          Fault.arm ~bytes:budget;
          match Warehouse.save_dir w dir with
          | exception Fault.Killed ->
              Fault.disarm ();
              incr kills;
              if committed_bytes dir <> baseline then
                Alcotest.failf "snapshot changed after kill at %d" budget;
              let w2, report = Warehouse.load_dir dir in
              check Alcotest.bool
                (Printf.sprintf "clean load after kill at %d" budget)
                true
                (Load_report.is_clean report);
              check Alcotest.(list string) "sources intact"
                (Warehouse.sources w) (Warehouse.sources w2);
              attempt (budget + 61)
          | Ok () -> Fault.disarm ()
          | Error msg ->
              Fault.disarm ();
              Alcotest.fail ("save_dir: " ^ msg)
        in
        attempt 0;
        check Alcotest.bool "killed at least a few offsets" true (!kills >= 5));
    Alcotest.test_case "bit flip in the metadata member salvages on load"
      `Quick (fun () ->
        let w = mini_warehouse () in
        let dir = Tmp.path "wflip" in
        save_wh_exn w dir;
        let report = committed_report dir in
        let path = stored_path dir report.generation "metadata.txt" in
        let stored = read_file path in
        write_file path
          (Corrupt.flip_bit_at stored ~byte:(String.length stored - 4) ~bit:3);
        let w2, lreport = Warehouse.load_dir dir in
        check Alcotest.bool "load degraded" false
          (Load_report.is_clean lreport);
        (match find_status lreport "metadata.txt" with
        | Some (Load_report.Salvaged n) ->
            check Alcotest.bool "records dropped" true (n >= 1)
        | _ -> Alcotest.fail "expected metadata.txt Salvaged");
        check Alcotest.(list string) "sources survive" (Warehouse.sources w)
          (Warehouse.sources w2));
    Alcotest.test_case "bit flip in a pairs.txt link record drops only that record"
      `Quick (fun () ->
        let w = mini_warehouse () in
        let render ls =
          List.map
            (fun (l : Aladin_links.Link.t) ->
              Format.asprintf "%a %h" Aladin_links.Link.pp l l.confidence)
            ls
        in
        let saved = render (Warehouse.links w) in
        check Alcotest.bool "several links" true (List.length saved >= 2);
        let dir = Tmp.path "wpairs" in
        save_wh_exn w dir;
        let report = committed_report dir in
        let path = stored_path dir report.generation "pairs.txt" in
        let stored = read_file path in
        (* the last byte of the first link record, inside its evidence *)
        let byte =
          let rec find i =
            if String.sub stored i 7 = "\tplink\t" then i else find (i + 1)
          in
          String.index_from stored (find 0) '\n' - 1
        in
        write_file path (Corrupt.flip_bit_at stored ~byte ~bit:0);
        let w2, lreport = Warehouse.load_dir dir in
        (match find_status lreport "pairs.txt" with
        | Some (Load_report.Salvaged 1) -> ()
        | _ -> Alcotest.fail "expected pairs.txt Salvaged with one record dropped");
        let loaded = render (Warehouse.links w2) in
        check Alcotest.bool "at most one link lost" true
          (List.length loaded >= List.length saved - 1);
        check Alcotest.(list string) "the rest kept, in order" loaded
          (List.filter (fun l -> List.mem l loaded) saved));
    Alcotest.test_case "bit flip in a csv member drops only the torn row"
      `Quick (fun () ->
        let w = mini_warehouse () in
        let dir = Tmp.path "wcsv" in
        save_wh_exn w dir;
        let report = committed_report dir in
        let path = stored_path dir report.generation "uniprot/entry.csv" in
        let stored = read_file path in
        (* break the arity of the beta row by corrupting its comma *)
        let comma =
          let i = ref (-1) in
          String.iteri
            (fun j c ->
              if !i < 0 && c = ',' && j >= 6
                 && String.sub stored (j - 6) 6 = "P10002"
              then i := j)
            stored;
          !i
        in
        check Alcotest.bool "found the comma" true (comma > 0);
        write_file path (Corrupt.flip_bit_at stored ~byte:comma ~bit:0);
        let w2, lreport = Warehouse.load_dir dir in
        check Alcotest.bool "load degraded" false
          (Load_report.is_clean lreport);
        let n w =
          match Engine.query (Engine.create w) "SELECT * FROM uniprot.entry" with
          | Ok r -> Aladin_relational.Relation.cardinality r
          | Error msg -> Alcotest.fail msg
        in
        check Alcotest.int "one row lost" 2 (n w2);
        check Alcotest.(list string) "sources survive" (Warehouse.sources w)
          (Warehouse.sources w2));
  ]

(* --- a manifest is untrusted input: its member paths obey save's rules --- *)

(* add one member line to a store's MANIFEST and re-seal it with a
   correct self-CRC, as anyone with write access could *)
let reseal_with_member dir line =
  let path = Filename.concat dir "MANIFEST" in
  let body =
    String.split_on_char '\n' (read_file path)
    |> List.filter (fun l -> l <> "" && not (String.starts_with ~prefix:"crc\t" l))
    |> fun ls -> String.concat "" (List.map (fun l -> l ^ "\n") (ls @ [ line ]))
  in
  write_file path (body ^ "crc\t" ^ Crc32.to_hex (Crc32.string body) ^ "\n")

let manifest_path_tests =
  let outside name line_of =
    let base = Tmp.path "mpath" in
    Sys.mkdir base 0o755;
    let st = Filename.concat base "st" in
    save_exn st test_members;
    let victim = Filename.concat base name in
    let bytes = "outside the store\n" in
    write_file victim bytes;
    reseal_with_member st (line_of bytes);
    List.iter
      (fun (what, res) ->
        match res with
        | Ok () -> Alcotest.fail (what ^ " accepted a manifest naming " ^ name)
        | Error e ->
            check Alcotest.bool (what ^ " names the path") true
              (contains e ("../" ^ name)))
      [ ("load", Result.map ignore (Snapshot.load st));
        ("verify", Result.map ignore (Snapshot.verify st));
        ("repair", Result.map ignore (Snapshot.repair st)) ];
    check Alcotest.string "the outside file keeps its bytes" bytes
      (read_file victim);
    check Alcotest.bool "nothing quarantined" false
      (Sys.file_exists (Filename.concat st ".quarantine"))
  in
  [
    Alcotest.test_case "a member path leaving the store is refused" `Quick
      (fun () ->
        outside "victim.txt" (fun _ ->
            "member\t../../victim.txt\trecords\t3\t00000000"));
    Alcotest.test_case "an outside file with its own checksum is refused"
      `Quick (fun () ->
        outside "secret.csv" (fun bytes ->
            Printf.sprintf "member\ta/../../../secret.csv\tcsv\t%d\t%s"
              (String.length bytes)
              (Crc32.to_hex (Crc32.string bytes))));
  ]

(* --- the journal: a plan file written once --- *)

let journal_create_exn dir ~meta =
  match Journal.create dir ~meta with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("journal create: " ^ msg)

let journal_plan_exn dir =
  match Journal.plan dir with
  | Ok meta -> meta
  | Error msg -> Alcotest.fail ("journal plan: " ^ msg)

let journal_tests =
  [
    Alcotest.test_case "create/plan roundtrip" `Quick (fun () ->
        let dir = Tmp.path "jrt" in
        let meta =
          [ ("plan", "demo"); ("source.0.path", "dir\twith tab\nand newline") ]
        in
        journal_create_exn dir ~meta;
        check
          Alcotest.(list (pair string string))
          "meta round-trips, escapes included" meta (journal_plan_exn dir);
        let doc = read_file (Filename.concat dir "JOURNAL") in
        check Alcotest.int "one line" 1
          (List.length (String.split_on_char '\n' doc) - 1);
        check Alcotest.string "store beside the plan"
          (Filename.concat dir "store") (Journal.store_dir dir));
    Alcotest.test_case "create refuses an existing journal" `Quick (fun () ->
        let dir = Tmp.path "jdup" in
        journal_create_exn dir ~meta:[];
        check Alcotest.bool "refused" true
          (Result.is_error (Journal.create dir ~meta:[])));
    Alcotest.test_case "create refuses '=' in meta keys" `Quick (fun () ->
        let dir = Tmp.path "jeq" in
        check Alcotest.bool "refused" true
          (Result.is_error (Journal.create dir ~meta:[ ("a=b", "v") ])));
    Alcotest.test_case "create refuses a directory holding a store" `Quick
      (fun () ->
        (* the store is the commit record: a new plan must not adopt a
           stale one *)
        let dir = Tmp.path "jstale" in
        save_exn (Journal.store_dir dir) test_members;
        check Alcotest.bool "refused" true
          (Result.is_error (Journal.create dir ~meta:[]));
        check Alcotest.bool "no journal written" false (Journal.exists dir));
    Alcotest.test_case "create accepts leftover temp files" `Quick (fun () ->
        (* what a create killed before its rename leaves behind *)
        let dir = Tmp.path "jtmp" in
        Sys.mkdir dir 0o755;
        write_file
          (Filename.concat dir ("JOURNAL" ^ Atomic_file.temp_suffix))
          "torn";
        journal_create_exn dir ~meta:[ ("plan", "t") ];
        check
          Alcotest.(list (pair string string))
          "plan" [ ("plan", "t") ] (journal_plan_exn dir));
    Alcotest.test_case "plan ignores records after the header" `Quick
      (fun () ->
        (* a journal of the earlier append-only format: intent, commit
           and reset records and a torn fragment after the header *)
        let dir = Tmp.path "jold" in
        journal_create_exn dir ~meta:[ ("plan", "old") ];
        let path = Filename.concat dir "JOURNAL" in
        let line fields = Records.record (Serial.record fields) ^ "\n" in
        write_file path
          (read_file path
          ^ line [ "intent"; "0"; "source:a" ]
          ^ line [ "commit"; "0"; "source:a"; "1"; "source"; "a" ]
          ^ line [ "reset" ] ^ "deadbeef\tintent\t9");
        check
          Alcotest.(list (pair string string))
          "plan" [ ("plan", "old") ] (journal_plan_exn dir));
    Alcotest.test_case "version-1 journal is refused" `Quick (fun () ->
        let dir = Tmp.path "jv1" in
        Sys.mkdir dir 0o755;
        (* a version-1 header: same line framing, older version field *)
        write_file
          (Filename.concat dir "JOURNAL")
          (Records.record "aladin-journal\t1\tsources=0" ^ "\n");
        match Journal.plan dir with
        | Ok _ -> Alcotest.fail "a version-1 journal was read"
        | Error e ->
            check Alcotest.bool "tells the user to re-run integrate" true
              (contains e "re-run integrate"));
  ]

let tests =
  [
    ("store.crc32", crc_tests);
    ("store.records", records_tests);
    ("store.codec_reference", codec_reference_tests);
    ("store.snapshot", snapshot_tests);
    ("store.torn-write", torn_write_tests);
    ("store.manifest_paths", manifest_path_tests);
    ("store.journal", journal_tests);
    ("store.warehouse", warehouse_store_tests);
  ]
