type t = {
  parent : (string, string) Hashtbl.t;
  rank : (string, int) Hashtbl.t;
}

let create () = { parent = Hashtbl.create 64; rank = Hashtbl.create 64 }

let add t x =
  if not (Hashtbl.mem t.parent x) then begin
    Hashtbl.add t.parent x x;
    Hashtbl.add t.rank x 0
  end

let rec find t x =
  add t x;
  let p = Hashtbl.find t.parent x in
  if p = x then x
  else begin
    let root = find t p in
    Hashtbl.replace t.parent x root;
    root
  end

let union t a b =
  let ra = find t a and rb = find t b in
  if ra <> rb then begin
    let ka = Hashtbl.find t.rank ra and kb = Hashtbl.find t.rank rb in
    if ka < kb then Hashtbl.replace t.parent ra rb
    else if ka > kb then Hashtbl.replace t.parent rb ra
    else begin
      Hashtbl.replace t.parent rb ra;
      Hashtbl.replace t.rank ra (ka + 1)
    end
  end

let clusters t =
  let members : (string, string list ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun x _ ->
      let root = find t x in
      match Hashtbl.find_opt members root with
      | Some l -> l := x :: !l
      | None -> Hashtbl.add members root (ref [ x ]))
    t.parent;
  Hashtbl.fold
    (fun _ l acc ->
      if List.length !l >= 2 then List.sort String.compare !l :: acc else acc)
    members []
  |> List.sort (fun a b ->
         match (a, b) with
         | x :: _, y :: _ -> String.compare x y
         | [], _ -> -1
         | _, [] -> 1)
