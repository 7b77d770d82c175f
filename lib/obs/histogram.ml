type t = {
  counts : int array; (* length = Array.length bounds + 1; last is overflow *)
  mutable total : int;
  mutable vsum : float;
  mutable vmin : float;
  mutable vmax : float;
}

let bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0 |]

let create () =
  {
    counts = Array.make (Array.length bounds + 1) 0;
    total = 0;
    vsum = 0.0;
    vmin = 0.0;
    vmax = 0.0;
  }

let bucket_index v =
  let n = Array.length bounds in
  let rec find i = if i >= n then n else if v <= bounds.(i) then i else find (i + 1) in
  find 0

let observe t v =
  let i = bucket_index v in
  t.counts.(i) <- t.counts.(i) + 1;
  if t.total = 0 then begin
    t.vmin <- v;
    t.vmax <- v
  end
  else begin
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v
  end;
  t.total <- t.total + 1;
  t.vsum <- t.vsum +. v

let count t = t.total

let sum t = t.vsum

let min_value t = t.vmin

let max_value t = t.vmax

let mean t = if t.total = 0 then 0.0 else t.vsum /. float_of_int t.total

let buckets t =
  List.init
    (Array.length t.counts)
    (fun i ->
      let bound =
        if i < Array.length bounds then bounds.(i) else infinity
      in
      (bound, t.counts.(i)))

let merge_into dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  if src.total > 0 then begin
    if dst.total = 0 then begin
      dst.vmin <- src.vmin;
      dst.vmax <- src.vmax
    end
    else begin
      if src.vmin < dst.vmin then dst.vmin <- src.vmin;
      if src.vmax > dst.vmax then dst.vmax <- src.vmax
    end;
    dst.total <- dst.total + src.total;
    dst.vsum <- dst.vsum +. src.vsum
  end
