(* Open-loop schedule accounting. Request [i] of a phase at [rate]
   requests per second is due at [start + i / rate], whatever happened
   to earlier requests. Its latency runs from that due time, not from
   when the generator got round to sending it, so a stall is charged to
   every request queued behind it; how late the generator ran is
   reported on its own. *)

type sample = {
  due : float;  (** scheduled send time *)
  sent : float;  (** when the request actually went out *)
  finished : float;  (** when its full response was read *)
  ok : bool;  (** a 200 with the whole body *)
}

let due_time ~start ~rate i = start +. (float_of_int i /. rate)

let latency s = s.finished -. s.due

let lateness s = Float.max 0.0 (s.sent -. s.due)

(* Lag growth: how much later the last quarter of the phase was sent
   than the first quarter, by median lateness. A generator that keeps
   up stays near 0; one that falls behind grows without bound. *)
let lag_growth samples =
  let a = Array.of_list samples in
  Array.sort (fun x y -> Float.compare x.due y.due) a;
  let n = Array.length a in
  if n < 4 then 0.0
  else
    let q = n / 4 in
    let lat lo hi = Stats.median (List.init (hi - lo) (fun i -> lateness a.(lo + i))) in
    lat (n - q) n -. lat 0 q

type verdict = {
  requests : int;
  failed : int;
  p50 : float;
  tail : (float * float) option;  (** (percentile, latency) *)
  max_lateness : float;
  lag_growth : float;
  meets : bool;
}

(* A phase meets the limit when nothing failed, its tail latency (the
   highest percentile with ten samples beyond it) is within [limit]
   seconds, and the generator's lag did not grow by more than
   [max_growth] seconds. Failed requests count as missing the limit. *)
let judge ~limit ~max_growth samples =
  let lats = List.map (fun s -> if s.ok then latency s else Float.infinity) samples in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  let tail = Stats.tail lats in
  let growth = lag_growth samples in
  {
    requests = List.length samples;
    failed;
    p50 = Stats.median lats;
    tail;
    max_lateness = List.fold_left (fun m s -> Float.max m (lateness s)) 0.0 samples;
    lag_growth = growth;
    meets =
      failed = 0 && growth <= max_growth
      && (match tail with Some (_, v) -> v <= limit | None -> false);
  }
