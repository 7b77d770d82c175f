(* total attempts, including the first *)
let attempts = 3

(* seconds before the first retry, pre-jitter, growing by [multiplier]
   per attempt up to [max_delay] *)
let base_delay = 0.005

let multiplier = 2.0

let max_delay = 0.25

(* symmetric fraction of the delay *)
let jitter = 0.25

(* the jitter hash seed *)
let seed = 9

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* transient = the same call may succeed if simply repeated: interrupted
   or contended I/O. Anything deterministic (parse failures, missing
   files, logic bugs) is permanent — retrying would just burn the budget
   reproducing the same failure. *)
let transient = function
  | Unix.Unix_error
      ((EINTR | EAGAIN | EWOULDBLOCK | EBUSY | ENFILE | EMFILE), _, _) ->
      true
  | Sys_error msg ->
      contains ~sub:"Interrupted" msg
      || contains ~sub:"interrupted" msg
      || contains ~sub:"temporarily unavailable" msg
      || contains ~sub:"Resource busy" msg
      || contains ~sub:"Too many open files" msg
  | _ -> false

(* the one blessed sleep in the tree (scripts/check.sh forbids raw
   Unix.sleep/sleepf elsewhere): EINTR-tolerant, no-op on <= 0 *)
let sleepf seconds =
  if seconds > 0.0 then
    try Unix.sleepf seconds with Unix.Unix_error (EINTR, _, _) -> ()

(* deterministic jitter: a seeded FNV-style hash of (seed, step,
   attempt) folded to [0,1] — no Random state, so a replayed run backs
   off identically *)
let unit_float ~seed ~step ~attempt =
  let mix h k = (h * 0x01000193) land 0x3FFFFFFF lxor k in
  let h = mix (mix 0x811C9DC5 seed) attempt in
  let h = String.fold_left (fun h c -> mix h (Char.code c)) h step in
  float_of_int (h land 0xFFFFFF) /. float_of_int 0xFFFFFF

let backoff_delay ~step ~attempt =
  let exp = base_delay *. (multiplier ** float_of_int attempt) in
  let capped = Float.min max_delay exp in
  let u = (2.0 *. unit_float ~seed ~step ~attempt) -. 1.0 in
  Float.max 0.0 (capped *. (1.0 +. (jitter *. u)))

let run ~step f =
  let rec go attempt =
    match f () with
    | v -> v
    | exception e -> (
        match e with
        (* never retry a kill, resource exhaustion, or budget expiry:
           the first two must escape (see Boundary), and a retry cannot
           manufacture wall-clock the budget no longer has *)
        | Aladin_store.Fault.Killed | Stack_overflow | Out_of_memory
        | Budget.Expired _ ->
            raise e
        | e when attempt + 1 >= attempts -> raise e
        | e when not (transient e) -> raise e
        | _ ->
            let d = backoff_delay ~step ~attempt in
            (* never sleep past an active deadline *)
            let d =
              match Budget.remaining () with
              | Some r -> Float.min d r
              | None -> d
            in
            sleepf d;
            go (attempt + 1))
  in
  go 0
