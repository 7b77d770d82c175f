(* Order statistics for the benchmark's reports.

   Percentiles are nearest-rank: the p-th percentile of n samples is the
   sample at rank ceil(p/100 * n) in ascending order, so every reported
   value is one that was actually measured. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* the epsilon keeps 99.9/100 * 10000 from rounding up past 9990 *)
let rank n p = max 1 (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9)))

let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan else a.(min n (rank n p) - 1)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* samples strictly above the p-th percentile's rank *)
let beyond n p = n - rank n p

(* The percentiles a report may quote, highest first. *)
let candidates = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

(* samples a reported tail percentile needs beyond it *)
let min_beyond = 10

(* The highest candidate percentile that has at least [min_beyond]
   samples beyond it, with its value; [None] when even the median has
   too few. A p99 therefore needs at least 1000 samples. *)
let tail xs =
  let n = List.length xs in
  List.find_opt (fun p -> beyond n p >= min_beyond) candidates
  |> Option.map (fun p -> (p, percentile xs p))
