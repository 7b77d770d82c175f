(* Tests of the benchmark's own logic: sampling, percentiles, self time,
   open-loop accounting and the residual attribution. *)

open Perfbench_lib
module Span = Aladin_obs.Span

let close_to ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float msg expected got =
  Alcotest.(check bool) (Printf.sprintf "%s: expected %g, got %g" msg expected got) true
    (close_to expected got)

(* --- sampler --- *)

let targets =
  List.concat_map
    (fun (route, n) -> List.init n (fun i -> (route, Printf.sprintf "/%s/%d" (Sampler.route_name route) i)))
    Sampler.[ (Object, 400); (Search, 300); (Resolve, 200); (Query, 20); (Links, 6) ]

let draws seed n =
  let s = Sampler.create ~seed targets in
  List.init n (fun _ -> Sampler.next s)

let test_sampler_deterministic () =
  Alcotest.(check bool) "same seed, same draws" true (draws 7 2000 = draws 7 2000);
  Alcotest.(check bool) "another seed, other draws" false (draws 7 2000 = draws 8 2000)

let test_sampler_weights () =
  let n = 100_000 in
  let ds = draws 3 n in
  List.iter
    (fun route ->
      let got = List.length (List.filter (fun (r, _) -> r = route) ds) in
      let share = float_of_int got /. float_of_int n in
      let want = float_of_int (Sampler.weight route) /. 100.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s share %.4f near %.2f" (Sampler.route_name route) share want)
        true
        (Float.abs (share -. want) < 0.01))
    Sampler.routes

let test_sampler_zipf () =
  (* within a route, the k-th most popular key is drawn about 1/k as
     often as the most popular one *)
  let ds = draws 11 200_000 in
  let counts = Hashtbl.create 512 in
  List.iter
    (fun (r, k) ->
      if r = Sampler.Object then
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    ds;
  let sorted =
    List.sort (fun a b -> compare b a) (Hashtbl.fold (fun _ c acc -> c :: acc) counts [])
  in
  let top = float_of_int (List.nth sorted 0) in
  List.iter
    (fun k ->
      let ratio = top /. float_of_int (List.nth sorted (k - 1)) in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d drawn %.2fx less than rank 1" k ratio)
        true
        (Float.abs (ratio -. float_of_int k) /. float_of_int k < 0.15))
    [ 2; 4; 8 ]

let test_zipf_rank () =
  let cdf = Sampler.zipf_cdf 4 in
  (* masses 1, 1/2, 1/3, 1/4 of 25/12 *)
  Alcotest.(check int) "u = 0" 0 (Sampler.zipf_rank cdf 0.0);
  Alcotest.(check int) "just below the first boundary" 0 (Sampler.zipf_rank cdf 0.47);
  Alcotest.(check int) "just above it" 1 (Sampler.zipf_rank cdf 0.49);
  Alcotest.(check int) "u near 1" 3 (Sampler.zipf_rank cdf 0.999)

(* --- percentiles --- *)

let test_percentile_ranks () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50 of 1..100" 50.0 (Stats.percentile xs 50.0);
  check_float "p99 of 1..100" 99.0 (Stats.percentile xs 99.0);
  check_float "median of 1..100" 50.5 (Stats.median xs);
  check_float "median of three" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ])

let test_tail_picks_highest () =
  let xs n = List.init n (fun i -> float_of_int i) in
  let pick n = Option.map fst (Stats.tail (xs n)) in
  Alcotest.(check (option (float 0.0))) "1000 samples: p99 has exactly ten beyond" (Some 99.0) (pick 1000);
  Alcotest.(check (option (float 0.0))) "999 samples: p99 has nine, p95 qualifies" (Some 95.0) (pick 999);
  Alcotest.(check (option (float 0.0))) "10000 samples: p99.9" (Some 99.9) (pick 10000);
  Alcotest.(check (option (float 0.0))) "200 samples: p95" (Some 95.0) (pick 200);
  Alcotest.(check (option (float 0.0))) "20 samples: p50" (Some 50.0) (pick 20);
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (pick 19);
  match Stats.tail (xs 1000) with
  | Some (_, v) -> check_float "p99 value of 0..999" 989.0 v
  | None -> Alcotest.fail "no tail"

(* --- self time --- *)

let span name start finish children =
  let sp = Span.make ~name ~start in
  List.iter (Span.add_child sp) children;
  Span.close sp ~at:finish;
  sp

let test_self_time_disjoint () =
  check_float "no children" 10.0 (Selftime.self_time ~start:0.0 ~finish:10.0 []);
  check_float "two disjoint children" 5.0
    (Selftime.self_time ~start:0.0 ~finish:10.0 [ (1.0, 3.0); (5.0, 8.0) ])

let test_self_time_overlap () =
  (* concurrent workers covering 2-6 and 4-9: the union is 2-9 *)
  check_float "overlapping children count once" 3.0
    (Selftime.self_time ~start:0.0 ~finish:10.0 [ (2.0, 6.0); (4.0, 9.0) ]);
  check_float "nested children" 6.0
    (Selftime.self_time ~start:0.0 ~finish:10.0 [ (2.0, 6.0); (3.0, 4.0) ]);
  check_float "children sticking out are clipped" 6.0
    (Selftime.self_time ~start:0.0 ~finish:10.0 [ (-5.0, 1.0); (7.0, 20.0) ]);
  check_float "children outside the span do not count" 10.0
    (Selftime.self_time ~start:0.0 ~finish:10.0 [ (11.0, 12.0) ]);
  check_float "children covering everything" 0.0
    (Selftime.self_time ~start:0.0 ~finish:10.0 [ (0.0, 6.0); (5.0, 10.0) ])

let test_self_time_tree () =
  let w1 = span "par.worker" 2.0 6.0 [] and w2 = span "par.worker" 3.0 7.0 [] in
  let pass = span "seq pass" 1.0 8.0 [ w1; w2 ] in
  let root = span "link discovery" 0.0 10.0 [ pass ] in
  let selfs = Selftime.fold (fun acc sp self -> (Span.name sp, self) :: acc) [] [ root ] in
  check_float "root self" 3.0 (List.assoc "link discovery" selfs);
  check_float "pass self: 7 s minus the 2-7 union" 2.0 (List.assoc "seq pass" selfs);
  check_float "each worker's busy time" 8.0
    (List.fold_left (fun acc (n, v) -> if n = "par.worker" then acc +. v else acc) 0.0 selfs)

(* --- open-loop accounting --- *)

let sample ~due ~sent ~finished = { Sched.due; sent; finished; ok = true }

let test_due_times () =
  check_float "request 0 is due at start" 100.0 (Sched.due_time ~start:100.0 ~rate:50.0 0);
  check_float "request 25 at 50/s" 100.5 (Sched.due_time ~start:100.0 ~rate:50.0 25)

let test_lateness () =
  let s = sample ~due:1.0 ~sent:1.25 ~finished:1.5 in
  check_float "latency runs from the due time" 0.5 (Sched.latency s);
  check_float "lateness is send minus due" 0.25 (Sched.lateness s);
  check_float "early sends are not negative lateness" 0.0
    (Sched.lateness (sample ~due:1.0 ~sent:0.9 ~finished:1.0))

let test_stall_charged () =
  (* a 100 ms stall at request 0 delays everything queued behind it:
     each later request is charged from its own due time *)
  let rate = 100.0 in
  let samples =
    List.init 8 (fun i ->
        let due = Sched.due_time ~start:0.0 ~rate i in
        let sent = Float.max due (0.1 +. (0.001 *. float_of_int i)) in
        sample ~due ~sent ~finished:(sent +. 0.001))
  in
  let v = Sched.judge ~limit:1.0 ~max_growth:1.0 samples in
  check_float "max lateness is the stall" 0.1 v.max_lateness;
  (* latencies 0.101, 0.092, ..., 0.038: the median sits between 0.074
     and 0.065 *)
  check_float "median latency includes the wait" 0.0695 v.p50;
  Alcotest.(check bool) "eight samples have no tail percentile" true (v.tail = None);
  (* the same stall in a 2000-request phase at 1000/s: a tenth of the
     requests wait up to 200 ms, so the p99 misses a 50 ms limit that
     the unstalled phase meets *)
  let phase stall =
    List.init 2000 (fun i ->
        let due = Sched.due_time ~start:0.0 ~rate:1000.0 i in
        let sent = if due < stall then stall +. (0.00001 *. float_of_int i) else due in
        sample ~due ~sent ~finished:(sent +. 0.001))
  in
  Alcotest.(check bool) "stalled phase misses" false
    (Sched.judge ~limit:0.05 ~max_growth:1.0 (phase 0.2)).meets;
  Alcotest.(check bool) "unstalled phase meets" true
    (Sched.judge ~limit:0.05 ~max_growth:1.0 (phase 0.0)).meets

let test_lag_growth () =
  let phase lag_of_i =
    List.init 40 (fun i ->
        let due = float_of_int i *. 0.01 in
        let sent = due +. lag_of_i i in
        sample ~due ~sent ~finished:(sent +. 0.001))
  in
  check_float "a steady generator does not grow" 0.0 (Sched.lag_growth (phase (fun _ -> 0.002)));
  check_float "a falling-behind generator grows" 0.03
    (Sched.lag_growth (phase (fun i -> 0.001 *. float_of_int i)));
  let failing = { (sample ~due:0.0 ~sent:0.0 ~finished:0.001) with ok = false } in
  let v = Sched.judge ~limit:1.0 ~max_growth:1.0 (failing :: phase (fun _ -> 0.0)) in
  Alcotest.(check int) "failures counted" 1 v.failed;
  Alcotest.(check bool) "a failure misses the limit" false v.meets

(* --- residual attribution --- *)

let test_journal_residual () =
  let steps =
    [
      span "import" 1.0 1.5 [];
      span "primary discovery" 1.5 3.0 [ span "fk inference" 2.0 2.5 [] ];
      span "link discovery" 3.2 6.0 [];
      span "duplicate detection" 6.0 7.0 [];
      (* not a step span: time in it is the journal's *)
      span "checkpoint" 7.0 9.0 [];
    ]
  in
  let call = span "bench.integrate_journaled" 0.0 10.0 steps in
  let spans = Layers.all_spans [ call ] in
  (* 10 s minus the steps' 0.5 + 1.5 + 2.8 + 1.0 *)
  check_float "journal residual" 4.2 (Layers.residual "bench.integrate_journaled" spans);
  check_float "a name with no spans has no residual" 0.0 (Layers.residual "bench.add_source" spans);
  check_float "residual over a plain interval list" 7.0
    (Selftime.residual ~wall:(0.0, 10.0) [ (1.0, 2.0); (1.5, 4.0) ])

let test_skew () =
  let worker i start finish =
    let sp = span "par.worker" start finish [] in
    Span.add_attr sp "worker" (string_of_int i);
    sp
  in
  (* two fan-outs under one pass: busy 3/1 (max 3, mean 2) then 2/2 *)
  let pass =
    span "seq pass" 0.0 10.0 [ worker 0 0.0 3.0; worker 1 0.0 1.0; worker 0 4.0 6.0; worker 1 4.0 6.0 ]
  in
  let spans = Layers.all_spans [ pass ] in
  Alcotest.(check int) "two fan-outs" 2 (List.length (Layers.fan_outs spans));
  check_float "max over mean, weighted by size" (5.0 /. 4.0) (Layers.skew spans)

let () =
  Alcotest.run "perfbench"
    [
      ( "sampler",
        [
          Alcotest.test_case "deterministic per seed" `Quick test_sampler_deterministic;
          Alcotest.test_case "route weights" `Quick test_sampler_weights;
          Alcotest.test_case "zipf within a route" `Quick test_sampler_zipf;
          Alcotest.test_case "zipf rank boundaries" `Quick test_zipf_rank;
        ] );
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile_ranks;
          Alcotest.test_case "tail has ten samples beyond" `Quick test_tail_picks_highest;
        ] );
      ( "selftime",
        [
          Alcotest.test_case "disjoint children" `Quick test_self_time_disjoint;
          Alcotest.test_case "overlapping children" `Quick test_self_time_overlap;
          Alcotest.test_case "span tree" `Quick test_self_time_tree;
        ] );
      ( "sched",
        [
          Alcotest.test_case "due times" `Quick test_due_times;
          Alcotest.test_case "latency and lateness" `Quick test_lateness;
          Alcotest.test_case "stall charged to queued requests" `Quick test_stall_charged;
          Alcotest.test_case "lag growth" `Quick test_lag_growth;
        ] );
      ( "layers",
        [
          Alcotest.test_case "journal residual" `Quick test_journal_residual;
          Alcotest.test_case "fan-out skew" `Quick test_skew;
        ] );
    ]
