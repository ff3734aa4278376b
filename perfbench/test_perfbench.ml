(* Tests for the benchmark's own arithmetic, run on the code the
   benchmark itself uses (Pstat, Trace, Speed). *)

open Clof_perfbench

let feq = Alcotest.float 1e-9
let rate = Alcotest.(option (float 0.0))

(* ---------- tail-percentile rule ---------- *)

(* samples beyond the percentile with [k] nines (the median for 0) *)
let beyond n k = if k = 0 then n / 2 else n / int_of_float (10.0 ** float_of_int k)

let test_tail_fixed () =
  List.iter
    (fun (n, want) ->
      Alcotest.(check (option int)) (Printf.sprintf "n=%d" n) want (Pstat.tail_nines n))
    [
      (19, None); (20, Some 0); (99, Some 0); (100, Some 1); (999, Some 1); (1000, Some 2);
      (3116, Some 2); (9999, Some 2); (10000, Some 3); (65211, Some 3); (100000, Some 4);
    ];
  Alcotest.(check (list string))
    "tags" [ "p50"; "p90"; "p99"; "p99_9"; "p99_99" ]
    (List.map Pstat.tag_of_nines [ 0; 1; 2; 3; 4 ]);
  Alcotest.check feq "p99.9" 99.9 (Pstat.percent_of_nines 3);
  Alcotest.check feq "median" 50.0 (Pstat.percent_of_nines 0)

(* The chosen percentile leaves at least ten samples beyond it and the
   next one up leaves fewer. *)
let test_tail_highest () =
  List.iter
    (fun n ->
      let msg = Printf.sprintf "n=%d" n in
      match Pstat.tail_nines n with
      | None -> Alcotest.(check bool) (msg ^ " has no tail") true (beyond n 0 < 10)
      | Some k ->
          Alcotest.(check bool) (msg ^ ": >= 10 beyond") true (beyond n k >= 10);
          Alcotest.(check bool) (msg ^ ": < 10 beyond the next") true (beyond n (k + 1) < 10))
    (List.init 2000 Fun.id @ List.init 200 (fun i -> 1 + (i * 7919)))

(* ---------- SLO-rate search ---------- *)

let test_slo_monotone () =
  let check = Alcotest.check rate in
  check "all pass" (Some 0.96) (Pstat.slo_rate [ (0.32, true); (0.64, true); (0.96, true) ]);
  check "stops at the first failure" (Some 0.64)
    (Pstat.slo_rate [ (0.32, true); (0.64, true); (0.96, false); (1.28, true) ]);
  check "lowest fails" None (Pstat.slo_rate [ (0.32, false); (0.64, true) ]);
  check "empty" None (Pstat.slo_rate []);
  let bad = Invalid_argument "Pstat.slo_rate: ladder not increasing" in
  Alcotest.check_raises "decreasing" bad (fun () ->
      ignore (Pstat.slo_rate [ (0.64, true); (0.32, true) ]));
  Alcotest.check_raises "repeated rung" bad (fun () ->
      ignore (Pstat.slo_rate [ (0.32, true); (0.32, true) ]))

let test_slo_drain () =
  let ok = Pstat.rung_ok ~slo_ns:25_000.0 ~slack_ns:25_000.0 in
  Alcotest.(check bool) "meets both" true (ok ~p99_ns:20_000.0 ~overshoot_ns:1_000.0);
  Alcotest.(check bool) "p99 over" false (ok ~p99_ns:30_000.0 ~overshoot_ns:0.0);
  Alcotest.(check bool)
    "good p99 but a growing backlog" false
    (ok ~p99_ns:5_000.0 ~overshoot_ns:900_000.0);
  (* a rung that fails to drain caps the rate even though its p99 is fine *)
  let ladder =
    [
      (0.32, ok ~p99_ns:6_000.0 ~overshoot_ns:0.0);
      (0.64, ok ~p99_ns:8_000.0 ~overshoot_ns:40_000.0);
    ]
  in
  Alcotest.check rate "drain caps" (Some 0.32) (Pstat.slo_rate ladder)

(* ---------- span self time ---------- *)

let test_self_time () =
  let self = Pstat.self_time ~start:0.0 ~stop:10.0 in
  Alcotest.check feq "no children" 10.0 (self []);
  Alcotest.check feq "disjoint" 6.0 (self [ (1.0, 3.0); (5.0, 7.0) ]);
  Alcotest.check feq "nested" 6.0 (self [ (1.0, 5.0); (2.0, 3.0) ]);
  Alcotest.check feq "overlapping" 5.0 (self [ (1.0, 4.0); (3.0, 6.0) ]);
  Alcotest.check feq "touching" 6.0 (self [ (1.0, 3.0); (3.0, 5.0) ]);
  Alcotest.check feq "clipped to the parent" 7.0 (self [ (-5.0, 2.0); (9.0, 12.0) ]);
  Alcotest.check feq "outside" 10.0 (self [ (11.0, 12.0) ]);
  Alcotest.check feq "covered" 0.0 (self [ (0.0, 6.0); (5.0, 10.0) ])

let test_trace_spans () =
  Trace.arm "test";
  let outer_id = ref (-1) in
  Trace.span "outer" (fun () ->
      outer_id := Trace.current ();
      Trace.span "inner" (fun () -> Trace.count "items" 3.0);
      let parent = Trace.current () in
      (* a span opened on another domain names its parent explicitly *)
      Domain.join (Domain.spawn (fun () -> Trace.span ~parent "remote" ignore)));
  let all = Trace.spans () in
  let find name = List.find (fun s -> s.Trace.name = name) all in
  let outer = find "outer" and inner = find "inner" and remote = find "remote" in
  Alcotest.(check int) "outer is a root" (-1) outer.Trace.parent;
  Alcotest.(check int) "outer id" !outer_id outer.Trace.id;
  Alcotest.(check int) "inner parent" outer.Trace.id inner.Trace.parent;
  Alcotest.(check int) "remote parent" outer.Trace.id remote.Trace.parent;
  Alcotest.(check string) "run id" "test" inner.Trace.run_id;
  Alcotest.check rate "count" (Some 3.0) (List.assoc_opt "items" inner.Trace.counts);
  let interval s = (s.Trace.start, s.Trace.stop) in
  let children = [ interval inner; interval remote ] in
  let expected = Pstat.self_time ~start:outer.Trace.start ~stop:outer.Trace.stop children in
  Alcotest.check feq "self time of the recorded spans" expected (Trace.self_time all outer);
  Alcotest.(check bool)
    "self time within the span" true
    (Trace.self_time all outer <= outer.Trace.stop -. outer.Trace.start)

(* ---------- reference clock ---------- *)

(* Between probes the clock runs at the speed of the latest probe,
   scaled to the nominal probe time; a probe itself does not count. *)
let test_reference_clock () =
  Speed.probe ();
  let d = List.hd (Speed.probes ()) in
  let h0 = Speed.cpu () and c0 = Speed.clock () in
  while Speed.cpu () -. h0 < 0.02 do
    ()
  done;
  let c1 = Speed.clock () and h1 = Speed.cpu () in
  let want = (h1 -. h0) *. Speed.nominal_s /. d in
  Alcotest.(check bool)
    "scaled by the latest probe" true
    (Float.abs (c1 -. c0 -. want) < 0.05 *. want);
  let c2 = Speed.clock () in
  Speed.probe ();
  let c3 = Speed.clock () in
  let d' = List.hd (Speed.probes ()) in
  Alcotest.(check bool) "monotone" true (c3 >= c2);
  Alcotest.(check bool)
    "a probe stops the clock" true
    (c3 -. c2 < 0.1 *. d' *. Speed.nominal_s /. d)

(* ---------- medians and the digest ---------- *)

let test_median_digest () =
  Alcotest.check feq "odd" 2.0 (Pstat.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check feq "even" 2.5 (Pstat.median [ 4.0; 1.0; 2.0; 3.0 ]);
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "nearest rank p90" 9.0 (Pstat.percentile ten 90.0);
  Alcotest.(check int) "FNV-1a of empty" 735455236727589 (Pstat.digest "");
  Alcotest.(check int) "FNV-1a of a" 1086646154030220 (Pstat.digest "a");
  Alcotest.(check bool) "fits a JSON double" true (Pstat.digest "clof" < 1 lsl 53)

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perfbench"
    [
      ("tail", [ case "fixed counts" test_tail_fixed; case "highest" test_tail_highest ]);
      ("slo", [ case "monotone ladder" test_slo_monotone; case "drain" test_slo_drain ]);
      ("spans", [ case "self time" test_self_time; case "recorded" test_trace_spans ]);
      ("arith", [ case "median and digest" test_median_digest ]);
      ("speed", [ case "reference clock" test_reference_clock ]);
    ]
