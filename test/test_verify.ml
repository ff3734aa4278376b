module C = Clof_verify.Checker
module V = Clof_verify.Vmem
module S = Clof_verify.Scenarios
module Vstate = Clof_verify.Vstate

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qcheck = QCheck_alcotest.to_alcotest

let has_violation r = Option.is_some r.C.violation

let violation_kind r =
  match r.C.violation with
  | Some (C.Property _, _) -> "property"
  | Some (C.Deadlock _, _) -> "deadlock"
  | Some (C.Runaway _, _) -> "runaway"
  | Some (C.Crash _, _) -> "crash"
  | None -> "none"

let with_strategy s cfg = C.Config.with_strategy s cfg

(* ---------- the checker finds seeded bugs ---------- *)

let test_finds_broken_lock () =
  (* a "lock" that never excludes anyone *)
  let scenario () =
    let data = V.make ~name:"data" 0 in
    List.init 2 (fun _ () ->
        C.cs_enter ();
        let v = V.load data in
        V.store data (v + 1);
        C.cs_exit ())
  in
  List.iter
    (fun strategy ->
      let r =
        C.check ~config:(with_strategy strategy C.default) ~name:"no-lock"
          scenario
      in
      Alcotest.(check string)
        "mutex violated" "property" (violation_kind r))
    [ C.Naive; C.Dpor ]

let test_finds_deadlock () =
  (* classic ABBA with two TAS locks *)
  let module T = Clof_locks.Tas.Make (V) in
  let scenario () =
    let a = T.create () and b = T.create () in
    let t first second () =
      T.acquire first ();
      T.acquire second ();
      T.release second ();
      T.release first ()
    in
    [ t a b; t b a ]
  in
  List.iter
    (fun strategy ->
      let r =
        C.check ~config:(with_strategy strategy C.default) ~name:"abba"
          scenario
      in
      check_bool "found something" true (has_violation r);
      (* blocked cas loops show up as deadlock (all awaits disabled) or
         as runaway spinning, depending on the lock's wait primitive *)
      check_bool "deadlock or runaway" true
        (violation_kind r = "deadlock" || violation_kind r = "runaway"))
    [ C.Naive; C.Dpor ]

let test_finds_lost_wakeup () =
  (* waiting for a flag nobody sets *)
  let scenario () =
    let flag = V.make ~name:"flag" false in
    [ (fun () -> ignore (V.await flag (fun b -> b))) ]
  in
  let r = C.check ~name:"lost-wakeup" scenario in
  Alcotest.(check string) "deadlock" "deadlock" (violation_kind r)

let test_finds_assertion () =
  let scenario () =
    [ (fun () -> raise (Vstate.Prop_violation "boom")) ]
  in
  let r = C.check ~name:"assert" scenario in
  Alcotest.(check string) "property" "property" (violation_kind r)

(* A holder that never releases: the blocked waiter must surface as a
   deadlock/runaway verdict under DPOR too (the abort-path deadlock
   shape: a grant that never arrives). *)
let test_dpor_finds_abandoned_holder () =
  let module T = Clof_locks.Tas.Make (V) in
  let scenario () =
    let l = T.create () in
    [
      (fun () -> T.acquire l ());
      (fun () ->
        T.acquire l ();
        T.release l ());
    ]
  in
  List.iter
    (fun strategy ->
      let r =
        C.check
          ~config:
            (C.default |> with_strategy strategy
           |> C.Config.with_budget ~steps:200)
          ~name:"abandoned" scenario
      in
      check_bool "found" true
        (violation_kind r = "deadlock" || violation_kind r = "runaway"))
    [ C.Naive; C.Dpor ]

(* ---------- store-buffer litmus (TSO vs SC) ---------- *)

let sb_litmus outcomes () =
  let x = V.make ~name:"x" 0 and y = V.make ~name:"y" 0 in
  let r0 = ref (-1) and r1 = ref (-1) in
  let done0 = ref false and done1 = ref false in
  let record () =
    if !done0 && !done1 then outcomes := (!r0, !r1) :: !outcomes
  in
  [
    (fun () ->
      V.store ~o:Clof_atomics.Memory_order.Release x 1;
      r0 := V.load y;
      done0 := true;
      record ());
    (fun () ->
      V.store ~o:Clof_atomics.Memory_order.Release y 1;
      r1 := V.load x;
      done1 := true;
      record ());
  ]

let test_sb_reachable_under_tso () =
  List.iter
    (fun strategy ->
      let outcomes = ref [] in
      let cfg =
        C.tso ~preemptions:2 ~delays:4 ()
        |> C.Config.with_budget ~executions:5_000
        |> with_strategy strategy
      in
      let r = C.check ~config:cfg ~name:"sb-tso" (sb_litmus outcomes) in
      check_bool "no violation" false (has_violation r);
      check_bool "r0=r1=0 reachable under TSO" true
        (List.mem (0, 0) !outcomes))
    [ C.Naive; C.Dpor ]

let test_sb_unreachable_under_sc () =
  List.iter
    (fun strategy ->
      let outcomes = ref [] in
      let cfg =
        C.sc ~preemptions:(-1) ()
        |> C.Config.with_budget ~executions:50_000
        |> with_strategy strategy
      in
      let r = C.check ~config:cfg ~name:"sb-sc" (sb_litmus outcomes) in
      check_bool "exhausted" false r.C.truncated;
      check_bool "no violation" false (has_violation r);
      check_bool "r0=r1=0 NOT reachable under SC" false
        (List.mem (0, 0) !outcomes))
    [ C.Naive; C.Dpor ]

let mp_litmus outcomes () =
  (* message passing: under TSO (FIFO store buffers) the reader cannot
     see the flag without the data *)
  let data = V.make ~name:"data" 0 and flag = V.make ~name:"flag" 0 in
  [
    (fun () ->
      V.store ~o:Clof_atomics.Memory_order.Relaxed data 42;
      V.store ~o:Clof_atomics.Memory_order.Release flag 1);
    (fun () ->
      let f = V.load flag in
      let d = V.load data in
      outcomes := (f, d) :: !outcomes);
  ]

let test_mp_forbidden_under_tso () =
  List.iter
    (fun strategy ->
      let outcomes = ref [] in
      let cfg =
        C.tso ~preemptions:(-1) ~delays:(-1) ()
        |> C.Config.with_budget ~executions:30_000
        |> with_strategy strategy
      in
      let r = C.check ~config:cfg ~name:"mp-tso" (mp_litmus outcomes) in
      check_bool "no violation" false (has_violation r);
      check_bool "saw the message" true (List.mem (1, 42) !outcomes);
      check_bool "flag never outruns data (FIFO buffers)" false
        (List.mem (1, 0) !outcomes))
    [ C.Naive; C.Dpor ]

(* The flush-lane regression: MP with a spinning reader under Relaxed.
   When every per-location flush of a thread shared one buffer-proc
   clock, a false happens-before ran from the data flush through the
   flag flush into the woken reader, so DPOR never scheduled the
   stale-read reversal — it reported a clean exhaustive exploration
   while the naive oracle found the weak outcome. Both strategies must
   find the violation, and in the same reachability verdict the litmus
   battery encodes. *)
let test_mp_await_flush_lanes () =
  List.iter
    (fun strategy ->
      let n =
        S.litmus_mp_await ~strategy ~protect:S.L_none
          ~mode:Vstate.Relaxed ()
      in
      let r = S.run n in
      check_bool
        (Printf.sprintf "weak outcome found (%s)"
           (match strategy with C.Naive -> "naive" | C.Dpor -> "dpor"))
        true (has_violation r);
      (* the protected variant must stay clean and fully explored *)
      let n =
        S.litmus_mp_await ~strategy ~protect:S.L_release
          ~mode:Vstate.Relaxed ()
      in
      let r = S.run n in
      check_bool "release flag safe" false (has_violation r);
      check_bool "release flag exhaustive" true r.C.exhaustive)
    [ C.Naive; C.Dpor ]

(* ---------- differential: DPOR vs naive DFS ---------- *)

(* Random straight-line programs over a few shared refs
   ({!Clof_verify.Differential}). No cs_enter/cs_exit here: the monitor
   counter is deliberately invisible to dependence tracking (DESIGN.md),
   so naked monitor calls without a bracketing data race are exactly
   the shape DPOR is allowed to collapse. What must agree between the
   strategies is everything observable: the verdict and the set of
   reachable observation vectors.

   CI runs the documented fixed-seed battery — deterministic, so a
   failure names its seed and reproduces with
   [clof_bench verify --seed N --memmode M]. The open-ended randomized
   hunt stays a local tool: set CLOF_DIFF_RANDOM=<count> to append
   qcheck sweeps with fresh seeds (these flake by design — any failure
   donates its seed to the fixed list). *)
module D = Clof_verify.Differential

let check_seed mode seed =
  match D.run_seed ~mode seed with
  | D.Agree -> ()
  | D.Skipped why ->
      (* fixed seeds are curated to fit the budget; a skip means the
         battery silently stopped testing this seed *)
      Alcotest.failf "seed %d [%s] skipped: %s" seed (S.mode_tag mode) why
  | D.Disagree why ->
      Alcotest.failf "seed %d [%s]: %s\n  prog: %s" seed (S.mode_tag mode)
        why
        (D.to_string (D.generate ~seed))

let test_differential_fixed mode () =
  List.iter (check_seed mode) (D.fixed_seeds mode)

(* The minimized witness of the backtrack-set completeness bug: the
   race reversal whose first step is a third thread's independent event
   (a source-set initial), lost by the proc(e_j)-only backtrack rule.
   Deterministic and permanent; see Differential.regression. *)
let test_differential_regression () =
  List.iter
    (fun mode ->
      match D.run ~mode D.regression with
      | D.Agree -> ()
      | D.Skipped why -> Alcotest.failf "regression skipped: %s" why
      | D.Disagree why ->
          Alcotest.failf "backtrack-set regression [%s]: %s"
            (S.mode_tag mode) why)
    [ Vstate.Sc; Vstate.Tso; Vstate.Relaxed ]

let random_differential_tests =
  match
    Option.bind (Sys.getenv_opt "CLOF_DIFF_RANDOM") int_of_string_opt
  with
  | None | Some 0 -> []
  | Some count ->
      let prog_arb =
        QCheck.make ~print:D.to_string
          QCheck.Gen.(int_bound max_int >>= fun s -> return (D.generate ~seed:s))
      in
      List.map
        (fun mode ->
          qcheck
            (QCheck.Test.make
               ~name:
                 (Printf.sprintf "dpor = naive on random programs (%s)"
                    (S.mode_tag mode))
               ~count prog_arb
               (fun prog ->
                 match D.run ~mode prog with
                 | D.Agree | D.Skipped _ -> true
                 | D.Disagree why -> QCheck.Test.fail_report why)))
        [ Vstate.Sc; Vstate.Tso; Vstate.Relaxed ]

(* ---------- paper scenarios ---------- *)

let test_base_steps_sc () =
  List.iter
    (fun lock ->
      match S.base_step ~threads:2 ~iters:2 ~mode:Vstate.Sc lock with
      | None -> Alcotest.fail ("unknown lock " ^ lock)
      | Some n ->
          let r = S.run n in
          check_bool (lock ^ " sc clean") false (has_violation r))
    [ "tkt"; "mcs"; "clh"; "hem"; "tas"; "ttas"; "bo" ]

let test_base_steps_tso () =
  List.iter
    (fun lock ->
      match S.base_step ~threads:2 ~iters:1 ~mode:Vstate.Tso lock with
      | None -> Alcotest.fail ("unknown lock " ^ lock)
      | Some n ->
          let r = S.run n in
          check_bool (lock ^ " tso clean") false (has_violation r))
    [ "tkt"; "mcs"; "clh"; "hem" ]

(* Abort safety (ISSUE): a waiter may time out between enqueue and
   handover; mutual exclusion must hold and no grant may be lost, under
   SC and under TSO store buffers. *)
let test_abort_steps () =
  List.iter
    (fun mode ->
      List.iter
        (fun lock ->
          match S.abort_step ~threads:2 ~iters:2 ~mode lock with
          | None -> Alcotest.fail ("unknown lock " ^ lock)
          | Some n ->
              let r = S.run n in
              check_bool (n.S.sname ^ " clean") false (has_violation r))
        [ "mcs"; "clh"; "tkt" ])
    [ Vstate.Sc; Vstate.Tso ]

let test_abort_induction () =
  List.iter
    (fun mode ->
      let n = S.abort_induction ~threads:2 ~mode () in
      let r = S.run n in
      check_bool (n.S.sname ^ " clean") false (has_violation r))
    [ Vstate.Sc; Vstate.Tso ]

let test_induction_step () =
  List.iter
    (fun mode ->
      let n = S.induction_step ~depth:2 ~mode () in
      let r = S.run n in
      check_bool (n.S.sname ^ " clean") false (has_violation r);
      check_bool
        (Printf.sprintf "%s exhaustive (%d executions)" n.S.sname
           r.C.executions)
        true r.C.exhaustive)
    [ Vstate.Sc; Vstate.Tso; Vstate.Relaxed ]

(* Acceptance (ISSUE 5): on the depth-2 induction step DPOR must agree
   with the oracle while exploring at least 5x fewer schedules, and the
   depth-3 step must complete non-truncated within the default
   budget. *)
let test_dpor_speedup_depth2 () =
  let run strategy =
    S.run (S.induction_step ~depth:2 ~strategy ~mode:Vstate.Sc ())
  in
  let rn = run C.Naive and rd = run C.Dpor in
  Alcotest.(check string)
    "same verdict" (violation_kind rn) (violation_kind rd);
  check_bool
    (Printf.sprintf "dpor >= 5x fewer executions (naive %d, dpor %d)"
       rn.C.executions rd.C.executions)
    true
    (rn.C.executions >= 5 * rd.C.executions)

let test_dpor_depth3_completes () =
  let r = S.run (S.induction_step ~depth:3 ~mode:Vstate.Sc ()) in
  check_bool "clean" false (has_violation r);
  check_bool
    (Printf.sprintf "exhaustive (%d executions)" r.C.executions)
    true r.C.exhaustive

let test_peterson_exhibit () =
  let good = S.run (S.peterson ~fenced:true ~mode:Vstate.Tso ()) in
  check_bool "fenced peterson survives TSO" false (has_violation good);
  let bad = S.run (S.peterson ~fenced:false ~mode:Vstate.Tso ()) in
  Alcotest.(check string)
    "unfenced peterson broken under TSO" "property" (violation_kind bad);
  let sc = S.run (S.peterson ~fenced:false ~mode:Vstate.Sc ()) in
  check_bool "unfenced peterson fine under SC" false (has_violation sc)

(* The exhibit must also fail under the oracle: if the two strategies
   ever disagree here, one of them is broken. *)
let test_peterson_exhibit_naive () =
  let bad =
    S.run (S.peterson ~strategy:C.Naive ~fenced:false ~mode:Vstate.Tso ())
  in
  Alcotest.(check string)
    "unfenced peterson broken under TSO (naive)" "property"
    (violation_kind bad)

let test_unknown_lock () =
  check_bool "unknown" true (S.base_step ~mode:Vstate.Sc "bogus" = None)

let test_scaling_grows () =
  let results = S.scaling ~max_depth:2 () in
  check_int "two depths" 2 (List.length results);
  let execs d = (List.assoc d results).C.executions in
  check_bool "deeper explores more" true (execs 2 > execs 1);
  List.iter
    (fun (_, r) -> check_bool "clean" false (has_violation r))
    results

(* ---------- the suite ---------- *)

let test_suite_covers_registry () =
  let entries = S.suite () in
  let base_names =
    List.filter_map
      (fun e ->
        if e.S.e_group = S.Base then Some e.S.e_named.S.sname else None)
      entries
  in
  (* every registered lock appears under both SC and TSO *)
  List.iter
    (fun lock ->
      List.iter
        (fun tag ->
          let prefix = Printf.sprintf "base/%s " lock in
          let suffix = Printf.sprintf "[%s]" tag in
          let np = String.length prefix and ns = String.length suffix in
          check_bool
            (Printf.sprintf "%s under %s" lock tag)
            true
            (List.exists
               (fun n ->
                 String.length n >= np + ns
                 && String.sub n 0 np = prefix
                 && String.sub n (String.length n - ns) ns = suffix)
               base_names))
        [ "sc"; "tso" ])
    [ "tkt"; "mcs"; "clh"; "hem"; "tas"; "ttas"; "bo" ];
  (* quick drops the three depth-3 induction entries (one per mode)
     but nothing else *)
  check_int "quick suite is three entries shorter"
    (List.length entries - 3)
    (List.length (S.suite ~quick:true ()))

let test_run_suite_judges () =
  (* a tiny suite slice: one clean scenario, one exhibit *)
  let entries =
    List.filter
      (fun e ->
        e.S.e_named.S.sname = "peterson-nofence [tso]"
        || e.S.e_named.S.sname = "base/tkt 3T x2 [sc]")
      (S.suite ())
  in
  check_int "found both" 2 (List.length entries);
  let outcomes = S.run_suite entries in
  List.iter
    (fun o -> check_bool (o.S.o_entry.S.e_named.S.sname ^ " ok") true o.S.o_ok)
    outcomes

(* ---------- Config builder ---------- *)

let test_config_builder () =
  let c =
    C.Config.make ~mode:Vstate.Tso ()
    |> C.Config.with_preemptions 7 |> C.Config.with_delays 5
    |> C.Config.with_strategy C.Naive
    |> C.Config.with_budget ~executions:123 ~steps:456
  in
  check_bool "mode" true (C.Config.mode c = Vstate.Tso);
  check_int "preemptions" 7 (C.Config.preemptions c);
  check_int "delays" 5 (C.Config.delays c);
  check_bool "strategy" true (C.Config.strategy c = C.Naive);
  check_int "executions" 123 (C.Config.max_executions c);
  check_int "steps" 456 (C.Config.max_steps c);
  (* wrappers agree with the builder *)
  let s = C.sc ~preemptions:3 () in
  check_bool "sc mode" true (C.Config.mode s = Vstate.Sc);
  check_int "sc preemptions" 3 (C.Config.preemptions s);
  check_bool "default strategy is DPOR" true
    (C.Config.strategy C.default = C.Dpor);
  let t = C.tso ~preemptions:1 ~delays:9 () in
  check_bool "tso mode" true (C.Config.mode t = Vstate.Tso);
  check_int "tso delays" 9 (C.Config.delays t)

(* ---------- checker internals ---------- *)

let test_report_counts () =
  let scenario () = [ (fun () -> V.store (V.make ~name:"x" 0) 1) ] in
  let r = C.check ~name:"tiny" scenario in
  check_int "one schedule for one thread" 1 r.C.executions;
  check_bool "steps counted" true (r.C.steps >= 1);
  check_bool "strategy recorded" true (r.C.strategy = C.Dpor);
  check_int "complete" 1 r.C.complete;
  check_int "no races for one thread" 0 r.C.races;
  check_bool "drained frontier is exhaustive" true r.C.exhaustive

(* A budget-truncated exploration proved nothing: it must say so
   (truncated) and must never claim completeness, under either
   strategy. *)
let test_truncation_never_exhaustive () =
  let scenario () =
    let x = V.make ~name:"x" 0 in
    List.init 3 (fun i () -> V.store x i)
  in
  List.iter
    (fun strategy ->
      let cfg =
        C.sc ~preemptions:(-1) ()
        |> with_strategy strategy
        |> C.Config.with_budget ~executions:2
      in
      let r = C.check ~config:cfg ~name:"tiny-budget" scenario in
      check_bool "truncated" true r.C.truncated;
      check_bool "truncated never exhaustive" false r.C.exhaustive;
      check_bool "complete bounded by executions" true
        (r.C.complete <= r.C.executions);
      (* same scenario, real budget: the flag is reachable *)
      let full =
        C.check
          ~config:(C.sc ~preemptions:(-1) () |> with_strategy strategy)
          ~name:"tiny-full" scenario
      in
      check_bool "full exploration is exhaustive" true full.C.exhaustive;
      check_bool "not truncated" false full.C.truncated)
    [ C.Naive; C.Dpor ]

let test_runaway_detection () =
  let scenario () =
    let x = V.make ~name:"x" 0 in
    [
      (fun () ->
        (* unbounded polling loop that no schedule can satisfy *)
        let rec go () =
          if V.load x = 0 then begin
            V.pause ();
            go ()
          end
        in
        go ());
    ]
  in
  let cfg = C.Config.with_budget ~steps:50 C.default in
  let r = C.check ~config:cfg ~name:"spin" scenario in
  check_bool "caught" true
    (violation_kind r = "runaway" || violation_kind r = "deadlock")

(* [seconds] is the checking domain's own CPU time: with another domain
   burning CPU alongside, a check cannot report more than it took in
   elapsed time. Process CPU time would count both domains. *)
let test_seconds_own_domain () =
  let stop = Atomic.make false and started = Atomic.make false in
  let burner =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  let t0 = Clof_atomics.Clock.monotonic_ns () in
  let r = S.run (S.peterson ~fenced:false ~mode:Vstate.Tso ()) in
  let elapsed =
    float_of_int (Clof_atomics.Clock.monotonic_ns () - t0) *. 1e-9
  in
  Atomic.set stop true;
  Domain.join burner;
  check_bool
    (Printf.sprintf "%.3f s of CPU within %.3f s elapsed" r.C.seconds elapsed)
    true
    (r.C.seconds <= elapsed +. 0.02)

let () =
  Alcotest.run "verify"
    [
      ( "seeded-bugs",
        [
          Alcotest.test_case "broken lock" `Quick test_finds_broken_lock;
          Alcotest.test_case "ABBA deadlock" `Quick test_finds_deadlock;
          Alcotest.test_case "lost wakeup" `Quick test_finds_lost_wakeup;
          Alcotest.test_case "assertion" `Quick test_finds_assertion;
          Alcotest.test_case "abandoned holder" `Quick
            test_dpor_finds_abandoned_holder;
        ] );
      ( "litmus",
        [
          Alcotest.test_case "SB reachable under TSO" `Quick
            test_sb_reachable_under_tso;
          Alcotest.test_case "SB unreachable under SC" `Quick
            test_sb_unreachable_under_sc;
          Alcotest.test_case "MP forbidden under TSO" `Quick
            test_mp_forbidden_under_tso;
          Alcotest.test_case "MP+await flush lanes (relaxed)" `Quick
            test_mp_await_flush_lanes;
        ] );
      ( "differential",
        [
          Alcotest.test_case "backtrack-set regression (minimized)" `Quick
            test_differential_regression;
          Alcotest.test_case "fixed seeds (SC)" `Slow
            (test_differential_fixed Vstate.Sc);
          Alcotest.test_case "fixed seeds (TSO)" `Slow
            (test_differential_fixed Vstate.Tso);
          Alcotest.test_case "fixed seeds (relaxed)" `Slow
            (test_differential_fixed Vstate.Relaxed);
        ]
        @ random_differential_tests );
      ( "paper",
        [
          Alcotest.test_case "base steps (SC)" `Slow test_base_steps_sc;
          Alcotest.test_case "base steps (TSO)" `Slow test_base_steps_tso;
          Alcotest.test_case "induction step" `Slow test_induction_step;
          Alcotest.test_case "dpor 5x on depth 2" `Slow
            test_dpor_speedup_depth2;
          Alcotest.test_case "dpor completes depth 3" `Slow
            test_dpor_depth3_completes;
          Alcotest.test_case "abort steps" `Slow test_abort_steps;
          Alcotest.test_case "abort induction" `Slow test_abort_induction;
          Alcotest.test_case "peterson exhibit" `Quick
            test_peterson_exhibit;
          Alcotest.test_case "peterson exhibit (naive)" `Slow
            test_peterson_exhibit_naive;
          Alcotest.test_case "unknown lock" `Quick test_unknown_lock;
          Alcotest.test_case "scaling grows" `Slow test_scaling_grows;
        ] );
      ( "suite",
        [
          Alcotest.test_case "covers the registry" `Quick
            test_suite_covers_registry;
          Alcotest.test_case "judges outcomes" `Slow test_run_suite_judges;
        ] );
      ( "config",
        [ Alcotest.test_case "builder" `Quick test_config_builder ] );
      ( "internals",
        [
          Alcotest.test_case "report counts" `Quick test_report_counts;
          Alcotest.test_case "truncation never exhaustive" `Quick
            test_truncation_never_exhaustive;
          Alcotest.test_case "runaway detection" `Quick
            test_runaway_detection;
          Alcotest.test_case "seconds count the own domain" `Quick
            test_seconds_own_domain;
        ] );
    ]
