(* The verify experiment as a first-class benchmark: run the whole
   Scenarios.suite through the parallel executor and ship the
   exploration statistics through the Report schema as
   BENCH_verify.json.

   Each scenario becomes one series named by the scenario with no
   points: the checker's counters travel in the series' typed [meta]
   block (schema v2) — group, executions, steps (and how many of them
   replayed a prefix), the checking domain's CPU seconds,
   executions-per-second, pruned/sleep/races/complete, the truncated
   / exhaustive flags, the violation found (absent when none) and the
   ok verdict.

   The verdict gate is separate from the statistics: CI fails on any
   scenario whose verdict does not match its expectation (a clean
   pass for ordinary scenarios, a found violation for the seeded
   exhibits), never on the counters. *)

module S = Clof_verify.Scenarios
module C = Clof_verify.Checker

let exp_id = "verify"
let strategy_name = function C.Naive -> "naive" | C.Dpor -> "dpor"

let series (o : S.outcome) =
  let r = o.S.o_report in
  {
    Report.lock = o.S.o_entry.S.e_named.S.sname;
    meta =
      Some
        ([
           ("group", Report.S (S.group_tag o.S.o_entry.S.e_group));
           ("executions", Report.I r.C.executions);
           ("steps", Report.I r.C.steps);
           ("replayed", Report.I r.C.replayed);
           ("seconds", Report.F r.C.seconds);
           ( "per_s",
             Report.F
               (float_of_int r.C.executions /. Float.max r.C.seconds 1e-9) );
           ("ok", Report.B o.S.o_ok);
           ("pruned", Report.I r.C.pruned);
           ("sleep", Report.I r.C.sleep_hits);
           ("races", Report.I r.C.races);
           ("complete", Report.I r.C.complete);
           ("truncated", Report.B r.C.truncated);
           ("exhaustive", Report.B r.C.exhaustive);
         ]
        @
        match r.C.violation with
        | Some (v, _) -> [ ("violation", Report.S (C.violation_to_string v)) ]
        | None -> []);
    points = [];
  }

let run ?(quick = false) ?strategy ?mode () =
  let entries = S.suite ~quick ?strategy () in
  let entries =
    match mode with
    | None -> entries
    | Some m ->
        List.filter
          (fun e -> C.Config.mode e.S.e_named.S.config = m)
          entries
  in
  let outcomes = S.run_suite ~map:Clof_exec.Exec.map entries in
  {
    Report.exp_id;
    platform = "model";
    workload =
      (match outcomes with
      | o :: _ -> "checker/" ^ strategy_name o.S.o_report.C.strategy
      | [] -> "checker");
    series = List.map series outcomes;
  }

let ok s = Report.meta_bool s "ok" = Some true

(* as expected, but on a budget-truncated exploration: nothing proved *)
let partial s = ok s && Report.meta_bool s "truncated" = Some true

let gate (e : Report.experiment) =
  List.filter_map
    (fun (s : Report.series) -> if ok s then None else Some s.Report.lock)
    e.Report.series

(* one line per scenario, in the checker's own report format *)
let pp ppf (e : Report.experiment) =
  Format.pp_print_string ppf
    (Render.section
       "verify: model-checked base/abort/induction steps + A4 exhibits");
  List.iter
    (fun (s : Report.series) ->
      let i k = Option.value ~default:0 (Report.meta_int s k) in
      let b k = Report.meta_bool s k = Some true in
      Format.fprintf ppf
        "%-10s %-34s %8d execs %9d steps %6.2fs %s%s%s  -> %s@."
        (Option.value ~default:"?" (Report.meta_str s "group"))
        s.Report.lock (i "executions") (i "steps")
        (Option.value ~default:0.0 (Report.meta_float s "seconds"))
        (match Report.meta_str s "violation" with
        | None -> "ok"
        | Some v -> "VIOLATION " ^ v)
        (if b "truncated" then " (truncated)"
         else if b "exhaustive" then " (exhaustive)"
         else "")
        (if e.Report.workload = "checker/dpor" then
           Printf.sprintf " [dpor %d complete, %d pruned, %d races, %d sleep%s]"
             (i "complete") (i "pruned") (i "races") (i "sleep")
             (* archives written before the counter existed lack it *)
             (match Report.meta_int s "replayed" with
             | Some n -> Printf.sprintf ", %d replayed" n
             | None -> "")
         else "")
        (if partial s then "as expected (partial)"
         else if ok s then "as expected"
         else "UNEXPECTED"))
    e.Report.series;
  match gate e with
  | [] ->
      let n = List.length e.Report.series in
      let partial = List.length (List.filter partial e.Report.series) in
      Format.fprintf ppf
        "verify gate: %d as expected: %d proved, %d on a truncated \
         exploration@."
        n (n - partial) partial
  | bad ->
      Format.fprintf ppf "verify gate: %d UNEXPECTED outcome(s)@."
        (List.length bad)
