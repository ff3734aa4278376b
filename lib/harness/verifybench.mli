(** The verification suite as a first-class experiment: every scenario
    of {!Clof_verify.Scenarios.suite} checked through the parallel
    executor, with the checker's exploration statistics shipped through
    the {!Report} schema as [BENCH_verify.json].

    Encoding: one series per scenario, named by the scenario, with no
    points — the checker's report travels in the series' typed [meta]
    block (schema v2): ["group"], ["executions"], ["steps"],
    ["replayed"] (the steps spent replaying prefixes), ["seconds"] (CPU
    seconds of the checking domain), ["per_s"], ["pruned"], ["sleep"],
    ["races"], ["complete"], the ["truncated"] / ["exhaustive"] flags, the
    ["violation"] found (absent when none) and the ["ok"] verdict. The
    experiment's workload names the strategy (["checker/dpor"]). *)

val exp_id : string
(** ["verify"]. *)

val run :
  ?quick:bool ->
  ?strategy:Clof_verify.Checker.strategy ->
  ?mode:Clof_verify.Vstate.mode ->
  unit ->
  Report.experiment
(** Check the whole suite on the default executor ([Exec.map]; [-j]
    controls parallelism). [quick] drops the depth-3 induction step;
    [strategy] forces one exploration strategy on every entry (default
    DPOR); [mode] keeps only the entries checked under that memory
    mode (the per-mode CI gates). *)

val gate : Report.experiment -> string list
(** Names of the scenarios whose verdict did not match the scenario's
    expectation: a violation in a scenario that must pass, or a seeded
    exhibit that went unnoticed. Non-empty fails [clof_bench verify]
    (the CI job); the statistics never gate. *)

val pp : Format.formatter -> Report.experiment -> unit
(** One line per scenario in {!Clof_verify.Checker.pp_report}'s format,
    then the gate verdict. A scenario as expected on a budget-truncated
    exploration reads ["as expected (partial)"], and the passing
    summary splits the count into proved and truncated scenarios. *)
