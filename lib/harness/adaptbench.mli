(** The [adapt] experiment: the contention-adaptive composition
    ({!Clof_core.Adaptive}) against the static choices it subsumes —
    bare CLoF, CLoF+fastpath, fair H=1 — on a low→high→low phase-shift
    workload (simulated x86, depth-4 CLH composition).

    Results ship through the Report schema as exp_id ["adapt"]
    (BENCH_adaptive.json): one series per lock with one point per
    phase ([threads] = the phase's thread count) and a ["phases"] meta
    key naming the phase order, a pointless ["controller"] series whose
    meta carries ["<phase>.switches"] and ["<phase>.mode"] per phase,
    and a pointless ["gate"] series declaring ["slack"] and ["loss"].
    The two low phases share a thread count, so bench_check keeps
    "adapt" out of its (lock, threads) regression join and re-runs
    {!gate} on the archive instead. *)

val exp_id : string
(** ["adapt"]. *)

val run : ?quick:bool -> unit -> Report.experiment
(** Run all phases for all four locks, sequentially (the adaptive
    lock's controller counters are read back per phase). Quick mode
    shortens each phase's duration; thread counts and thresholds are
    identical, so the controller's trajectory is the same shape. *)

val gate : Report.experiment -> string list
(** The acceptance criterion: empty iff the adaptive lock is within
    the declared slack (10%) of the best static composition in
    {e every} phase {e and} each static loses at least the declared
    loss (25%) to the best in at least one phase. Violations are
    returned as human-readable messages. *)

val pp : Format.formatter -> Report.experiment -> unit
