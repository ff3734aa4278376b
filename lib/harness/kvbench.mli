(** The kv experiment: the sharded KV-service macro-workload
    ({!Clof_workloads.Kvservice}) over the composition panel — bare
    CLoF, barging fastpath, the strict-fair single-level H=1
    composition (a global FIFO), the adaptive controller, and the
    CNA/ShflLock baselines — judged on open-loop {e sojourn} tails
    (enqueue → completion) over a diurnal low → peak → low schedule,
    rather than closed-loop throughput. *)

(** {2 Declared gate constants}

    Archived in the report's ["slo"] series meta, so {!gate} and
    {!pp} apply the rule an archive was produced under. *)

val low_p99_slo_ns : float
(** Low-phase p99 sojourn ceiling (ns) every panel lock must meet. *)

val peak_tail_margin : float
(** Fraction by which fair handover's peak p99.9 must beat the barging
    fastpath's. *)

val throughput_tolerance : float
(** Maximum relative gap between the fair and fastpath whole-run
    service rates for the tail comparison to count. *)

val fair_name : string
val fastpath_name : string

val exp_id : string
(** ["kv"]. *)

val run : ?quick:bool -> unit -> Report.experiment
(** Run the panel on the simulated x86 box (one
    {!Clof_workloads.Kvservice.run} per lock, in parallel via
    {!Clof_exec.Exec}) and encode it: one series per lock (one point
    per phase; the point's stats histogram is the phase's sojourn
    recorder; meta [phases], [workers], [stripes], [service_rate],
    [offered]) plus a pointless ["slo"] series carrying the declared
    gate constants. Deterministic: byte-identical for every job
    count. *)

val gate : Report.experiment -> string list
(** The CI gate, under the constants the ["slo"] series declares:
    (1) every lock's low-phase p99 sojourn within {!low_p99_slo_ns};
    (2) [fair-h1]'s peak p99.9 beats [fp-clof<4>]'s by
    {!peak_tail_margin}; (3) their whole-run service rates agree
    within {!throughput_tolerance}. Empty means pass. *)

val pp : Format.formatter -> Report.experiment -> unit
(** Per-phase sojourn table, offered load and the gate verdict. *)
