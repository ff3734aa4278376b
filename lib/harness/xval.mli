(** Cross-validation of the simulator against the native backend
    ([clof_bench xval]): run the scripted composition x threadcount
    sweep on both backends {e on this machine} — the simulator
    configured with the host's detected topology
    ({!Clof_native.Hosttopo.detect}), the native runner on real pinned
    domains — and report the rank correlation between the two
    throughput orderings. Absolute numbers live in different clocks
    (simulated ns vs wall ns) and are never compared; only the ordering
    of locks is, which is also all the paper's selection policy
    consumes. *)

val exp_id : string
(** ["xval"]. *)

val run :
  ?quick:bool ->
  ?duration_ms:int ->
  ?platform:Clof_topology.Platform.t ->
  ?min_corr:float ->
  unit ->
  Report.experiment
(** Run both legs and encode them as one ["xval"] experiment
    (written to [BENCH_native.json]): native series under the lock
    name ([sim_ns] = wall ns), simulated series under ["<lock>/sim"],
    and pointless ["xval/spearman"] / ["xval/kendall"] series whose
    typed [meta] blocks carry ["nlocks"], ["threads"], ["overall"]
    and one ["t<N>"] key per contention level (an undefined
    coefficient is an absent key); ["xval/spearman"] also carries the
    host's ["ncpus"], ["arch"], ["hierarchy"] and ["pinned"] (every
    native thread of every run was pinned), and ["min_corr"] when a
    floor is declared.

    [quick] (default false) shrinks the panel to the seven flat locks
    + four fixed depth-2 compositions + HMCS, the thread grid to
    [{1, ncpus}] and the native window to 40 ms — the CI
    configuration; the full run uses all 16 depth-2 compositions,
    power-of-two thread counts and 250 ms windows. [duration_ms]
    overrides the native measurement window. [platform] overrides host
    detection (tests pass a small synthetic machine). [min_corr]
    declares the floor {!gate} holds the overall Spearman coefficient
    to. The simulated leg fans out on {!Clof_exec.Exec}; the native
    leg always runs sequentially, each run owning the whole machine.

    @raise Clof_native.Native.Lock_failure on a native mutual-exclusion
    violation.
    @raise Clof_workloads.Workload.Lock_failure on a simulated hang. *)

val thread_grid : quick:bool -> int -> int list
(** Contention levels for a host of the given CPU count (exposed for
    tests): quick = the endpoints [{1, ncpus}]; full = powers of two
    plus the full machine. *)

val gate : Report.experiment -> string list
(** Violation messages for CI: empty unless the archive declares a
    ["min_corr"] floor; with one, one message when the overall
    Spearman rho is undefined or below it. Per-thread coefficients and
    absolute throughputs never gate. *)

val pp : Format.formatter -> Report.experiment -> unit
(** Side-by-side throughput table, per-level and overall coefficients,
    and whether the two backends agree on the HC-best lock. *)
