(** The fault-injection matrix: a lock panel under timed acquisition
    on 8 threads of the simulated x86 box, with the crash-recovery
    watchdog armed, while the engine injects stalls and crashes
    ({!Clof_sim.Engine.fault}). Every (lock, fault) cell is classified
    [recovered] (every surviving thread still completing operations at
    the end, any crashed holder reclaimed), [degraded] (healthy, but a
    crashed thread's capacity was never reclaimed) or [wedged] (hung,
    livelocked, or a survivor stopped making progress).

    Written by [clof_bench faults] as BENCH_faults.json: one series per
    lock with no points; its typed [meta] block carries the declared
    capabilities (["fair"], ["abort"], read off the instantiated lock's
    Runtime metadata), the cell order (["cells"], comma-separated fault
    names) and per cell ["<fault>.class"], ["<fault>.timeouts"] (timed
    acquisitions that hit their deadline), ["<fault>.reclaims"]
    (watchdog holder-crash reclaims) and ["<fault>.hung"] (the engine's
    blocked-forever verdict). *)

val exp_id : string
(** ["faults"]. *)

val run : ?quick:bool -> unit -> Report.experiment
(** The (lock x fault) sweep; [quick] shortens every run. *)

val gate : Report.experiment -> string list
(** The CI gate, three rules keyed off declared capability: a {e fair}
    lock must never classify [wedged] under a transient stall; a
    {e true-abort} lock must classify [recovered] on a holder crash
    (the watchdog reclaims through the abortable path); and a lock
    declaring [abort] must have actually abandoned attempts somewhere
    in the fault columns — declared capability must agree with
    observed behaviour. Each violation reads ["<lock> [<fault>]:
    <what>"]; empty means the gate passes. *)

val pp : Format.formatter -> Report.experiment -> unit
(** The matrix as a table (cells [class(timeouts)], [+rN] reclaims,
    [!] hung) followed by the gate verdict. *)
