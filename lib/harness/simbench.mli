(** sim-throughput: microbenchmark of the discrete-event engine itself.

    Measures wall-clock simulated-events/sec and minor-heap words
    allocated per event on the engine's two inner loops (ping-pong and
    the contended scripted workload), and ships them through the
    {!Report} schema as [BENCH_sim.json] so the trajectory can be
    archived and printed by [bench_check]. Wall-clock dependent: never
    part of a determinism diff or a regression gate. *)

val exp_id : string
(** ["sim-throughput"]. *)

val run : ?quick:bool -> unit -> Report.experiment
(** Run both loops ([quick] shrinks the repetition count): one series
    per loop (["pingpong"], ["scripted"]) with one point ([total_ops] =
    engine events, [sim_ns] = wall-clock ns) and meta
    ["events_per_us"] (per wall-clock {e µs}), ["words_per_event"]
    (minor words) and ["runs"]. Must not be called from inside a
    simulation. *)

val pp : Format.formatter -> Report.experiment -> unit
