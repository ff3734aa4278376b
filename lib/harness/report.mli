(** Structured benchmark reports: a fixed panel of representative locks
    swept across thread counts on each simulated platform, with every
    point carrying throughput, fairness (Jain index) and the full
    per-level lock-observability counters of {!Clof_stats.Stats}.
    Serialized to JSON (hand-rolled, {!Clof_stats.Json}) so CI can
    archive a report per commit and [bench_check] can diff two of them
    for throughput regressions or fairness losses. *)

val schema_version : int
(** Current write version (2: adds the optional typed [meta] field on
    series). Bumped on any change to the JSON shape. *)

val min_schema_version : int
(** Oldest version {!of_json} still decodes (1: series without [meta];
    such documents decode with [meta = None]). *)

type point = {
  threads : int;
  throughput : float;  (** operations per simulated microsecond *)
  total_ops : int;
  sim_ns : int;
  jain : float;  (** Jain fairness index of per-thread op counts *)
  stats : Clof_stats.Stats.recorder;
      (** merged observability counters for the run *)
}

type attr = I of int | F of float | S of string | B of bool
(** A typed scalar in a series' metadata. The JSON mapping is direct
    (int/float/string/bool); [I] vs [F] survives the round-trip. *)

type series_meta = (string * attr) list
(** Experiment-defined key/value pairs describing a series as a whole
    — capability flags, phase labels, exploration counters, summary
    coefficients. This is the typed replacement for the v1 "slot
    encoding" conventions that hid such facts in fake points. *)

type series = { lock : string; meta : series_meta option; points : point list }

type experiment = {
  exp_id : string;  (** one of {!ids} *)
  platform : string;
  workload : string;
  series : series list;
}

type meta = {
  jobs : int;  (** executor size ([-j]) the report was produced with *)
  wall_s : float;  (** elapsed wall-clock of the whole report run *)
  busy_s : float;
      (** summed wall-clock of the individual simulation jobs — the
          sequential-cost estimate *)
  speedup : float;  (** [busy_s /. wall_s]: what the parallel executor
          delivered *)
}
(** Harness performance, so CI can track the cost of producing the
    report (not the benchmark results themselves) over time. Benchmark
    series are identical for any [jobs] value; only this block
    varies. *)

type t = {
  version : int;
  quick : bool;
  meta : meta option;  (** [None] in reports predating the field *)
  experiments : experiment list;
}

val of_experiment : quick:bool -> experiment -> t
(** A current-version report holding one experiment and no harness
    meta — what every own-gate bench archives. *)

val meta_find : series -> string -> attr option
val meta_int : series -> string -> int option
val meta_float : series -> string -> float option
(** [meta_float] also accepts an [I] attr (numeric widening). *)

val meta_str : series -> string -> string option
val meta_bool : series -> string -> bool option
(** Typed lookups into a series' metadata; [None] when the series has
    no meta block, the key is absent, or the value has another type. *)

val meta_list : series -> string -> string list
(** A comma-separated [S] value split into its items; [[]] when the key
    is absent or empty. *)

val find_series : experiment -> string -> series option
(** The experiment's series with this [lock] name. *)

val jain : int array -> float
(** Jain fairness index: 1.0 = perfectly fair, 1/n = one thread owns
    everything; 1.0 on an all-zero array. *)

val point_of_result : int * Clof_workloads.Workload.result -> point
(** Fold one [(threads, result)] benchmark point into report form. *)

val ids : (string * string) list
(** [(id, description)] of the available report experiments
    ([report-x86], [report-armv8]). *)

val run : ?quick:bool -> string list -> (t, string) result
(** Run the named report experiments. All ids are validated before any
    benchmark starts; the error lists every unknown id. [quick] uses the
    smoke-mode thread grid and duration (what CI runs). *)

val to_json : t -> Clof_stats.Json.t
val to_string : t -> string
(** Pretty-printed (2-space indent) JSON document. *)

val of_json : Clof_stats.Json.t -> (t, string) result
val of_string : string -> (t, string) result
(** Inverse of {!to_string}; also the entry point used by
    [bench_check]. *)
