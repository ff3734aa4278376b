(** First-class experiment registry.

    One {!entry} per report-producing experiment: the id under which
    [clof_bench] dispatches it and under which its archive is
    recognised, whether its points enter [bench_check]'s cross-run
    regression join, the canonical run, and the one printer and one
    gate over the archived experiment. [clof_bench] builds its
    subcommands and its [list] output from {!all}; [bench_check]
    strips non-joining experiments with {!gated} and re-prints and
    re-judges the rest with {!recheck} — neither matches
    experiment-id strings anywhere. *)

type entry = {
  id : string;
      (** [clof_bench] subcommand name; also the primary archived
          experiment id. *)
  doc : string;  (** one-line description for [clof_bench list] *)
  exp_ids : string list;
      (** every [Report.experiment] id this entry's archives use
          (usually [[id]]; the gated panel writes one per platform) *)
  joins : bool;
      (** [true] for real (lock, threads) measurements that join the
          baseline-vs-current comparison; [false] for experiments
          judged by their own {!entry.gate} (phase matrices, checker
          counters, wall clock on shared runners) *)
  default_out : string;  (** CI artifact name ([BENCH_*.json]) *)
  run : quick:bool -> Report.t;
      (** The canonical CI invocation. May raise the backends'
          [Lock_failure] when a lock breaks. Subcommands with extra
          knobs ([verify --seed], [xval --min-corr]) call the module's
          own [run] instead and share everything after it. *)
  pp : Format.formatter -> Report.experiment -> unit;
      (** The experiment's human reading, from the report alone: what
          [clof_bench <id>] prints and what [bench_check] re-prints
          from an archive. *)
  gate : Report.experiment -> string list;
      (** Violations (empty = pass), from the report alone, under the
          constants the archive declares. *)
}

val all : entry list
(** Registration order is display order. *)

val find : string -> entry option
(** Look up an entry by its {!entry.id}. *)

val joins : string -> bool
(** Join policy for an archived experiment id. Unknown ids join: an
    experiment that forgets to register fails the cross-run join
    loudly instead of silently escaping it. *)

val gated : Report.t -> Report.t
(** Strip every experiment that does not {!joins} — what remains is
    exactly what [bench_check]'s regression join may compare across
    runs. *)

val owned : entry -> Report.t -> Report.experiment list
(** The entry's experiments in a report. *)

val recheck :
  Format.formatter -> baseline:Report.t -> current:Report.t -> string list
(** For every registered non-joining experiment: print it (a
    [bench_check:] label line, then {!entry.pp}) from [current] if it
    was archived there, else from [baseline] if archived there, else
    nothing. Returns the gate violations of the [current] copies, each
    prefixed with ["<id> gate: "]. *)
