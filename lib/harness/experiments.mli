(** One driver per table and figure of the paper's evaluation, plus the
    repo's ablations (see DESIGN.md Section 4 for the index). Each
    driver prints its reproduction to the formatter and is independent;
    intermediate sweeps and heatmaps are memoized within the process. *)

val set_quick : bool -> unit
(** Quick mode: shorter simulated durations, coarser heatmap sampling,
    smaller thread grids — for smoke-testing the full pipeline. *)

val drivers : (string * string * (Format.formatter -> unit)) list
(** [(id, description, driver)] of every textual experiment, in
    DESIGN.md order — the single dispatch table {!ids}, {!run} and
    clof_bench's validation derive from. *)

val ids : (string * string) list
(** [(id, description)] of every experiment, in DESIGN.md order. *)

val run : Format.formatter -> string -> bool
(** Run one experiment by id; false if the id is unknown. *)

val run_all : Format.formatter -> unit
