(** Host clocks, in integer nanoseconds. *)

external monotonic_ns : unit -> int = "clof_monotonic_ns" [@@noalloc]
(** CLOCK_MONOTONIC: comparable across domains, never steps back. *)

external thread_cpu_ns : unit -> int = "clof_thread_cpu_ns" [@@noalloc]
(** CPU time of the calling thread (domain) only — unlike [Sys.time],
    which sums every domain of the process. *)
