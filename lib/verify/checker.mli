(** Systematic concurrency checker — the repo's substitute for GenMC +
    TLC in the paper's correctness argument (Section 4.2; DESIGN.md
    Section 2, substitution 3).

    Scenarios are closures building fresh shared state and returning
    thread bodies written against {!Vmem}. The checker re-executes the
    scenario under systematically explored schedules: at every memory
    operation it chooses which thread runs next, and in TSO mode it
    additionally explores delayed store-buffer flushes. A schedule
    replays the prefix it shares with an earlier one without recording
    it, and only its new suffix is analysed. Two strategies share one
    execution engine:

    - {!Dpor} (the default): dynamic partial-order reduction (Flanagan
      & Godefroid, POPL 2005) with sleep sets. A vector-clock
      happens-before relation is maintained over the visible operations
      of each execution (store-buffer flushes count as actions of a
      per-thread buffer proc); conflicting concurrent accesses schedule
      the reversed order at the earlier access, and everything else is
      recognised as equivalent and explored once.
    - {!Naive}: the original branch-on-everything bounded DFS, kept as
      a differential-testing oracle.

    Exploration is additionally bounded by a preemption budget
    (CHESS-style) and a store-delay budget, so with finite bounds this
    is a bounded checker, not a proof tool — but it finds the classic
    weak-memory bugs (see {!Scenarios}) and exhaustively covers small
    configurations when the bounds are off ([-1]).

    Checked properties: mutual exclusion (via {!cs_enter}/{!cs_exit}),
    deadlock (no enabled action while threads remain — covering lost
    wake-ups and the spinloop-termination property), runaway spinning
    (step bound), and any {!Vstate.Prop_violation} raised by scenario
    assertions (e.g. the context invariant). *)

type strategy =
  | Naive  (** branch on every affordable choice (oracle) *)
  | Dpor  (** dynamic partial-order reduction + sleep sets (default) *)

type config
(** Abstract: build with {!Config}, or start from {!sc} / {!tso}. *)

(** Builder for checker configurations. [make ()] is SC, preemption
    bound 2, delay bound 2, 100k executions, 5k steps per thread,
    {!Dpor}. Bounds of [-1] mean unbounded (exhaustive). *)
module Config : sig
  type t = config

  val make : ?mode:Vstate.mode -> unit -> t
  val with_mode : Vstate.mode -> t -> t

  val with_preemptions : int -> t -> t
  (** CHESS-style preemption budget; [-1] = unbounded. *)

  val with_delays : int -> t -> t
  (** TSO store-delay budget; [-1] = unbounded. *)

  val with_strategy : strategy -> t -> t

  val with_budget : ?executions:int -> ?steps:int -> t -> t
  (** [executions]: schedules explored before giving up (truncation);
      [steps]: per-thread visible-op budget per execution (runaway). *)

  val mode : t -> Vstate.mode
  val preemptions : t -> int
  val delays : t -> int
  val strategy : t -> strategy
  val max_executions : t -> int
  val max_steps : t -> int
end

val default : config
(** [Config.make ()]. *)

val sc : ?preemptions:int -> unit -> config
(** SC-mode shorthand: [Config.make ~mode:Sc () |> with_preemptions]. *)

val tso : ?preemptions:int -> ?delays:int -> unit -> config
(** TSO-mode shorthand with preemption and delay budgets. *)

val relaxed : ?preemptions:int -> ?delays:int -> unit -> config
(** Relaxed-mode (Armv8/PSO-style) shorthand: store buffers are FIFO
    per location only, so a thread's stores to different locations
    commit in either order; release stores commit in program order; CAS
    is an LL/SC pair that fails when any intervening commit to the
    location breaks its reservation. Loads still take effect at their
    program point, so load-load reordering (the LB litmus) is not
    modeled — the model sits between x86-TSO and full Armv8. *)

type violation =
  | Property of string  (** mutual exclusion / assertion / invariant *)
  | Deadlock of string  (** blocked threads and what they wait on *)
  | Runaway of string  (** a thread exceeded the step bound *)
  | Crash of string  (** scenario raised an unexpected exception *)

type report = {
  name : string;
  strategy : strategy;  (** which exploration produced this report *)
  executions : int;  (** schedules explored *)
  steps : int;  (** total visible operations executed *)
  replayed : int;
      (** of [steps]: the steps re-executed to reach a divergence point
          (each schedule after the first replays the prefix it shares
          with the path explored before it). The rest is fresh
          exploration. *)
  complete : int;
      (** executions that ran to quiescence — the distinct
          representative traces (one per equivalence class under DPOR,
          up to the race-forced revisits) *)
  pruned : int;
      (** executions cut short without proving anything: sleep-blocked
          (the subtree was covered from a sibling) or cut by the
          fairness pruner *)
  sleep_hits : int;
      (** scheduling alternatives skipped because they were in the
          sleep set (always 0 under {!Naive}) *)
  races : int;
      (** backtrack points scheduled from detected races (always 0
          under {!Naive}) *)
  violation : (violation * string list) option;
      (** first violation found, with the schedule trace that exhibits
          it (["tid: op"] lines) *)
  truncated : bool;  (** hit [max_executions] before exhausting *)
  exhaustive : bool;
      (** the exploration frontier drained: every schedule within the
          preemption/delay bounds was covered (a proof, relative to the
          bounds and the model). Structurally incompatible with
          [truncated] — a budget-cut exploration can never claim
          completeness — and false when a violation stopped the search
          early. *)
  seconds : float;
      (** CPU time of the domain that ran the check (not the process:
          parallel checks on other domains are not counted) *)
}

val check :
  ?config:config -> name:string -> (unit -> (unit -> unit) list) -> report
(** Explore all schedules of the scenario within bounds. The scenario
    is re-run from scratch once per schedule and must be deterministic
    apart from scheduling. Safe to call from parallel domains (one
    check per domain at a time): all run state is domain-local. *)

val cs_enter : unit -> unit
(** Mark critical-section entry; overlapping sections raise the mutual
    exclusion violation. Call between acquire and release. *)

val cs_exit : unit -> unit

val violation_to_string : violation -> string

val pp_report : Format.formatter -> report -> unit
