(** Sharded KV-service macro-workload with open-loop traffic.

    A lock table of [stripes] stripes — each guarded by its own
    instance of the composition under test — serves a Zipf-popular
    get/put mix driven by {e open-loop} arrivals: every worker owns a
    request inbox whose arrival times are drawn up front from a seeded
    deterministic PRNG (Poisson steady state, 2-state MMPP bursts) on
    a diurnal low → peak → low schedule. A worker that falls behind
    serves its backlog immediately; the queueing delay lands in the
    {e sojourn} time (enqueue → completion) of the late requests.
    Sojourn tails (p99/p99.9) are where fair and barging compositions
    diverge even when their closed-loop throughput does not.

    Fully deterministic: all randomness derives from [params.seed]
    before the simulation starts, so results are byte-reproducible. *)

(** Deterministic splitmix64 PRNG — the traffic generator's only
    randomness source, pinned by construction (not [Random.State],
    whose stream is not stable across OCaml releases). *)
module Prng : sig
  type t

  val create : int -> t
  val next : t -> int64
  val float : t -> float
  (** Uniform in [\[0, 1)]. *)

  val int : t -> int -> int
  (** [int t n] is uniform in [\[0, n)]. Raises on [n <= 0]. *)
end

(** Zipfian key popularity: [P(rank k)] proportional to
    [1/(k+1){^s}], sampled in O(log n) by CDF binary search. *)
module Zipf : sig
  type t

  val create : ?s:float -> int -> t
  (** [create ~s n] over ranks [0..n-1]; default [s = 0.99]. Raises on
      [n <= 0]. *)

  val n : t -> int

  val pmf : t -> int -> float
  (** Probability mass of a rank — strictly decreasing in the rank. *)

  val sample : t -> Prng.t -> int
end

type process =
  | Poisson of float
      (** memoryless arrivals at a mean rate of [r] requests per
          simulated microsecond, per worker *)
  | Mmpp of { rate_low : float; rate_high : float; dwell_ns : int }
      (** bursty 2-state Markov-modulated Poisson process alternating
          between the two rates (req/us per worker), with
          exponentially distributed state dwell of mean [dwell_ns] *)

type phase = { ph_label : string; ph_ns : int; ph_process : process }

val arrivals : seed:int -> worker:int -> phase list -> (int * int) array
(** Absolute arrival times (ns, strictly increasing) for one worker
    across the concatenated phases, each paired with its phase index.
    Deterministic in [(seed, worker)]. *)

type request = {
  rq_at : int;  (** absolute arrival (enqueue) time, simulated ns *)
  rq_phase : int;  (** index into [params.phases] *)
  rq_key : int;  (** Zipf rank in [0, keys) *)
  rq_read : bool;
}

type params = {
  stripes : int;  (** lock-table stripes, each with its own lock *)
  keys : int;  (** key-space size *)
  zipf_s : float;  (** Zipf skew (s ~ 0.99 is the YCSB default) *)
  read_fraction : float;  (** fraction of requests that are gets *)
  read_ns : int;  (** critical-section occupancy of a get *)
  write_ns : int;  (** critical-section occupancy of a put *)
  phases : phase list;  (** the diurnal schedule, in order *)
  seed : int;
}

val schedule : params -> worker:int -> request array
(** One worker's full request schedule, deterministic in
    [(params.seed, worker)]. Keys and the read/write mix come from a
    stream independent of the arrival process. *)

val total_ns : params -> int
(** Sum of the phase spans. *)

type phase_result = {
  p_label : string;
  p_ns : int;  (** nominal phase span *)
  p_offered : int;  (** arrivals attributed to the phase *)
  p_completed : int;
  p_throughput : float;  (** completions per us of phase span *)
  p_sojourn : Clof_stats.Stats.recorder;
      (** sojourn (enqueue → completion) latency histogram; use
          {!Clof_stats.Stats.percentile_interp} for SLO readings *)
}

type result = {
  r_lock : string;
  r_workers : int;
  r_stripes : int;
  r_total : int;
  r_sim_ns : int;  (** virtual time when the last request completed *)
  r_per_worker : int array;
  r_phases : phase_result list;
  r_lock_stats : Clof_stats.Stats.recorder;
      (** merged per-stripe lock stats (latency = lock wait) *)
  r_hung : bool;
  r_events : int;
      (** discrete engine events executed during the run (see
          {!Clof_sim.Engine.outcome}) *)
  r_transfers : (Clof_topology.Level.proximity * int) list;
      (** cache-line transfers by distance class during the run *)
}

val run :
  ?check:bool ->
  platform:Clof_topology.Platform.t ->
  nworkers:int ->
  spec:Clof_core.Runtime.spec ->
  params ->
  result
(** Run the service: one green thread per worker (placed by
    {!Clof_topology.Topology.pick_cpus}), each draining its
    precomputed inbox — sleeping until the next arrival when ahead,
    serving back-to-back when behind. The engine runs until every
    inbox drains (the nominal duration is {!total_ns}; an overloaded
    service drains late, a wedged one trips the engine's livelock
    cutoff). [check] (default true) raises
    {!Workload.Lock_failure} on a per-stripe mutual-exclusion
    violation or a hung/livelocked run. *)
