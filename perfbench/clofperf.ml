(* The repository benchmark: four workloads, each driving a different
   set of layers through their public functions only.

     kv-open       open-loop KV service (Kvservice) on simulated x86
     closed-hclc   closed-loop HC/LC points (Workload) on simulated x86
     verify-suite  the quick verify suite (Scenarios/Checker), 3 modes
     native-lock   acquire/release on real atomics (Real_mem, Native)

   Usage:
     clofperf --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Without --trace the named workload runs untraced and the last line
   of standard output is one JSON object with [correct], [attempted],
   [failed] and the end-to-end [metrics]. With --trace 1 all four
   workloads run in this process with spans armed, and the metrics are
   the per-layer ones. README.md beside this file gives the reasoning
   behind each workload and metric.

   Host timings are in reference seconds (speed.ml). Two child modes
   serve an untraced run: [--suite-worker CLAIMS] checks its share of
   the verify suite, [--native-reference SECONDS] runs native-lock's
   measured work for the other workloads' [uncontended_ns]. *)

open Clof_topology
open Clof_perfbench
module Json = Clof_stats.Json
module S = Clof_stats.Stats
module KV = Clof_workloads.Kvservice
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module Exec = Clof_exec.Exec
module Sc = Clof_verify.Scenarios
module Ck = Clof_verify.Checker
module Native = Clof_native.Native
module M = Clof_sim.Sim_mem
module RM = Clof_atomics.Real_mem

let now = Unix.gettimeofday

(* Host timings read this clock: reference seconds, see speed.ml. *)
let clock = Speed.clock

(* ---------- lock specs, built here so controllers can be read back ---------- *)

(* An armed adaptive composition whose instances are collected in
   [seen], if given, the way Kvbench/Adaptbench build theirs. *)
module Adaptive_spec (Mem : Clof_atomics.Memory_intf.S) (L : Clof_core.Clof_intf.S) =
struct
  module A = Clof_core.Adaptive.Make (Mem) (L)

  let spec ?(seen : A.t list ref option) ~name ~hierarchy () =
    {
      RT.s_name = name;
      instantiate =
        (fun topo ->
          let t = A.create ~topo ~hierarchy () in
          A.arm ~epoch:32 t;
          Option.iter (fun seen -> seen := t :: !seen) seen;
          {
            RT.l_name = name;
            l_fair = false;
            l_abortable = A.abortable;
            l_adaptive = true;
            handle =
              (fun ?stats ~cpu () ->
                let ctx = A.ctx_create t ~cpu in
                Option.iter (fun r -> A.set_sink ctx (S.Sink.of_recorder r)) stats;
                {
                  RT.acquire = (fun () -> A.acquire t ctx);
                  release = (fun () -> A.release t ctx);
                  try_acquire = (fun ~deadline -> A.try_acquire t ctx ~deadline);
                });
          });
    }

  (* (switches, settled mode) of every instance, in creation order *)
  let readback seen =
    List.rev_map
      (fun t -> (A.switches t, Clof_core.Adaptive.mode_to_string (A.mode t)))
      !seen
end

module Clh = Clof_locks.Clh.Make (M)
module Root = Clof_core.Compose.Base (Clh)
module C2 = Clof_core.Compose.Compose (M) (Clh) (Root)
module C3 = Clof_core.Compose.Compose (M) (Clh) (C2)
module C4 = Clof_core.Compose.Compose (M) (Clh) (C3)
module Fp4 = Clof_core.Fastpath.Make (M) (C4)
module Ad4 = Adaptive_spec (M) (C4)
module Cna = Clof_baselines.Cna.Make (M)
module Shfl = Clof_baselines.Shfllock.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)

let x86 = Platform.x86
let hier4 = Platform.hier4 x86
let adaptive = "ad-clof<4>"

(* A fresh spec per job: each adaptive spec records its own instances. *)
let sim_spec name (seen : Ad4.A.t list ref) =
  let clof ?h hierarchy packed = RT.rename name (RT.of_clof ?h ~hierarchy packed) in
  match name with
  | "clof<4>" -> clof hier4 (module C4 : Clof_core.Clof_intf.S)
  | "fp-clof<4>" -> clof hier4 (module Fp4 : Clof_core.Clof_intf.S)
  | "fair-h1" -> clof ~h:1 [ Level.System ] (module Root : Clof_core.Clof_intf.S)
  | "ad-clof<4>" -> Ad4.spec ~seen ~name ~hierarchy:hier4 ()
  | "hmcs<4>" -> RT.rename name (Hmcs.spec ~hierarchy:hier4 ())
  | "cna" -> Cna.spec ()
  | "shfl" -> Shfl.spec ()
  | _ -> invalid_arg ("unknown panel lock " ^ name)

let traced_spec (spec : RT.spec) =
  {
    spec with
    RT.instantiate =
      (fun topo ->
        Trace.span "Runtime.spec.instantiate" (fun () -> spec.RT.instantiate topo));
  }

(* Metric-name spelling of a lock: "ad-clof<4>" -> "ad-clof4". *)
let key name = String.of_seq (Seq.filter (fun c -> c <> '<' && c <> '>') (String.to_seq name))
let mode_code = function "fastpath" -> 0.0 | "keep_local" -> 1.0 | _ -> 2.0

(* ---------- readings and reporting ---------- *)

type reading = string * (float * string)  (** name, (value, unit) *)

type report = {
  setups : float list;  (** reference seconds of each repetition of the set-up *)
  e2e : reading list;  (** the end-to-end metrics this workload measures *)
  layer : reading list;
  attempted : int;
  failed : int;
  errors : string list;
  digest : int option;  (** simulated-statistics fingerprint *)
  walls : float list;  (** reference seconds of each round of the fixed work *)
  peak_mb : float option;  (** memory high-water mark, when read before untimed work *)
}

let best = List.fold_left Float.min infinity

(* Best, median, rule-chosen tail percentile and sample count of host
   timings, printed beside every timing the benchmark reports. A
   timing is reported as its median. *)
let describe label unit xs =
  let n = List.length xs in
  let tail =
    match Pstat.tail_nines n with
    | Some k ->
        Printf.sprintf "%s %.6g" (Pstat.tag_of_nines k)
          (Pstat.percentile xs (Pstat.percent_of_nines k))
    | None -> Printf.sprintf "max %.6g" (List.fold_left Float.max neg_infinity xs)
  in
  Printf.printf "  %-34s best %.6g %s, median %.6g, %s, n=%d\n" label (best xs) unit
    (Pstat.median xs) tail n

(* The same for a simulated latency histogram (ns), printed in us. *)
let describe_hist label r =
  let n = S.latency_samples r in
  let at p = Option.value ~default:nan (S.percentile_interp r p) /. 1000.0 in
  match Pstat.tail_nines n with
  | Some k ->
      Printf.printf "  %-34s median %.4g us, %s %.4g us, n=%d\n" label (at 50.0)
        (Pstat.tag_of_nines k)
        (at (Pstat.percent_of_nines k))
        n
  | None -> Printf.printf "  %-34s n=%d, too few samples for a tail\n" label n

(* Host memory high-water mark: VmHWM, else the OCaml heap's. *)
let peak_heap_mb () =
  let hwm =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line -> (
                match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
                | kb -> Some (float_of_int kb /. 1024.0)
                | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> scan ())
          in
          scan ())
    with Sys_error _ -> None
  in
  match hwm with
  | Some mb -> mb
  | None ->
      let words = (Gc.quick_stat ()).Gc.top_heap_words in
      float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* Run [f] with the speed probe armed until [seconds] have passed, at
   least once: the first round's result, and the seconds and [digest]
   of each round's, so that later results need not stay live and the
   memory peak does not grow with the number of rounds. *)
let rounds ?kind ~seconds ~digest f =
  Speed.with_probe ?kind @@ fun () ->
  let t_end = now () +. seconds in
  let rec go first acc =
    let t0 = clock () in
    let r = f () in
    let acc = (clock () -. t0, digest r) :: acc in
    let first = Option.value first ~default:r in
    if now () >= t_end then (first, List.rev acc) else go (Some first) acc
  in
  go None []

(* Set-up repeats at least [reps] times and for at least [min_s]
   seconds, so that its median does not hang on one slow repetition;
   the result is the first repetition's. *)
let repeat_setup ~reps ~min_s f =
  Speed.with_probe @@ fun () ->
  let start = now () in
  let timed () =
    let t0 = clock () in
    let r = f () in
    (clock () -. t0, r)
  in
  let t, first = timed () in
  let rec more acc n =
    if n >= reps && now () -. start >= min_s then acc
    else more (fst (timed ()) :: acc) (n + 1)
  in
  let times = more [ t ] 1 in
  Trace.count "repetitions" (float_of_int (List.length times));
  (* the repetitions' garbage goes now, so that how many there were
     does not shape the heap the measured work grows *)
  Gc.full_major ();
  (times, first)

(* Untimed work on the executor's domains, which are shut down after
   it: while another domain lives, every minor collection of the timed
   domain has to wait for it. *)
let parallel f =
  Fun.protect f ~finally:(fun () ->
      let n = Exec.jobs () in
      Exec.set_jobs 1;
      Exec.set_jobs n)

let guard f = try Ok (f ()) with e -> Error (Printexc.to_string e)
let stats_json r = Json.to_string (S.to_json r)
let pct r p = Option.value ~default:infinity (S.percentile_interp r p)
let per n d = float_of_int n /. float_of_int (max 1 d)

(* ---------- kv-open ---------- *)

let kv_workers = 64
let kv_default_seed = 20_260_809

(* Kvbench's full diurnal schedule: low -> MMPP peak -> low. *)
let kv_params seed =
  let low_ns = 6_000_000 and peak_ns = 45_000_000 in
  {
    KV.stripes = 4;
    keys = 1024;
    zipf_s = 0.99;
    read_fraction = 0.9;
    read_ns = 1000;
    write_ns = 2000;
    phases =
      [
        { KV.ph_label = "low-1"; ph_ns = low_ns; ph_process = KV.Poisson 0.004 };
        {
          KV.ph_label = "peak";
          ph_ns = peak_ns;
          ph_process = KV.Mmpp { rate_low = 0.009; rate_high = 0.036; dwell_ns = 100_000 };
        };
        { KV.ph_label = "low-2"; ph_ns = low_ns; ph_process = KV.Poisson 0.004 };
      ];
    seed;
  }

(* The headline tails pool the sojourns of [replicas] diurnal runs of
   ad-clof<4>, the first on the seed itself, so that one burst-heavy
   schedule moves an eighth of the samples rather than the reading. *)
let replicas = 8

let replica_seed seed r =
  if r = 0 then seed else Pstat.digest (Printf.sprintf "kv-replica/%d/%d" seed r)

let replica_label r = Printf.sprintf "%s-replica%d" (key adaptive) r

(* The steady-Poisson ladder, in aggregate req/us over all workers.
   Each rung runs 8 simulated ms on [rung_replicas] schedules and is
   judged on their median p99 and drain overshoot, so that one
   burst-heavy schedule does not move the rate by a whole rung. *)
let ladder = List.init 8 (fun i -> 0.32 *. float_of_int (i + 1))
let rung_replicas = 3

(* Untraced, the rungs above [lower_rungs] (the costliest) run only
   when every rung below passes: otherwise the first failure is already
   among the lower ones and fixes the SLO rate. *)
let lower_rungs = 5

let rung_params seed rate =
  let process = KV.Poisson (rate /. float_of_int kv_workers) in
  {
    (kv_params seed) with
    KV.phases = [ { KV.ph_label = "steady"; ph_ns = 8_000_000; ph_process = process } ];
  }

let rung_label rate =
  String.map (fun c -> if c = '.' then '_' else c) (Printf.sprintf "r%.2f" rate)

let rung_job_label rate r = Printf.sprintf "ladder-%s-%d" (rung_label rate) r

let kv_panel = [ "clof<4>"; "fp-clof<4>"; "fair-h1"; adaptive; "cna"; "shfl" ]
let low_p99_slo_ns = Clof_harness.Kvbench.low_p99_slo_ns

(* A rung drains when its last completion lands within one SLO of the
   nominal end, i.e. the last arrival still meets the SLO. *)
let rung_ok ~p99 ~over =
  Pstat.rung_ok ~slo_ns:low_p99_slo_ns ~slack_ns:low_p99_slo_ns ~p99_ns:p99 ~overshoot_ns:over

type kv_point = {
  kp_label : string;
  kp_params : KV.params;
  kp_result : KV.result;
  kp_ctl : (int * string) list;
}

let kv_job ~parent (label, lock, params) =
  Trace.span ~parent ("Kvservice.run " ^ label) (fun () ->
      guard (fun () ->
          let seen = ref [] in
          let spec = traced_spec (sim_spec lock seen) in
          let r = KV.run ~platform:x86 ~nworkers:kv_workers ~spec params in
          Trace.count "completed" (float_of_int r.KV.r_total);
          Trace.count "sim_ns" (float_of_int r.KV.r_sim_ns);
          { kp_label = label; kp_params = params; kp_result = r; kp_ctl = Ad4.readback seen }))

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let kv_digest points =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      let r = p.kp_result in
      Printf.bprintf b "%s|%d|%d|%s|%s|" p.kp_label r.KV.r_total r.KV.r_sim_ns
        (ints r.KV.r_per_worker) (stats_json r.KV.r_lock_stats);
      List.iter
        (fun ph ->
          Printf.bprintf b "%s:%d:%d:%s;" ph.KV.p_label ph.KV.p_offered ph.KV.p_completed
            (stats_json ph.KV.p_sojourn))
        r.KV.r_phases;
      List.iter (fun (s, m) -> Printf.bprintf b "%d%s;" s m) p.kp_ctl)
    points;
  Pstat.digest (Buffer.contents b)

let phase r label = (List.find (fun p -> p.KV.p_label = label) r.KV.r_phases).KV.p_sojourn

(* A rung's median p99 sojourn and drain overshoot (ns) over its
   schedules: [None] when it did not run, a failed run counting as an
   infinite one. *)
let rung_reading find rate =
  let runs = List.init rung_replicas (fun r -> find (rung_job_label rate r)) in
  if List.for_all Option.is_none runs then None
  else if List.mem None runs then Some (rate, infinity, infinity)
  else
    let runs = List.filter_map Fun.id runs in
    let p99 p = pct (phase p.kp_result "steady") 99.0 in
    let over p = float_of_int (p.kp_result.KV.r_sim_ns - KV.total_ns p.kp_params) in
    Some (rate, Pstat.median (List.map p99 runs), Pstat.median (List.map over runs))

(* The end-to-end and per-layer readings of a completed kv round. *)
let kv_readings ~err ~panel find (ad : kv_point) =
  print_endline "kv-open, ad-clof<4> (simulated sojourn from each request's due time):";
  let others = List.init (replicas - 1) (fun r -> find (replica_label (r + 1))) in
  let reps = ad :: List.filter_map Fun.id others in
  let phases =
    List.map
      (fun p ->
        let r = p.kp_result in
        let peak = phase r "peak" and low = S.merge_all [ phase r "low-1"; phase r "low-2" ] in
        (* the named percentiles must be ones the sample counts allow *)
        List.iter
          (fun (name, h, nines) ->
            match Pstat.tail_nines (S.latency_samples h) with
            | Some k when k >= nines -> ()
            | _ -> err (Printf.sprintf "%s/%s: too few samples" p.kp_label name))
          [ ("peak_p99_9_us", peak, 3); ("low_p99_us", low, 2) ];
        describe_hist (p.kp_label ^ " peak sojourn") peak;
        describe_hist (p.kp_label ^ " low-1 + low-2 sojourn") low;
        (peak, low))
      reps
  in
  (* the headline percentiles pool the replicas' samples *)
  let peak = S.merge_all (List.map fst phases) and low = S.merge_all (List.map snd phases) in
  describe_hist "replicas pooled, peak sojourn" peak;
  describe_hist "replicas pooled, low sojourn" low;
  let rungs = List.filter_map (rung_reading find) ladder in
  List.iter
    (fun (rate, p99, over) ->
      Printf.printf "  ladder %.2f req/us: p99 %.4g us, drain overshoot %.4g us%s\n" rate
        (p99 /. 1000.0) (over /. 1000.0)
        (if rung_ok ~p99 ~over then "" else ", over the SLO"))
    rungs;
  let slo =
    match Pstat.slo_rate (List.map (fun (rate, p99, over) -> (rate, rung_ok ~p99 ~over)) rungs) with
    | Some s -> s
    | None ->
        err "the lowest ladder rung misses the SLO";
        nan
  in
  let switches = List.fold_left (fun a (s, _) -> a + s) 0 ad.kp_ctl in
  let stripes m = float_of_int (List.length (List.filter (fun (_, x) -> x = m) ad.kp_ctl)) in
  Printf.printf "  controller: %d switch(es); stripes settled in %s\n" switches
    (String.concat ", " (List.map snd ad.kp_ctl));
  let e2e =
    [
      ("peak_p50_us", (pct peak 50.0 /. 1000.0, "us"));
      ("peak_p99_9_us", (pct peak 99.9 /. 1000.0, "us"));
      ("low_p99_us", (pct low 99.0 /. 1000.0, "us"));
      ("slo_rate_req_per_us", (slo, "req/us"));
    ]
  in
  let per_lock lock =
    match find (key lock) with
    | None -> []
    | Some p ->
        (* the service records no acquire latencies in its lock
           recorder; every completed request is one acquisition *)
        let st = p.kp_result.KV.r_lock_stats and k = "kv." ^ key lock in
        [
          (k ^ ".peak_p99_9_us", (pct (phase p.kp_result "peak") 99.9 /. 1000.0, "us"));
          (k ^ ".locality", (S.locality st, "ratio"));
          (k ^ ".fastpath_frac", (per (S.fastpath st) p.kp_result.KV.r_total, "ratio"));
        ]
  in
  let per_rung (rate, p99, over) =
    let k = "workloads.kv." ^ rung_label rate in
    [ (k ^ ".p99_us", (p99 /. 1000.0, "us")); (k ^ ".drain_overshoot_us", (over /. 1000.0, "us")) ]
  in
  ( e2e,
    List.concat_map per_lock panel
    @ [
        ("kv.ad-clof4.switches", (float_of_int switches, "count"));
        ("kv.ad-clof4.stripes_fastpath", (stripes "fastpath", "count"));
        ("kv.ad-clof4.stripes_keep_local", (stripes "keep_local", "count"));
        ("kv.ad-clof4.stripes_fair", (stripes "fair", "count"));
      ]
    @ List.concat_map per_rung rungs )

let run_kv ?(full_ladder = false) ~seed ~seconds ~setup_reps ~setup_min_s ~panel () =
  let errors = ref [] in
  let err s = errors := s :: !errors in
  let panel_jobs = List.map (fun lock -> (key lock, lock, kv_params seed)) panel in
  let rung_jobs rates =
    List.concat_map
      (fun rate ->
        List.init rung_replicas (fun r ->
            (rung_job_label rate r, adaptive, rung_params (replica_seed seed r) rate)))
      rates
  in
  let lower = List.filteri (fun i _ -> i < lower_rungs) ladder in
  let upper = List.filteri (fun i _ -> i >= lower_rungs) ladder in
  let lower_jobs =
    List.map
      (fun r -> (replica_label r, adaptive, kv_params (replica_seed seed r)))
      (List.init (replicas - 1) succ)
    @ rung_jobs lower
  in
  let jobs = panel_jobs @ lower_jobs @ rung_jobs upper in
  (* Set-up generates the inputs from the seed: every worker's request
     schedule for each job, counted per phase. *)
  let setups, offered =
    Trace.span "Kvservice.schedule" @@ fun () ->
    repeat_setup ~reps:setup_reps ~min_s:setup_min_s (fun () ->
        List.map
          (fun (label, _, params) ->
            let per_phase = Array.make (List.length params.KV.phases) 0 in
            for w = 0 to kv_workers - 1 do
              Array.iter
                (fun rq -> per_phase.(rq.KV.rq_phase) <- per_phase.(rq.KV.rq_phase) + 1)
                (KV.schedule params ~worker:w)
            done;
            (label, per_phase))
          jobs)
  in
  (* The timed work is the diurnal schedule over the panel, one lock
     after another on this domain; the memory peak is read after it. *)
  let round_digest res = kv_digest (List.filter_map Result.to_option res) in
  let first, rs =
    rounds ~seconds ~digest:round_digest (fun () ->
        List.map (kv_job ~parent:(Trace.current ())) panel_jobs)
  in
  let peak_mb = peak_heap_mb () in
  (* The replicas and the ladder only give simulated readings: they run
     once, untimed, on the executor's domains. *)
  let parent = Trace.current () in
  let b0 = Exec.busy_s () and t0 = now () in
  let extra =
    parallel (fun () ->
        let first = Exec.map (kv_job ~parent) lower_jobs in
        let find label =
          List.find_map
            (function Ok p when p.kp_label = label -> Some p | _ -> None)
            first
        in
        let passes (_, p99, over) = rung_ok ~p99 ~over in
        let lower_pass = List.for_all passes (List.filter_map (rung_reading find) lower) in
        if full_ladder || lower_pass then first @ Exec.map (kv_job ~parent) (rung_jobs upper)
        else first)
  in
  let busy = Exec.busy_s () -. b0 and extra_wall = now () -. t0 in
  let res = first @ extra in
  let points = List.filter_map (function Ok p -> Some p | Error e -> err e; None) res in
  let ran = List.length first + List.length extra in
  let attempted =
    List.fold_left
      (fun a (_, n) -> Array.fold_left ( + ) a n)
      0
      (List.filteri (fun i _ -> i < ran) offered)
  in
  let completed = List.fold_left (fun a p -> a + p.kp_result.KV.r_total) 0 points in
  List.iter
    (fun p ->
      let want = List.assoc p.kp_label offered in
      List.iteri
        (fun i ph ->
          if ph.KV.p_offered <> want.(i) || ph.KV.p_completed <> ph.KV.p_offered then
            err
              (Printf.sprintf "%s/%s: schedule %d, offered %d, completed %d" p.kp_label
                 ph.KV.p_label want.(i) ph.KV.p_offered ph.KV.p_completed))
        p.kp_result.KV.r_phases;
      if p.kp_result.KV.r_hung then err (p.kp_label ^ ": hung"))
    points;
  let digest = kv_digest points in
  List.iteri
    (fun i (_, d) ->
      if d <> round_digest first then
        err (Printf.sprintf "round %d simulated differently from round 1" (i + 1)))
    rs;
  let find label = List.find_opt (fun p -> p.kp_label = label) points in
  (* the lowest rung, simulated once more in this process, must repeat exactly *)
  let label = rung_job_label (List.hd ladder) 0 in
  let job = List.find (fun (l, _, _) -> l = label) jobs in
  (match (kv_job ~parent:(Trace.current ()) job, find label) with
  | Ok again, Some p when kv_digest [ again ] <> kv_digest [ p ] ->
      err (label ^ " simulated differently when run again")
  | _ -> ());
  let e2e, layer =
    match find (key adaptive) with
    | Some ad -> kv_readings ~err ~panel find ad
    | None ->
        err "the ad-clof<4> point did not complete";
        ([], [])
  in
  {
    setups;
    e2e;
    layer =
      layer
      @ [
          ("workloads.kv.schedule_s", (Pstat.median setups, "s"));
          (* arrivals are precomputed, so the generator is never late *)
          ("workloads.kv.generator_late_us", (0.0, "us"));
          ("exec.kv.busy_s", (busy, "s"));
          ("exec.kv.speedup", (busy /. extra_wall, "x"));
        ];
    attempted;
    failed = attempted - completed;
    errors = List.rev !errors;
    digest = Some digest;
    walls = List.map fst rs;
    peak_mb = Some peak_mb;
  }

(* ---------- closed-hclc ---------- *)

let closed_panel = [ adaptive; "clof<4>"; "hmcs<4>"; "cna"; "shfl" ]

(* LC: adaptbench's lock-latency-bound op (CS 20 ns, think 40 ns) on
   one thread. HC: LevelDB readrandom on 95 of the 96 CPUs. *)
let lc_point =
  ("lc", 1, { W.duration = 20_000_000; cs_reads = 1; cs_writes = 1; cs_work = 20; noncs_work = 40 })

let hc_point = ("hc", 95, { W.leveldb with W.duration = 30_000_000 })

type closed_point = {
  cp_lock : string;
  cp_kind : string;
  cp_result : W.result;
  cp_ctl : (int * string) list;
  cp_host_s : float;  (** reference seconds inside the run *)
  cp_words : float;  (** minor words the run allocated *)
}

let closed_job ~parent (lock, (kind, nthreads, params)) =
  Trace.span ~parent (Printf.sprintf "Workload.run %s %s" kind (key lock)) (fun () ->
      guard (fun () ->
          let seen = ref [] in
          let spec = traced_spec (sim_spec lock seen) in
          let w0 = Speed.minor_words () and t0 = clock () in
          let r = W.run ~platform:x86 ~nthreads ~spec params in
          let host = clock () -. t0 and words = Speed.minor_words () -. w0 in
          Trace.count "events" (float_of_int r.W.events);
          Trace.count "total_ops" (float_of_int r.W.total_ops);
          List.iter
            (fun (p, n) ->
              Trace.count (Printf.sprintf "transfers.prox%d" (Level.prox_rank p)) (float_of_int n))
            r.W.transfers;
          {
            cp_lock = lock;
            cp_kind = kind;
            cp_result = r;
            cp_ctl = Ad4.readback seen;
            cp_host_s = host;
            cp_words = words;
          }))

let closed_digest points =
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      let r = p.cp_result in
      Printf.bprintf b "%s/%s|%d|%d|%d|%s|%s|%s|" p.cp_lock p.cp_kind r.W.total_ops r.W.sim_ns
        r.W.events (ints r.W.per_thread)
        (String.concat "," (List.map (fun (_, n) -> string_of_int n) r.W.transfers))
        (stats_json r.W.stats);
      List.iter (fun (s, m) -> Printf.bprintf b "%d%s;" s m) p.cp_ctl)
    points;
  Pstat.digest (Buffer.contents b)

(* Cross-NUMA share of the cache-line transfers. *)
let remote_frac transfers =
  let count p = List.fold_left (fun a (x, n) -> if p x then a + n else a) 0 transfers in
  let remote = count (fun x -> Level.prox_rank x > Level.prox_rank Level.Same_numa) in
  per remote (count (fun _ -> true))

(* The end-to-end and per-layer readings of a completed closed round. *)
let closed_readings ~panel points find hc lc =
  let sum f = List.fold_left (fun a p -> a +. f p) 0.0 points in
  let events = sum (fun p -> float_of_int p.cp_result.W.events) in
  let ctl p =
    match p.cp_ctl with [ (s, m) ] -> (float_of_int s, mode_code m) | _ -> (nan, nan)
  in
  let hc_sw, hc_mode = ctl hc and lc_sw, lc_mode = ctl lc in
  let jain p = Clof_harness.Report.jain p.cp_result.W.per_thread in
  print_endline "closed-hclc (simulated x86, ops/us):";
  let per_lock lock =
    match (find lock "hc", find lock "lc") with
    | Some h, Some l ->
        let st = h.cp_result.W.stats and lst = l.cp_result.W.stats and k = "clof." ^ key lock in
        Printf.printf "  %-10s HC %.4f (jain %.3f), LC %.4f\n" lock h.cp_result.W.throughput
          (jain h) l.cp_result.W.throughput;
        [
          ("closed." ^ key lock ^ ".hc_ops_per_us", (h.cp_result.W.throughput, "ops/us"));
          (k ^ ".locality", (S.locality st, "ratio"));
          (k ^ ".keep_local_frac", (S.keep_local_fraction st, "ratio"));
          (k ^ ".spins_per_acq", (per (S.spins st) (S.acquisitions st), "ratio"));
          (k ^ ".acquire_p99_ns", (pct st 99.0, "ns"));
          (k ^ ".fastpath_frac", (per (S.fastpath lst) (S.acquisitions lst), "ratio"));
        ]
    | _ -> []
  in
  ( [
      ("hc_ops_per_us", (hc.cp_result.W.throughput, "ops/us"));
      ("lc_ops_per_us", (lc.cp_result.W.throughput, "ops/us"));
      ("hc_jain", (jain hc, "ratio"));
    ],
    [
      ("sim.events", (events, "count"));
      ( "sim.ns_per_event",
        (1e9 *. sum (fun p -> p.cp_host_s) /. Float.max events 1.0, "ns") );
      ("sim.words_per_event", (sum (fun p -> p.cp_words) /. Float.max events 1.0, "words"));
      ("sim.transfers.remote_frac", (remote_frac hc.cp_result.W.transfers, "ratio"));
      ("clof.ad-clof4.hc_switches", (hc_sw, "count"));
      ("clof.ad-clof4.hc_mode", (hc_mode, "mode"));
      ("clof.ad-clof4.lc_switches", (lc_sw, "count"));
      ("clof.ad-clof4.lc_mode", (lc_mode, "mode"));
    ]
    @ List.concat_map per_lock panel )

let run_closed ~seconds ~setup_reps ~setup_min_s ~panel =
  let errors = ref [] in
  let err s = errors := s :: !errors in
  let jobs = List.concat_map (fun lock -> [ (lock, lc_point); (lock, hc_point) ]) panel in
  (* Set-up: instantiate every panel lock on the simulated machine. *)
  let setups, () =
    Trace.span "set-up" @@ fun () ->
    repeat_setup ~reps:setup_reps ~min_s:setup_min_s (fun () ->
        List.iter
          (fun (lock, _) -> ignore ((sim_spec lock (ref [])).RT.instantiate x86.Platform.topo))
          jobs)
  in
  (* the timed work: every point, one after another on this domain *)
  let round_digest res = closed_digest (List.filter_map Result.to_option res) in
  let first, rs =
    rounds ~seconds ~digest:round_digest (fun () ->
        List.map (closed_job ~parent:(Trace.current ())) jobs)
  in
  let points = List.filter_map (function Ok p -> Some p | Error e -> err e; None) first in
  List.iter
    (fun p ->
      let r = p.cp_result and name = p.cp_lock ^ "/" ^ p.cp_kind in
      if r.W.hung || r.W.aborted then err (name ^ ": hung or aborted");
      if r.W.total_ops = 0 then err (name ^ ": no operation completed"))
    points;
  let digest = closed_digest points in
  List.iteri
    (fun i (_, d) ->
      if d <> digest then
        err (Printf.sprintf "round %d simulated differently from round 1" (i + 1)))
    rs;
  let find lock kind = List.find_opt (fun p -> p.cp_lock = lock && p.cp_kind = kind) points in
  (* the first point, simulated once more in this process, must repeat exactly *)
  let ((lock, (kind, _, _)) as first) = List.hd jobs in
  (match (closed_job ~parent:(Trace.current ()) first, find lock kind) with
  | Ok again, Some p when closed_digest [ again ] <> closed_digest [ p ] ->
      err (Printf.sprintf "%s/%s simulated differently when run again" lock kind)
  | _ -> ());
  let e2e, layer =
    match (find adaptive "hc", find adaptive "lc") with
    | Some hc, Some lc -> closed_readings ~panel points find hc lc
    | _ ->
        err "the ad-clof<4> points did not complete";
        ([], [])
  in
  {
    setups;
    e2e;
    layer;
    attempted = List.length jobs;
    failed = List.length jobs - List.length points;
    errors = List.rev !errors;
    digest = Some digest;
    walls = List.map fst rs;
    peak_mb = None;
  }

(* ---------- child processes ---------- *)

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* Run this program with [args] as a child process while [f] runs
   here: [f]'s result, the child's standard output as lines, and
   whether the child exited with 0. The child is killed if [f] fails,
   and waited for in every case. *)
let with_child args f =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let reaped = ref false in
  let reap () =
    reaped := true;
    snd (restart (fun () -> Unix.waitpid [] pid))
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap ())
      end;
      Unix.close out_r)
    (fun () ->
      let r = f () in
      let lines =
        In_channel.input_all (Unix.in_channel_of_descr out_r)
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      (r, lines, reap () = Unix.WEXITED 0))

(* A child ends with the run that started it, however that ended: a
   CPU-time timer checks every 0.1 s that its parent is still there. *)
let die_with_parent () =
  let parent = Unix.getppid () in
  Sys.set_signal Sys.sigvtalrm
    (Sys.Signal_handle (fun _ -> if Unix.getppid () <> parent then exit 1));
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = 0.1; it_value = 0.1 })

(* ---------- verify-suite ---------- *)

(* One scenario's outcome, as a line a suite worker process prints. *)
type scen = {
  sc_index : int;  (** position in [Sc.suite ~quick:true] *)
  sc_ok : bool;  (** verdict as expected *)
  sc_proved : bool;  (** as expected, and exhaustive or an expected violation *)
  sc_truncated : bool;
  sc_executions : int;
  sc_steps : int;
  sc_complete : int;
  sc_s : float;  (** reference seconds of its [Scenarios.run] *)
}

let scen_line s =
  Printf.sprintf "%d %B %B %B %d %d %d %h" s.sc_index s.sc_ok s.sc_proved s.sc_truncated
    s.sc_executions s.sc_steps s.sc_complete s.sc_s

let scen_of_line l =
  Scanf.sscanf l "%d %B %B %B %d %d %d %h"
    (fun sc_index sc_ok sc_proved sc_truncated sc_executions sc_steps sc_complete sc_s ->
      { sc_index; sc_ok; sc_proved; sc_truncated; sc_executions; sc_steps; sc_complete; sc_s })

let verify_entries () = Array.of_list (Sc.suite ~quick:true ())

(* Check scenario [i] through the suite's public runner. *)
let run_scenario ~parent entries i =
  let e = entries.(i) in
  let named = e.Sc.e_named in
  Trace.span ~parent ("Scenarios.run " ^ named.Sc.sname) (fun () ->
      let t0 = clock () in
      let o = List.hd (Sc.run_suite [ e ]) in
      let dt = clock () -. t0 in
      let r = o.Sc.o_report in
      Trace.count "executions" (float_of_int r.Ck.executions);
      Trace.count "steps" (float_of_int r.Ck.steps);
      Trace.count "complete" (float_of_int r.Ck.complete);
      Trace.count "truncated" (if r.Ck.truncated then 1.0 else 0.0);
      {
        sc_index = i;
        sc_ok = o.Sc.o_ok;
        sc_proved = o.Sc.o_ok && (r.Ck.exhaustive || named.Sc.expect_violation);
        sc_truncated = r.Ck.truncated;
        sc_executions = r.Ck.executions;
        sc_steps = r.Ck.steps;
        sc_complete = r.Ck.complete;
        sc_s = dt;
      })

(* Two processes share the suite, each on its own CPU and with its own
   heap, so the collector of one never waits for the other. They claim
   scenarios one at a time from a counter in [claims], under a lock. *)
let claim claims =
  let fd = restart (fun () -> Unix.openfile claims [ Unix.O_RDWR ] 0) in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      restart (fun () -> Unix.lockf fd Unix.F_LOCK 0);
      let buf = Bytes.create 32 in
      let len = restart (fun () -> Unix.read fd buf 0 32) in
      let k = int_of_string (String.trim (Bytes.sub_string buf 0 len)) in
      let next = Printf.sprintf "%31d\n" (k + 1) in
      ignore (restart (fun () -> Unix.lseek fd 0 Unix.SEEK_SET));
      ignore (restart (fun () -> Unix.write_substring fd next 0 32));
      ignore (restart (fun () -> Unix.lseek fd 0 Unix.SEEK_SET));
      restart (fun () -> Unix.lockf fd Unix.F_ULOCK 0);
      k)

(* Claim and check scenarios until none is left. The suite is handed
   out last entry first: its costliest group, the Peterson exhibits,
   sits at its end, and started first it overlaps the rest. *)
let drain ~claims entries f =
  let n = Array.length entries in
  let rec go acc =
    let k = claim claims in
    if k >= n then List.rev acc else go (f (n - 1 - k) :: acc)
  in
  Speed.with_probe (fun () -> go [])

(* The second process: [clofperf --suite-worker CLAIMS] prints one
   [scen_line] per scenario it checked, then its memory high-water
   mark. *)
let suite_worker claims =
  die_with_parent ();
  let entries = verify_entries () in
  List.iter
    (fun s -> print_endline (scen_line s))
    (drain ~claims entries (run_scenario ~parent:(-1) entries));
  Printf.printf "peak %h\n" (peak_heap_mb ());
  exit 0

(* The worker's high-water mark: a run's [peak_heap_mb] is the larger
   of the two processes'. *)
let worker_peak_mb = ref 0.0

let results_dir = Filename.concat "perfbench" "results"

(* The suite over this process and a worker process. *)
let run_shared entries =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let claims = Filename.concat results_dir "verify-claims" in
  Out_channel.with_open_text claims (fun oc -> Printf.fprintf oc "%31d\n" 0);
  Fun.protect
    ~finally:(fun () -> Sys.remove claims)
    (fun () ->
      let mine, lines, ok =
        with_child [ "--suite-worker"; claims ] (fun () ->
            drain ~claims entries (run_scenario ~parent:(Trace.current ()) entries))
      in
      let theirs =
        List.filter_map
          (fun l ->
            match Scanf.sscanf_opt l "peak %h" Fun.id with
            | Some mb ->
                worker_peak_mb := mb;
                None
            | None -> Some (scen_of_line l))
          lines
      in
      if ok then Ok (mine @ theirs) else Error "the suite worker process failed")

let run_verify ~setup_reps ~setup_min_s ~shared =
  (* Set-up builds the scenario list; the checker work is the run. *)
  let setups, entries =
    Trace.span "Scenarios.suite" @@ fun () ->
    repeat_setup ~reps:setup_reps ~min_s:setup_min_s verify_entries
  in
  let n = Array.length entries in
  (* Untraced, the suite is shared with a worker process; traced, this
     process checks every scenario, so that each has its span. *)
  let scens, errors =
    if shared then
      match run_shared entries with Ok l -> (l, []) | Error e -> ([], [ e ])
    else
      let parent = Trace.current () in
      ( Speed.with_probe (fun () -> List.init n (run_scenario ~parent entries)),
        [] )
  in
  let checked = List.sort_uniq compare (List.map (fun s -> s.sc_index) scens) in
  let errors =
    if List.length checked = n && List.length scens = n then errors
    else errors @ [ Printf.sprintf "%d of %d scenarios reported" (List.length checked) n ]
  in
  let named s = entries.(s.sc_index).Sc.e_named in
  let bad = List.filter (fun s -> not s.sc_ok) scens in
  let proved = List.filter (fun s -> s.sc_proved) scens in
  let truncated = List.filter (fun s -> s.sc_truncated) scens in
  let sum f = float_of_int (List.fold_left (fun a s -> a + f s) 0 scens) in
  let executions = sum (fun s -> s.sc_executions) and steps = sum (fun s -> s.sc_steps) in
  let complete = sum (fun s -> s.sc_complete) in
  let seconds_where p = List.fold_left (fun a s -> if p s then a +. s.sc_s else a) 0.0 scens in
  let mode_s m = seconds_where (fun s -> Ck.Config.mode (named s).Sc.config = m) in
  let checker_s = seconds_where (fun _ -> true) in
  Printf.printf "verify-suite: %d scenarios, %d as expected, %d proved, %d truncated\n" n
    (List.length scens - List.length bad)
    (List.length proved) (List.length truncated);
  List.iter (fun s -> Printf.printf "  truncated: %s\n" (named s).Sc.sname) truncated;
  {
    setups;
    e2e = [ ("proved_frac", (per (List.length proved) n, "ratio")) ];
    layer =
      [
        ("verify.executions", (executions, "count"));
        ("verify.steps", (steps, "count"));
        ("verify.steps_per_exec", (steps /. Float.max executions 1.0, "ratio"));
        ("verify.execs_per_s", (executions /. Float.max checker_s 1e-9, "1/s"));
        ("verify.complete_frac", (complete /. Float.max executions 1.0, "ratio"));
        ("verify.truncated", (float_of_int (List.length truncated), "count"));
        ("verify.sc_s", (mode_s Clof_verify.Vstate.Sc, "s"));
        ("verify.tso_s", (mode_s Clof_verify.Vstate.Tso, "s"));
        ("verify.rlx_s", (mode_s Clof_verify.Vstate.Relaxed, "s"));
        ( "verify.peterson-tso_s",
          (seconds_where (fun s -> (named s).Sc.sname = "peterson [tso]"), "s") );
      ];
    attempted = n;
    failed = n - (List.length scens - List.length bad);
    errors =
      errors
      @ List.map (fun s -> "verdict differs from its expectation: " ^ (named s).Sc.sname) bad;
    digest = None;
    (* the fixed work is the checker's: every scenario's reference
       seconds, summed over both processes *)
    walls = [ checker_s ];
    peak_mb = None;
  }

(* ---------- native-lock ---------- *)

module RR = Clof_locks.Registry.Make (RM)
module RG = Clof_core.Generator.Make (RM)

let composite = "tkt-tkt-mcs-mcs"

module Composite =
  (val Option.get (RG.of_name ~basics:(RR.basics ~ctr:true) composite) : Clof_core.Clof_intf.S)

module FpN = Clof_core.Fastpath.Make (RM) (Composite)
module AdN = Adaptive_spec (RM) (Composite)

let composite_spec () = RT.of_clof ~hierarchy:hier4 (module Composite : Clof_core.Clof_intf.S)

(* Every basic lock, CLH compositions of depth 1-4 (the marginal cost
   of each Compose level), the four-level heterogeneous composition,
   and the fastpath and adaptive aspects over it. Compositions take
   their cohorts from the simulated x86 topology: one domain on CPU 0
   only walks its own path, so the host topology does not matter. *)
let native_subjects () =
  List.map
    (fun p ->
      let s = RT.of_basic p in
      (s.RT.s_name, s))
    (RR.all ~ctr:true)
  @ List.init 4 (fun i ->
        let d = i + 1 in
        let hierarchy = if d = 1 then [ Level.System ] else Platform.hierarchy_of_depth x86 d in
        let clh = RG.build (List.init d (fun _ -> RR.clh)) in
        (Printf.sprintf "clh-depth%d" d, RT.of_clof ~hierarchy clh))
  @ [
      (composite, composite_spec ());
      ("fastpath", RT.of_clof ~hierarchy:hier4 (module FpN : Clof_core.Clof_intf.S));
      ("adaptive", AdN.spec ~name:"adaptive" ~hierarchy:hier4 ());
    ]

let batch_pairs = 2_000
let batches_per_visit = 8

(* One batch of acquire+release pairs: reference ns and minor words per pair. *)
let batch (h : RT.handle) =
  (* the clock's readings allocate, so they stay outside the counted
     words; so do the probes' *)
  let t0 = clock () in
  let p0 = !Speed.probe_words in
  let w0 = Gc.minor_words () in
  for _ = 1 to batch_pairs do
    h.RT.acquire ();
    h.RT.release ()
  done;
  let w1 = Gc.minor_words () -. (!Speed.probe_words -. p0) in
  let t1 = clock () in
  (1e9 *. (t1 -. t0) /. float_of_int batch_pairs, (w1 -. w0) /. float_of_int batch_pairs)

(* A visit: a fresh instance, so that no single placement of its
   cells decides the reading, a warm-up batch, then the measured
   batches, of which the first is a traced sample. *)
let visit ~parent (name, spec) =
  let lock =
    Trace.span ~parent "Runtime.spec.instantiate" (fun () ->
        spec.RT.instantiate x86.Platform.topo)
  in
  let h = lock.RT.handle ~cpu:0 () in
  ignore (batch h);
  List.init batches_per_visit (fun i ->
      if i > 0 then batch h
      else
        Trace.span ~parent ("acquire/release batch " ^ name) (fun () ->
            Trace.count "pairs" (float_of_int batch_pairs);
            batch h))

let contended_params =
  { W.duration = 0; cs_reads = 0; cs_writes = 1; cs_work = 0; noncs_work = 0 }

let run_native ~seconds ~setup_reps ~setup_min_s =
  let errors = ref [] in
  let subjects = native_subjects () in
  (* the loops allocate, so the collector's work must not depend on
     what the workloads before this one left on the heap *)
  Gc.compact ();
  (* Set-up: instantiate every subject and bind a context. *)
  let setups, () =
    Trace.span "set-up" @@ fun () ->
    repeat_setup ~reps:setup_reps ~min_s:setup_min_s (fun () ->
        List.iter
          (fun (_, s) -> ignore ((s.RT.instantiate x86.Platform.topo).RT.handle ~cpu:0 ()))
          subjects)
  in
  let native_run ~nthreads ~duration_ms =
    Trace.span "Native.run" (fun () ->
        let spec = composite_spec () in
        match Native.run ~platform:x86 ~nthreads ~duration_ms ~spec contended_params with
        | r ->
            Trace.count "total_ops" (float_of_int r.Native.total_ops);
            Some r
        | exception Native.Lock_failure m ->
            errors := ("native probe fired: " ^ m) :: !errors;
            None)
  in
  (* Native.run calibrates its spin loop once per process: the cost is
     the first call's extra time over an identical second call. *)
  let timed () =
    let t0 = now () in
    ignore (native_run ~nthreads:1 ~duration_ms:1);
    now () -. t0
  in
  let calibrate_s =
    let first = timed () in
    first -. timed ()
  in
  let samples = Hashtbl.create 16 in
  let nsub = List.length subjects in
  let visits = ref 0 in
  let peak_mb = ref None in
  let round () =
    let parent = Trace.current () in
    (* rotate the visiting order so drift over the run spreads evenly *)
    let first = !visits mod nsub in
    List.iteri
      (fun i _ ->
        let ((name, _) as subject) = List.nth subjects ((first + i) mod nsub) in
        incr visits;
        let old = Option.value ~default:[] (Hashtbl.find_opt samples name) in
        Hashtbl.replace samples name (visit ~parent subject @ old))
      subjects;
    (* the memory peak of the fixed work, one round: later rounds only
       add samples, and a faster host runs more of them *)
    if !peak_mb = None then peak_mb := Some (peak_heap_mb ())
  in
  let (), rs = rounds ~kind:Speed.Mixed ~seconds ~digest:ignore round in
  let contended =
    List.filter_map Fun.id (List.init 3 (fun _ -> native_run ~nthreads:2 ~duration_ms:200))
  in
  print_endline "native-lock (reference ns and minor words per acquire+release pair, one domain):";
  let readings name = List.split (Option.value ~default:[] (Hashtbl.find_opt samples name)) in
  let table =
    List.concat_map
      (fun (name, _) ->
        let ns, words = readings name in
        describe name "ns" ns;
        [
          ("native." ^ name ^ ".ns", (Pstat.median ns, "ns"));
          ("native." ^ name ^ ".words_per_op", (Pstat.median words, "words"));
        ])
      subjects
  in
  let contended_ns =
    match List.map (fun r -> per r.Native.wall_ns r.Native.total_ops) contended with
    | [] -> nan
    | l ->
        describe "2 domains, contended" "ns" l;
        Pstat.median l
  in
  let errors = List.rev !errors in
  {
    setups;
    e2e = [ ("uncontended_ns", (Pstat.median (fst (readings composite)), "ns")) ];
    layer =
      table
      @ [
          ("native.contended_ns", (contended_ns, "ns"));
          ("native.calibrate_s", (calibrate_s, "s"));
        ];
    attempted = (!visits * batches_per_visit) + 5;
    failed = List.length errors;
    errors;
    digest = None;
    walls = List.map fst rs;
    peak_mb = !peak_mb;
  }

(* A run's set-up repeats at least [setup_reps] times and for at least
   [setup_min_s] seconds. *)
let setup_reps = 3
let setup_min_s = 0.5
let native_work ~seconds = run_native ~seconds:(0.8 *. seconds) ~setup_reps ~setup_min_s

(* The other workloads take [uncontended_ns] from native-lock's own
   measured work, run in a child process, [clofperf --native-reference
   SECONDS], so that it meets the same fresh heap whatever workload ran
   before: the locks' loops allocate, and the collector's work per
   allocation grows with the heap the verify suite leaves. The child
   prints its readings and the last line [uncontended NS ATTEMPTED
   FAILED]. *)
let native_reference_child seconds =
  die_with_parent ();
  let r = native_work ~seconds in
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) r.errors;
  Printf.printf "uncontended %h %d %d\n" (fst (List.assoc "uncontended_ns" r.e2e)) r.attempted
    r.failed;
  exit (if r.errors = [] then 0 else 1)

let native_reference ~seconds =
  let (), lines, ok = with_child [ "--native-reference"; Printf.sprintf "%h" seconds ] ignore in
  let result = ref None in
  List.iter
    (fun l ->
      match Scanf.sscanf_opt l "uncontended %h %d %d" (fun ns a f -> (ns, a, f)) with
      | Some r -> result := Some r
      | None -> print_endline l)
    lines;
  match (!result, ok) with
  | Some (ns, attempted, failed), true ->
      {
        setups = [];
        e2e = [ ("uncontended_ns", (ns, "ns")) ];
        layer = [];
        attempted;
        failed;
        errors = [];
        digest = None;
        walls = [];
        peak_mb = None;
      }
  | _ ->
      {
        setups = [];
        e2e = [];
        layer = [];
        attempted = 1;
        failed = 1;
        errors = [ "the native reference process failed" ];
        digest = None;
        walls = [];
        peak_mb = None;
      }

(* ---------- command line ---------- *)

let workloads = [ "kv-open"; "closed-hclc"; "verify-suite"; "native-lock" ]

let e2e_names =
  [
    "setup_s"; "wall_s"; "peak_heap_mb"; "peak_p50_us"; "peak_p99_9_us"; "low_p99_us";
    "slo_rate_req_per_us"; "hc_ops_per_us"; "lc_ops_per_us"; "hc_jain"; "proved_frac";
    "uncontended_ns";
  ]

(* The measured run of a workload. Simulated workloads repeat their
   fixed work until [seconds] pass, at least once; the verify suite
   runs once, shared with a second process when untraced and the host
   has a second CPU; native-lock samples for most of [seconds]. *)
let run_workload ~seed ~seconds ?(traced = false) = function
  | "kv-open" ->
      run_kv ~full_ladder:traced ~seed ~seconds ~setup_reps ~setup_min_s ~panel:kv_panel ()
  | "closed-hclc" -> run_closed ~seconds ~setup_reps ~setup_min_s ~panel:closed_panel
  | "verify-suite" ->
      let shared = (not traced) && Domain.recommended_domain_count () >= 2 in
      run_verify ~setup_reps ~setup_min_s ~shared
  | _ -> native_work ~seconds

(* The source points of the end-to-end metrics another workload owns:
   every run reports every end-to-end metric, so after its measured
   work a workload also runs the ad-clof<4> points of the simulated
   workloads and native-lock's measured work. [proved_frac] needs the
   whole verify suite and is not re-measured elsewhere. *)
let reference ~seed ~seconds =
  let setup_reps = 1 and setup_min_s = 0.0 in
  function
  | "kv-open" -> Some (run_kv ~seed ~seconds:0.0 ~setup_reps ~setup_min_s ~panel:[ adaptive ] ())
  | "closed-hclc" -> Some (run_closed ~seconds:0.0 ~setup_reps ~setup_min_s ~panel:[ adaptive ])
  | "native-lock" -> Some (native_reference ~seconds)
  | _ -> None

let usage () =
  prerr_endline
    "usage: clofperf --workload (kv-open|closed-hclc|verify-suite|native-lock) [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref kv_default_seed in
  let seconds = ref 3.0 and trace = ref false in
  let positive s = match float_of_string_opt s with Some f -> f > 0.0 | None -> false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
        workload := Some w;
        go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
        seed := int_of_string n;
        go rest
    | "--seconds" :: s :: rest when positive s ->
        seconds := float_of_string s;
        go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
        trace := t = "1";
        go rest
    | a :: _ ->
        Printf.eprintf "clofperf: bad argument %S\n" a;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with Some w -> (w, !seed, !seconds, !trace) | None -> usage ()

let write_result name json =
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let path = Filename.concat results_dir name in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string ~indent:1 json));
  Printf.printf "wrote %s\n" path

let metrics_json l =
  Json.Obj
    (List.map
       (fun (k, (v, u)) -> (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
       l)

let sum_over f rs = List.fold_left (fun a r -> a + f r) 0 rs

(* The allocating probe's CPU time and its spread over the run: how
   fast the host ran under the timings and how much it drifted. *)
let probe_readings () =
  match Speed.probes () with
  | [] -> []
  | p ->
      let q = Pstat.percentile p in
      [
        ("host.probe_ms", (1000.0 *. Pstat.median p, "ms"));
        ("host.probe_spread", ((q 75.0 -. q 25.0) /. Pstat.median p, "ratio"));
      ]

let print_probes () =
  List.iter
    (fun (kind, label) ->
      match Speed.probes ~kind () with
      | [] -> ()
      | p -> describe (label ^ " probe, CPU seconds") "s" p)
    [ (Speed.Alloc, "alloc"); (Speed.Mixed, "mixed") ];
  Printf.printf "  %-34s %.3g s\n" "nominal probe" Speed.nominal_s

(* The untraced wall_s of a workload's last untraced run in this
   checkout, if any. *)
let recorded_wall w =
  let file = Filename.concat results_dir (w ^ ".json") in
  match In_channel.with_open_text file In_channel.input_all with
  | s ->
      Result.to_option (Json.of_string s)
      |> Fun.flip Option.bind (Json.member "metrics")
      |> Fun.flip Option.bind (Json.member "wall_s")
      |> Fun.flip Option.bind (Json.member "value")
      |> Fun.flip Option.bind Json.to_float
  | exception Sys_error _ -> None

let untraced ~workload ~seed ~seconds =
  let own = run_workload ~seed ~seconds workload in
  let heap =
    Float.max (Option.value own.peak_mb ~default:(peak_heap_mb ())) !worker_peak_mb
  in
  describe "wall_s (fixed work)" "s" own.walls;
  describe "setup_s (repeated set-up)" "s" own.setups;
  print_probes ();
  Option.iter (fun d -> Printf.printf "  simulation fingerprint %d\n" d) own.digest;
  print_endline "reference points for the other workloads' end-to-end metrics:";
  let others = List.filter (fun w -> w <> workload) workloads in
  let refs = List.filter_map (reference ~seed ~seconds) others in
  let measured =
    [
      ("setup_s", (Pstat.median own.setups, "s"));
      ("wall_s", (Pstat.median own.walls, "s"));
      ("peak_heap_mb", (heap, "MB"));
    ]
    @ own.e2e
    @ List.concat_map (fun r -> r.e2e) refs
  in
  (* off verify-suite, proved_frac is not measured and reads 1 *)
  let metrics =
    List.map
      (fun name -> (name, Option.value ~default:(1.0, "ratio") (List.assoc_opt name measured)))
      e2e_names
  in
  write_result (workload ^ ".json")
    (Json.Obj
       [
         ("metrics", metrics_json metrics);
         ("layer", metrics_json (own.layer @ probe_readings ()));
         ("walls_s", Json.Arr (List.map (fun w -> Json.Float w) own.walls));
       ]);
  let all = own :: refs in
  ( metrics,
    sum_over (fun r -> r.attempted) all,
    sum_over (fun r -> r.failed) all,
    List.concat_map (fun r -> r.errors) all )

(* Every workload, traced, in this process: the per-layer metrics, the
   spans, and the tracing overhead of each workload. *)
let traced ~workload ~seed ~seconds =
  (* each workload's fixed work once; native-lock samples a shorter window *)
  let seconds w = if w = "native-lock" then 0.5 *. seconds else 0.0 in
  Trace.arm (Printf.sprintf "%s-seed%d-pid%d" workload seed (Unix.getpid ()));
  let reports =
    List.map
      (fun w ->
        let before = List.length (Trace.spans ()) in
        let r = Trace.span w (fun () -> run_workload ~seed ~seconds:(seconds w) ~traced:true w) in
        (w, r, List.length (Trace.spans ()) - before))
      workloads
  in
  write_result "trace.json" (Trace.to_json ());
  (* Traced minus untraced wall_s. With no untraced run recorded in
     this checkout, the overhead is a round's share of the pass's spans
     times the cost of one span, rather than a second, untraced pass of
     the verify suite that would take this run past its time limit. *)
  let overhead =
    List.map
      (fun (w, r, spans) ->
        let t = Pstat.median r.walls in
        let o =
          match recorded_wall w with
          | Some u ->
              Printf.printf "  %-34s traced %.6g s, untraced %.6g s\n" (w ^ " wall_s") t u;
              t -. u
          | None ->
              let per_round = float_of_int spans /. float_of_int (List.length r.walls) in
              let o = per_round *. !Trace.span_cost in
              Printf.printf "  %-34s traced %.6g s, %d spans at %.3g s\n" (w ^ " wall_s") t spans
                !Trace.span_cost;
              o
        in
        ("trace." ^ w ^ ".overhead_s", (o, "s")))
      reports
  in
  Printf.printf "  %d spans\n" (List.length (Trace.spans ()));
  print_probes ();
  let rs = List.map (fun (_, r, _) -> r) reports in
  let digests = List.filter_map (fun r -> Option.map string_of_int r.digest) rs in
  let fingerprint = float_of_int (Pstat.digest (String.concat "," digests)) in
  ( List.concat_map (fun r -> r.layer) rs
    @ [ ("sim.fingerprint", (fingerprint, "digest")) ]
    @ probe_readings ()
    @ overhead,
    sum_over (fun r -> r.attempted) rs,
    sum_over (fun r -> r.failed) rs,
    List.concat_map (fun r -> r.errors) rs )

let () =
  (match Sys.argv with
  | [| _; "--suite-worker"; claims |] -> suite_worker claims
  | [| _; "--native-reference"; seconds |] -> native_reference_child (float_of_string seconds)
  | _ -> ());
  let workload, seed, seconds, trace = parse_args () in
  (* the load never uses more executor jobs than the host has CPUs, nor more than 2 *)
  Exec.set_jobs (min 2 (Domain.recommended_domain_count ()));
  Printf.printf "clofperf: workload %s, seed %d, %g s, trace %b\n%!" workload seed seconds trace;
  let metrics, attempted, failed, errors =
    if trace then traced ~workload ~seed ~seconds else untraced ~workload ~seed ~seconds
  in
  List.iter (fun e -> Printf.printf "FAILED: %s\n" e) errors;
  let correct = errors = [] && failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", metrics_json metrics);
          ]));
  exit (if correct then 0 else 1)
