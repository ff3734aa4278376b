(* Sim-vs-native cross-validation (`clof_bench xval`).
 *
 * The paper's core claim is that benchmark-driven selection finds the
 * best lock *on the machine you have*. This experiment does exactly
 * that, twice, on the same machine: the scripted composition sweep
 * runs once on the discrete-event simulator configured with the
 * host's own detected topology (the "simulate the machine you have"
 * leg) and once natively on real OCaml domains pinned to the host's
 * cores — same lock sources through the same MEMORY abstraction, same
 * per-thread workload loop (Workload.thread_body), same thread
 * placement (Topology.pick_cpus). Absolute numbers are incomparable
 * (simulated ns vs wall ns), so the deliverable is the *rank
 * correlation* (Spearman rho / Kendall tau-b, Clof_stats.Rank)
 * between the two backends' throughput orderings, per contention
 * level and overall on the HC selection score.
 *
 * Report encoding (BENCH_native.json, printed and re-gated by
 * bench_check): one "xval" experiment whose series are
 *   "<lock>"          native points (throughput = ops per wall us,
 *                     sim_ns = measured wall ns)
 *   "<lock>/sim"      the matching simulator points
 *   "xval/spearman",
 *   "xval/kendall"    no points; the coefficients travel in the
 *                     series' typed [meta] block (schema v2):
 *                     "nlocks", "threads" (comma-separated levels),
 *                     "overall" (the coefficient on HC scores) and
 *                     "t<N>" per contention level — an undefined
 *                     coefficient (all-tied input) is an absent key.
 *                     "xval/spearman" also carries the host facts
 *                     ("ncpus", "arch", "hierarchy", "pinned") and,
 *                     when a floor was declared, "min_corr".
 * The whole experiment is excluded from bench_check's regression join
 * (native wall clock on shared runners must never gate), mirroring
 * how the verify statistics are handled. *)

open Clof_topology
module RT = Clof_core.Runtime
module Sel = Clof_core.Selection
module W = Clof_workloads.Workload
module Rank = Clof_stats.Rank
module Native = Clof_native.Native

(* The same lock panel, instantiated over either memory backend. Both
   instantiations produce identical spec-name lists, which is what the
   series join relies on: names come from the lock modules themselves,
   and the functors are applied to backends over identical registry
   contents. *)
module Panel (M : Clof_atomics.Memory_intf.S) = struct
  module R = Clof_locks.Registry.Make (M)
  module G = Clof_core.Generator.Make (M)
  module H = Clof_baselines.Hmcs.Make (M)

  (* Quick mode keeps the spread that makes the ranking meaningful on
     a small host: all seven flat locks (the unfair TAS family
     collapses under contention on both backends — easy rank signal)
     plus four heterogeneous compositions and the HMCS baseline. *)
  let quick_compositions = [ "tkt-tkt"; "mcs-mcs"; "clh-tkt"; "hem-mcs" ]

  let specs ~quick ~ctr ~hierarchy ~with_hmcs =
    let basics = R.basics ~ctr in
    let flats = List.map RT.of_basic (R.all ~ctr) in
    let comps =
      if quick then
        List.filter_map (fun n -> G.of_name ~basics n) quick_compositions
      else G.generate ~basics ~depth:2
    in
    flats
    @ List.map (fun c -> RT.of_clof ~hierarchy c) comps
    @ (if with_hmcs then [ H.spec ~hierarchy () ] else [])
end

module SimPanel = Panel (Clof_sim.Sim_mem)
module NatPanel = Panel (Clof_atomics.Real_mem)

(* Contention levels: powers of two up to the machine, always
   including the full machine; quick mode keeps only the uncontended
   and fully-contended endpoints. *)
let thread_grid ~quick ncpus =
  if quick then List.sort_uniq compare [ 1; ncpus ]
  else begin
    let rec go n acc = if n >= ncpus then acc else go (2 * n) (n :: acc) in
    List.sort_uniq compare (ncpus :: go 1 [])
  end

(* (lock, (threads, throughput) list) projections of the two result
   sets — the common shape rank correlation and selection scoring
   consume. *)
let sim_tp results =
  List.map
    (fun (l, pts) ->
      (l, List.map (fun (n, (r : W.result)) -> (n, r.W.throughput)) pts))
    results

let native_tp results =
  List.map
    (fun (l, pts) ->
      ( l,
        List.map
          (fun (n, (r : Native.result)) -> (n, r.Native.throughput))
          pts ))
    results

let correlate xs ys = (Rank.spearman xs ys, Rank.kendall xs ys)

let exp_id = "xval"

let native_point ~threads (r : Native.result) =
  {
    Report.threads;
    throughput = r.Native.throughput;
    total_ops = r.Native.total_ops;
    sim_ns = r.Native.wall_ns;
    jain = Report.jain r.Native.per_thread;
    stats = r.Native.stats;
  }

let run ?(quick = false) ?duration_ms ?platform ?min_corr () =
  let platform =
    match platform with Some p -> p | None -> Clof_native.Hosttopo.detect ()
  in
  let topo = platform.Platform.topo in
  let ncpus = Topology.ncpus topo in
  let hierarchy = Clof_native.Hosttopo.hierarchy platform in
  let ctr = Scripted.ctr_for platform in
  let threadcounts = thread_grid ~quick ncpus in
  let duration_ms =
    match duration_ms with Some d -> d | None -> if quick then 40 else 250
  in
  let params =
    if quick then { W.leveldb with W.duration = 150_000 } else W.leveldb
  in
  (* HMCS requires every level to discriminate (>= 2 cohorts); on a
     degenerate host (one core, or no level grouping several multi-CPU
     cohorts) the leaf collapses to a single cohort and the baseline
     is skipped — CLoF compositions tolerate the degenerate level. *)
  let with_hmcs = Topology.ncohorts topo (List.hd hierarchy) > 1 in
  let specs_sim = SimPanel.specs ~quick ~ctr ~hierarchy ~with_hmcs in
  let specs_nat = NatPanel.specs ~quick ~ctr ~hierarchy ~with_hmcs in
  let names = List.map (fun s -> s.RT.s_name) specs_sim in
  if names <> List.map (fun s -> s.RT.s_name) specs_nat then
    invalid_arg "Xval.run: backend panels disagree on lock names";
  (* simulated leg: deterministic independent jobs, fanned out on the
     default executor like every other sweep *)
  let sim_results =
    List.combine names
      (Clof_exec.Exec.product_map
         (fun spec n -> (n, W.run ~platform ~nthreads:n ~spec params))
         specs_sim threadcounts)
  in
  (* native leg: strictly sequential — each run saturates the machine,
     so overlapping two would measure executor interference *)
  let native_results =
    List.combine names
      (List.map
         (fun spec ->
           List.map
             (fun n ->
               (n, Native.run ~platform ~duration_ms ~nthreads:n ~spec params))
             threadcounts)
         specs_nat)
  in
  let stp = sim_tp sim_results and ntp = native_tp native_results in
  let tp_at tps n =
    Array.of_list (List.map (fun (_, points) -> List.assoc n points) tps)
  in
  let per_thread =
    List.map
      (fun n ->
        let rho, tau = correlate (tp_at stp n) (tp_at ntp n) in
        (n, rho, tau))
      threadcounts
  in
  let overall =
    let score tps =
      Array.of_list
        (List.map
           (fun (_, points) -> Sel.score Sel.High_contention points)
           tps)
    in
    correlate (score stp) (score ntp)
  in
  let pinned =
    List.for_all
      (fun (_, pts) -> List.for_all (fun (_, r) -> r.Native.pinned) pts)
      native_results
  in
  let corr pick name extra =
    let coef key = function Some c -> [ (key, Report.F c) ] | None -> [] in
    {
      Report.lock = "xval/" ^ name;
      meta =
        Some
          ([
             ("nlocks", Report.I (List.length names));
             ( "threads",
               Report.S
                 (String.concat "," (List.map string_of_int threadcounts)) );
           ]
          @ coef "overall" (pick overall)
          @ List.concat_map
              (fun (n, rho, tau) ->
                coef (Printf.sprintf "t%d" n) (pick (rho, tau)))
              per_thread
          @ extra);
      points = [];
    }
  in
  let host =
    [
      ("ncpus", Report.I ncpus);
      ("arch", Report.S (Platform.arch_to_string platform.Platform.arch));
      ("hierarchy", Report.S (Topology.hierarchy_to_string hierarchy));
      ("pinned", Report.B pinned);
    ]
    @ match min_corr with Some f -> [ ("min_corr", Report.F f) ] | None -> []
  in
  let native =
    List.map
      (fun (lock, pts) ->
        {
          Report.lock;
          meta = None;
          points = List.map (fun (n, r) -> native_point ~threads:n r) pts;
        })
      native_results
  in
  let sim =
    List.map
      (fun (lock, pts) ->
        {
          Report.lock = lock ^ "/sim";
          meta = None;
          points = List.map Report.point_of_result pts;
        })
      sim_results
  in
  {
    Report.exp_id;
    platform = Topology.name topo;
    workload =
      Printf.sprintf "leveldb-xval/%s%s"
        (Topology.hierarchy_to_string hierarchy)
        (if pinned then "" else "/unpinned");
    series =
      (corr fst "spearman" host :: corr snd "kendall" [] :: native) @ sim;
  }

(* ---------- readings ---------- *)

let coefs (e : Report.experiment) name =
  Option.get (Report.find_series e ("xval/" ^ name))

let is_native (s : Report.series) =
  not
    (String.starts_with ~prefix:"xval/" s.Report.lock
    || String.ends_with ~suffix:"/sim" s.Report.lock)

(* the two orderings as selection series, native first *)
let selection (e : Report.experiment) =
  let tps (s : Report.series) =
    List.map
      (fun (p : Report.point) -> (p.Report.threads, p.Report.throughput))
      s.Report.points
  in
  List.map
    (fun (s : Report.series) ->
      let sim = Report.find_series e (s.Report.lock ^ "/sim") in
      ( { Sel.lock = s.Report.lock; points = tps s },
        {
          Sel.lock = s.Report.lock;
          points = Option.fold ~none:[] ~some:tps sim;
        } ))
    (List.filter is_native e.Report.series)
  |> List.split

(* ---------- gate ---------- *)

(* Only the overall Spearman coefficient gates, and only against a
   floor the run declared (--min-corr). Per-thread coefficients and
   absolute throughputs never gate. *)
let gate e =
  let s = coefs e "spearman" in
  let nlocks = Option.value ~default:0 (Report.meta_int s "nlocks") in
  match (Report.meta_float s "min_corr", Report.meta_float s "overall") with
  | None, _ -> []
  | Some _, None ->
      [
        Printf.sprintf
          "overall rank correlation undefined (all-tied scores over %d \
           locks)"
          nlocks;
      ]
  | Some floor, Some rho when rho < floor ->
      [
        Printf.sprintf
          "overall spearman %.3f below floor %.3f (%d locks, %d contention \
           levels)"
          rho floor nlocks
          (List.length (Report.meta_list s "threads"));
      ]
  | Some _, Some _ -> []

(* ---------- rendering ---------- *)

let pp_coef ppf = function
  | Some c -> Format.fprintf ppf "%+.3f" c
  | None -> Format.pp_print_string ppf "  n/a"

let pp ppf (e : Report.experiment) =
  let rho = coefs e "spearman" and tau = coefs e "kendall" in
  let threads = List.map int_of_string (Report.meta_list rho "threads") in
  Format.pp_print_string ppf
    (Render.section "xval: simulated vs native lock ordering on this machine");
  Format.fprintf ppf "host: %s (%d CPUs, %s), hierarchy %s, threads %s, %s@."
    e.Report.platform
    (Option.value ~default:0 (Report.meta_int rho "ncpus"))
    (Option.value ~default:"?" (Report.meta_str rho "arch"))
    (Option.value ~default:"?" (Report.meta_str rho "hierarchy"))
    (String.concat "," (List.map string_of_int threads))
    (if Report.meta_bool rho "pinned" = Some true then "threads pinned"
     else "threads NOT pinned (no affinity support here)");
  (* side-by-side throughputs: native is ops per wall us, sim is ops
     per simulated us — different clocks, hence rank-only *)
  let header =
    "lock"
    :: List.concat_map
         (fun n -> [ Printf.sprintf "nat/%dT" n; Printf.sprintf "sim/%dT" n ])
         threads
  in
  let native, sim = selection e in
  let rows =
    List.map2
      (fun (nat : Sel.series) (sim : Sel.series) ->
        ( nat.Sel.lock,
          List.concat_map
            (fun n ->
              [ List.assoc n nat.Sel.points; List.assoc n sim.Sel.points ])
            threads ))
      native sim
  in
  Format.pp_print_string ppf (Render.table ~header ~rows);
  let coef s key = Report.meta_float s key in
  List.iter
    (fun n ->
      let key = Printf.sprintf "t%d" n in
      Format.fprintf ppf "%3d threads: spearman %a  kendall %a@." n pp_coef
        (coef rho key) pp_coef (coef tau key))
    threads;
  Format.fprintf ppf "HC-score ordering (%d locks): spearman %a  kendall %a@."
    (Option.value ~default:0 (Report.meta_int rho "nlocks"))
    pp_coef (coef rho "overall") pp_coef (coef tau "overall");
  let name_of = function Some s -> s.Sel.lock | None -> "-" in
  let nat_best = name_of (Sel.best Sel.High_contention native)
  and sim_best = name_of (Sel.best Sel.High_contention sim) in
  Format.fprintf ppf "HC-best: native %s, simulated %s%s@." nat_best sim_best
    (if nat_best = sim_best then " (agree)" else "")
