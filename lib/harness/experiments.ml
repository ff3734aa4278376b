open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module Cna = Clof_baselines.Cna.Make (M)
module Shfl = Clof_baselines.Shfllock.Make (M)
module Cohort = Clof_baselines.Cohort.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module Sel = Clof_core.Selection
module Exec = Clof_exec.Exec

let quick = ref false
let set_quick b = quick := b

let leveldb () =
  if !quick then { W.leveldb with W.duration = 150_000 } else W.leveldb

let kyoto () =
  if !quick then { W.kyoto with W.duration = 300_000 } else W.kyoto

let grid p =
  let g = Scripted.thread_grid p in
  if !quick then
    List.filter (fun n -> n = 1 || n = 8 || n = 32 || n >= 95) g
  else g

(* ---------- memoized building blocks ---------- *)

let heatmaps : (string, Heatmap.t) Hashtbl.t = Hashtbl.create 4

let heatmap_of p =
  let key = Topology.name p.Platform.topo in
  match Hashtbl.find_opt heatmaps key with
  | Some h -> h
  | None ->
      let stride =
        (if p.Platform.arch = Platform.X86 then 3 else 4)
        * if !quick then 2 else 1
      in
      let h = Heatmap.measure ~stride ~platform:p () in
      Hashtbl.add heatmaps key h;
      h

let sweeps : (string * int, Scripted.t) Hashtbl.t = Hashtbl.create 8

let sweep_of p depth =
  let key = (Topology.name p.Platform.topo, depth) in
  match Hashtbl.find_opt sweeps key with
  | Some s -> s
  | None ->
      let s =
        Scripted.run ~params:(leveldb ()) ~threadcounts:(grid p) ~platform:p
          ~depth ()
      in
      Hashtbl.add sweeps key s;
      s

(* Sweep a whole lock panel as one flat (spec x threadcount) batch of
   parallel jobs — the common shape of the figure experiments. *)
let sweep_series ~platform ~params specs =
  let rows =
    Exec.product_map
      (fun spec n ->
        (n, (W.run ~platform ~nthreads:n ~spec params).W.throughput))
      specs (grid platform)
  in
  List.map2
    (fun spec points -> { Sel.lock = spec.RT.s_name; points })
    specs rows

let series_table ppf ~platform (series : Sel.series list) =
  let header =
    "lock" :: List.map string_of_int (grid platform)
  in
  let rows = List.map (fun s -> (s.Sel.lock, List.map snd s.points)) series in
  Format.pp_print_string ppf (Render.table ~header ~rows)

let lc_best_name p depth = (Scripted.lc_best (sweep_of p depth)).Sel.lock

let clof_spec ?h p depth =
  let name = lc_best_name p depth in
  let label =
    Printf.sprintf "clof<%d>-%s (%s)" depth
      (Platform.arch_to_string p.Platform.arch)
      name
  in
  RT.rename label (Scripted.spec_of_name ~platform:p ~depth ?h name)

(* ---------- experiments ---------- *)

let table1 ppf () =
  Format.pp_print_string ppf
    (Render.section "Table 1: key-aspect coverage of NUMA-aware locks");
  Clof_core.Aspects.pp ppf ()

let fig1 ppf () =
  List.iter
    (fun p ->
      let h = heatmap_of p in
      Format.pp_print_string ppf
        (Render.section
           (Printf.sprintf
              "Figure 1%s: ping-pong heatmap, %s (darker = faster pair)"
              (if p.Platform.arch = Platform.X86 then "a" else "b")
              (Topology.name p.Platform.topo)));
      Format.pp_print_string ppf (Heatmap.render h);
      Format.fprintf ppf "inferred hierarchy: %s (paper: %s)@."
        (Topology.hierarchy_to_string (Heatmap.infer_hierarchy h))
        (Topology.hierarchy_to_string (Platform.hier4 p)))
    [ Platform.x86; Platform.armv8 ]

let table2 ppf () =
  Format.pp_print_string ppf
    (Render.section "Table 2: cohort speedups over the system cohort");
  List.iter
    (fun p ->
      let h = heatmap_of p in
      let measured = Heatmap.speedups h in
      let paper = Heatmap.paper_speedups p in
      Format.fprintf ppf "%s:@." (Topology.name p.Platform.topo);
      List.iter
        (fun (prox, reference) ->
          match List.assoc_opt prox measured with
          | Some m when prox <> Level.Same_cpu ->
              Format.fprintf ppf "  %-14s measured %6.2f   paper %6.2f@."
                (Level.proximity_to_string prox)
                m reference
          | Some _ | None -> ())
        paper)
    [ Platform.x86; Platform.armv8 ]

let fig2 ppf () =
  let p = Platform.x86 in
  Format.pp_print_string ppf
    (Render.section
       "Figure 2: LevelDB on x86 - HMCS depths and CLoF<4> vs MCS");
  let specs =
    [
      RT.of_basic R.mcs;
      Hmcs.spec ~hierarchy:(Platform.hier2 p) ();
      RT.rename "hmcs<3>" (Hmcs.spec ~hierarchy:(Platform.hier3_hmcs_orig p) ());
      RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy:(Platform.hier4 p) ());
      clof_spec p 4;
    ]
  in
  series_table ppf ~platform:p
    (sweep_series ~platform:p ~params:(leveldb ()) specs)

(* Figure 3: basic locks on isolated cohorts at maximum contention, one
   thread per child cohort (one per hyperthread at the core level). *)
let cohort_cpus topo level =
  let cpus =
    Topology.cpus_of_cohort topo level (Topology.cohort_of topo level 0)
  in
  let child = function
    | Level.Core -> None
    | Level.Cache_group -> Some Level.Core
    | Level.Numa_node -> Some Level.Cache_group
    | Level.Package -> Some Level.Numa_node
    | Level.System -> Some Level.Package
  in
  match child level with
  | None -> Array.of_list cpus
  | Some c ->
      let seen = Hashtbl.create 8 in
      List.filter
        (fun cpu ->
          let id = Topology.cohort_of topo c cpu in
          if Hashtbl.mem seen id then false
          else begin
            Hashtbl.add seen id ();
            true
          end)
        cpus
      |> Array.of_list

let fig3 ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Figure 3: NUMA-oblivious locks per cohort at max contention \
        (iter/us)");
  let params = { (leveldb ()) with W.noncs_work = 300 } in
  List.iter
    (fun (p, levels) ->
      let locks =
        [
          R.ticket;
          R.mcs;
          R.clh;
          R.hemlock ~label:"hem" ~ctr:false ();
          R.hemlock ~label:"hem-ctr" ~ctr:true ();
        ]
      in
      Format.fprintf ppf "%s:@." (Topology.name p.Platform.topo);
      let header =
        "cohort" :: List.map Clof_locks.Lock_intf.name locks
      in
      let cells =
        Exec.product_map
          (fun level lk ->
            let cpus = cohort_cpus p.Platform.topo level in
            (W.run_on_cpus ~check:false ~platform:p ~cpus
               ~spec:(RT.of_basic lk) params)
              .W.throughput)
          levels locks
      in
      let rows =
        List.map2
          (fun level cells ->
            ( Printf.sprintf "%s(%dT)" (Level.abbrev level)
                (Array.length (cohort_cpus p.Platform.topo level)),
              cells ))
          levels cells
      in
      Format.pp_print_string ppf (Render.table ~header ~rows))
    [
      ( Platform.x86,
        [ Level.Core; Level.Cache_group; Level.Numa_node; Level.System ] );
      ( Platform.armv8,
        [ Level.Cache_group; Level.Numa_node; Level.Package; Level.System ]
      );
    ]

let fig4 ppf () =
  let p = Platform.armv8 in
  Format.pp_print_string ppf
    (Render.section
       "Figure 4: LevelDB on Armv8 - CLoF<4> vs state-of-the-art");
  let specs =
    [
      clof_spec p 4;
      RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy:(Platform.hier4 p) ());
      RT.of_basic R.mcs;
      Cna.spec ();
      Shfl.spec ();
    ]
  in
  series_table ppf ~platform:p
    (sweep_series ~platform:p ~params:(leveldb ()) specs)

let fig9 ppf p depth tag =
  let s = sweep_of p depth in
  let hc = Scripted.hc_best s
  and lc = Scripted.lc_best s
  and worst = Scripted.worst s in
  Format.pp_print_string ppf
    (Render.section
       (Printf.sprintf
          "Figure 9%s: all %d CLoF locks, %d levels, %s (hierarchy %s)" tag
          (List.length s.Scripted.series)
          depth
          (Topology.name p.Platform.topo)
          (Topology.hierarchy_to_string (Platform.hierarchy_of_depth p depth))));
  let beam_at i =
    let vals =
      List.map (fun srs -> snd (List.nth srs.Sel.points i)) s.Scripted.series
    in
    let n = float_of_int (List.length vals) in
    ( List.fold_left min infinity vals,
      List.fold_left ( +. ) 0.0 vals /. n,
      List.fold_left max 0.0 vals )
  in
  let npts = List.length s.Scripted.threadcounts in
  let named label srs = (label ^ " " ^ srs.Sel.lock, List.map snd srs.Sel.points) in
  let rows =
    [
      named "HC-best" hc;
      named "LC-best" lc;
      named "worst" worst;
      (s.Scripted.hmcs.Sel.lock, List.map snd s.Scripted.hmcs.Sel.points);
      ("others(min)", List.init npts (fun i -> let a, _, _ = beam_at i in a));
      ("others(mean)", List.init npts (fun i -> let _, a, _ = beam_at i in a));
      ("others(max)", List.init npts (fun i -> let _, _, a = beam_at i in a));
    ]
  in
  let header =
    "lock" :: List.map string_of_int s.Scripted.threadcounts
  in
  Format.pp_print_string ppf (Render.table ~header ~rows)

let fig10 ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Figure 10: LC-best CLoF locks vs state of the art, both \
        platforms, LevelDB + Kyoto Cabinet");
  (* cross-platform: each platform's winners also run on the other *)
  let winners =
    List.concat_map
      (fun p -> [ clof_spec p 3; clof_spec p 4 ])
      [ Platform.x86; Platform.armv8 ]
  in
  List.iter
    (fun (wname, params) ->
      List.iter
        (fun p ->
          Format.fprintf ppf "%s - %s:@." wname
            (Topology.name p.Platform.topo);
          let specs =
            winners
            @ [
                RT.rename "hmcs<4>"
                  (Hmcs.spec ~hierarchy:(Platform.hier4 p) ());
                Cna.spec ();
                Shfl.spec ();
              ]
          in
          series_table ppf ~platform:p
            (sweep_series ~platform:p ~params specs))
        [ Platform.x86; Platform.armv8 ])
    [ ("LevelDB", leveldb ()); ("Kyoto Cabinet", kyoto ()) ]

let verify ppf () = Verifybench.pp ppf (Verifybench.run ~quick:!quick ())

let verify_scaling ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Section 4.2.3: checker effort vs composition depth (paper: 1s / \
        3min / >12h for GenMC), DPOR vs the naive-DFS oracle");
  (* the oracle column gets a tighter budget: the whole point of the
     comparison is that it truncates where DPOR completes *)
  let dpor = Clof_verify.Scenarios.scaling ~max_depth:3 () in
  let naive =
    Clof_verify.Scenarios.scaling ~max_depth:3
      ~strategy:Clof_verify.Checker.Naive ~executions:50_000 ()
  in
  List.iter
    (fun (depth, r) ->
      Format.fprintf ppf "depth %d: %a@." depth Clof_verify.Checker.pp_report
        r;
      match List.assoc_opt depth naive with
      | Some rn ->
          Format.fprintf ppf "         %a@." Clof_verify.Checker.pp_report
            { rn with Clof_verify.Checker.name = "  vs naive" }
      | None -> ())
    dpor

let jain = Report.jain

let fairness ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Section 5.2.3: fairness (Jain index of per-thread ops; 1.0 = \
        perfectly fair)");
  List.iter
    (fun p ->
      let nthreads = if p.Platform.arch = Platform.X86 then 64 else 96 in
      Format.fprintf ppf "%s, %d threads:@."
        (Topology.name p.Platform.topo)
        nthreads;
      let specs =
        [
          clof_spec p 4;
          RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy:(Platform.hier4 p) ());
          Cna.spec ();
          RT.of_basic R.mcs;
          Cohort.c_bo_mcs;
        ]
      in
      List.iter
        (fun r ->
          Format.fprintf ppf "  %-28s jain=%.4f (min %d, max %d ops)@."
            r.W.lock (jain r.W.per_thread)
            (Array.fold_left min max_int r.W.per_thread)
            (Array.fold_left max 0 r.W.per_thread))
        (Exec.map
           (fun spec -> W.run ~platform:p ~nthreads ~spec (leveldb ()))
           specs))
    [ Platform.x86; Platform.armv8 ]

let ablate_h ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Ablation: keep_local threshold H (default 128) - Armv8, LC-best \
        CLoF<4>");
  let p = Platform.armv8 in
  let name = lc_best_name p 4 in
  let threads = [ 8; 32; 127 ] in
  let hs = [ 1; 8; 32; 128; 512; 4096 ] in
  let cells =
    Exec.product_map
      (fun h n ->
        let spec = Scripted.spec_of_name ~platform:p ~depth:4 ~h name in
        (W.run ~platform:p ~nthreads:n ~spec (leveldb ())).W.throughput)
      hs threads
  in
  let rows =
    List.map2 (fun h cells -> (Printf.sprintf "H=%d" h, cells)) hs cells
  in
  let header = name :: List.map string_of_int threads in
  Format.pp_print_string ppf (Render.table ~header ~rows)

let ablate_levels ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Ablation: hierarchy depth with a homogeneous CLH composition - \
        Armv8");
  let p = Platform.armv8 in
  let threads = [ 1; 8; 32; 127 ] in
  let spec_of depth =
    if depth = 1 then RT.of_basic R.clh
    else
      RT.of_clof
        ~hierarchy:(Platform.hierarchy_of_depth p depth)
        (G.build (List.init depth (fun _ -> R.clh)))
  in
  let depths = [ 1; 2; 3; 4 ] in
  let cells =
    Exec.product_map
      (fun depth n ->
        (W.run ~platform:p ~nthreads:n ~spec:(spec_of depth) (leveldb ()))
          .W.throughput)
      depths threads
  in
  let rows =
    List.map2
      (fun depth cells -> (Printf.sprintf "clof<%d> clh" depth, cells))
      depths cells
  in
  let header = "depth" :: List.map string_of_int threads in
  Format.pp_print_string ppf (Render.table ~header ~rows)

let locality ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Locality: cache-line transfers by distance class (the \
        keep_local mechanism observed directly, 95T x86 LevelDB)");
  let p = Platform.x86 in
  List.iter
    (fun r ->
      let total =
        max 1 (List.fold_left (fun a (_, n) -> a + n) 0 r.W.transfers)
      in
      Format.fprintf ppf "%-26s" r.W.lock;
      List.iter
        (fun (prox, n) ->
          if prox <> Level.Same_cpu then
            Format.fprintf ppf "  %s %4.1f%%" (Level.abbrev_of_prox prox)
              (100.0 *. float_of_int n /. float_of_int total))
        r.W.transfers;
      Format.fprintf ppf "   (%.3f ops/us)@." r.W.throughput)
    (Exec.map
       (fun spec -> W.run ~platform:p ~nthreads:95 ~spec (leveldb ()))
       [
         RT.of_basic R.mcs;
         RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy:(Platform.hier4 p) ());
         Cna.spec ();
         clof_spec p 4;
       ])

let fastpath ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Extension (paper 6): TAS fast path for CLoF - x86 LevelDB");
  let p = Platform.x86 in
  let name = lc_best_name p 4 in
  let basics = R.basics ~ctr:(Scripted.ctr_for p) in
  let packed = Option.get (G.of_name ~basics name) in
  let hierarchy = Platform.hier4 p in
  let plain = RT.of_clof ~hierarchy packed in
  let fp =
    let (module L) = packed in
    let module F = Clof_core.Fastpath.Make (M) (L) in
    RT.of_clof ~hierarchy (module F : Clof_core.Clof_intf.S)
  in
  let threads = [ 1; 2; 4; 8; 32; 95 ] in
  let specs = [ plain; fp ] in
  let cells =
    Exec.product_map
      (fun spec n ->
        (W.run ~platform:p ~nthreads:n ~spec (leveldb ())).W.throughput)
      specs threads
  in
  let rows =
    List.map2 (fun spec cells -> (spec.RT.s_name, cells)) specs cells
  in
  let header = "lock" :: List.map string_of_int threads in
  Format.pp_print_string ppf (Render.table ~header ~rows)

let cohorts ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Lock cohorting baselines (2-level compositions, Section 2.3)");
  List.iter
    (fun p ->
      Format.fprintf ppf "%s:@." (Topology.name p.Platform.topo);
      series_table ppf ~platform:p
        (sweep_series ~platform:p ~params:(leveldb ())
           (Cohort.all @ [ RT.of_basic R.mcs ])))
    [ Platform.x86 ]

let stats_exp ppf () =
  Format.pp_print_string ppf
    (Render.section
       "Lock observability: per-level handover locality, keep_local and \
        acquire latency (x86 LevelDB, 95T)");
  let p = Platform.x86 in
  let module S = Clof_stats.Stats in
  List.iter
    (fun r ->
      let s = r.W.stats in
      Format.fprintf ppf
        "%-26s acq %8d   fast-path %7d   contended %8d   spins %8d@."
        r.W.lock (S.acquisitions s) (S.fastpath s) (S.contended s)
        (S.spins s);
      for lvl = 0 to S.levels_used s - 1 do
        let local = S.local_pass s ~level:lvl
        and remote = S.remote_pass s ~level:lvl in
        if local + remote > 0 then
          Format.fprintf ppf
            "  level %d: %8d local / %8d remote  (%5.1f%% local)  \
             keep_local %8d  H-exhausted %6d@."
            lvl local remote
            (100.0 *. float_of_int local /. float_of_int (local + remote))
            (S.keep_local_kept s ~level:lvl)
            (S.h_exhausted s ~level:lvl)
      done;
      match (S.percentile s 50.0, S.percentile s 99.0) with
      | Some p50, Some p99 ->
          Format.fprintf ppf
            "  acquire latency: p50 in [%d ns bucket], p99 in [%d ns \
             bucket], %d samples@."
            p50 p99 (S.latency_samples s)
      | _ -> ())
    (Exec.map
       (fun spec -> W.run ~platform:p ~nthreads:95 ~spec (leveldb ()))
       [
         RT.of_basic R.mcs;
         RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy:(Platform.hier4 p) ());
         Cna.spec ();
         clof_spec p 4;
       ])

let scripted_exp ppf () =
  let p = Platform.x86 in
  let s = sweep_of p 2 in
  Format.pp_print_string ppf
    (Render.section
       (Printf.sprintf
          "Scripted sweep: all %d 2-level CLoF locks on %s (Section 4.3)"
          (List.length s.Scripted.series)
          (Topology.name p.Platform.topo)));
  series_table ppf ~platform:p (s.Scripted.series @ [ s.Scripted.hmcs ]);
  Format.fprintf ppf "HC-best: %s@." (Scripted.hc_best s).Sel.lock;
  Format.fprintf ppf "LC-best: %s@." (Scripted.lc_best s).Sel.lock;
  Format.fprintf ppf "worst:   %s@." (Scripted.worst s).Sel.lock

(* Wall-clock engine speed, not simulated time: excluded from the
   determinism diffs, tracked as a trajectory via BENCH_sim.json. *)
let sim_throughput ppf () = Simbench.pp ppf (Simbench.run ~quick:!quick ())

let discover ppf () =
  Format.pp_print_string ppf
    (Render.section "Hierarchy discovery (Figure 5, first step)");
  List.iter
    (fun p ->
      let h = heatmap_of p in
      Format.fprintf ppf "%s: inferred %s@."
        (Topology.name p.Platform.topo)
        (Topology.hierarchy_to_string (Heatmap.infer_hierarchy h)))
    [ Platform.x86; Platform.armv8 ]

(* The only experiment whose results depend on the machine running it:
   both legs execute on (a model of) the host, not a paper preset. *)
let xval_exp ppf () = Xval.pp ppf (Xval.run ~quick:!quick ())
let adapt_exp ppf () = Adaptbench.pp ppf (Adaptbench.run ~quick:!quick ())
let faults ppf () = Faultbench.pp ppf (Faultbench.run ~quick:!quick ())

(* The single source of truth for the textual experiments: id,
   description, driver. [ids] and [run] derive from it, so an id
   cannot exist in the index without a driver or vice versa. *)
let drivers : (string * string * (Format.formatter -> unit)) list =
  [
    ( "table1",
      "aspect coverage of NUMA-aware locks (Table 1)",
      fun ppf -> table1 ppf () );
    ( "fig1",
      "ping-pong heatmaps of both platforms (Figure 1)",
      fun ppf -> fig1 ppf () );
    ( "table2",
      "cohort speedups vs paper values (Table 2)",
      fun ppf -> table2 ppf () );
    ( "fig2",
      "LevelDB x86: HMCS depths + CLoF<4> (Figure 2)",
      fun ppf -> fig2 ppf () );
    ( "fig3",
      "basic locks per cohort at max contention (Figure 3)",
      fun ppf -> fig3 ppf () );
    ( "fig4",
      "LevelDB Armv8: CLoF<4> vs SOTA (Figure 4)",
      fun ppf -> fig4 ppf () );
    ( "fig9a",
      "all 4-level CLoF locks, x86 (Figure 9a)",
      fun ppf -> fig9 ppf Platform.x86 4 "a" );
    ( "fig9b",
      "all 4-level CLoF locks, Armv8 (Figure 9b)",
      fun ppf -> fig9 ppf Platform.armv8 4 "b" );
    ( "fig9c",
      "all 3-level CLoF locks, x86 (Figure 9c)",
      fun ppf -> fig9 ppf Platform.x86 3 "c" );
    ( "fig9d",
      "all 3-level CLoF locks, Armv8 (Figure 9d)",
      fun ppf -> fig9 ppf Platform.armv8 3 "d" );
    ( "fig10",
      "LC-best CLoF vs SOTA, LevelDB+Kyoto, both platforms (Figure 10)",
      fun ppf -> fig10 ppf () );
    ( "verify",
      "model-checked base/induction steps + A4 exhibits (4.2)",
      fun ppf -> verify ppf () );
    ( "verify_scaling",
      "checker effort vs depth (3.3/4.2.3)",
      fun ppf -> verify_scaling ppf () );
    ( "fairness",
      "per-thread fairness, CLoF vs HMCS (5.2.3)",
      fun ppf -> fairness ppf () );
    ( "ablate_h",
      "keep_local threshold sweep (ablation)",
      fun ppf -> ablate_h ppf () );
    ( "ablate_levels",
      "hierarchy depth sweep (ablation)",
      fun ppf -> ablate_levels ppf () );
    ( "cohorts",
      "classic lock-cohorting compositions (2.3)",
      fun ppf -> cohorts ppf () );
    ( "locality",
      "cache-line transfer distances per lock (keep_local observed)",
      fun ppf -> locality ppf () );
    ( "stats",
      "per-level lock counters: handover locality, keep_local, latency",
      fun ppf -> stats_exp ppf () );
    ( "fastpath",
      "TAS fast-path extension ablation (paper 6)",
      fun ppf -> fastpath ppf () );
    ( "adapt",
      "contention-adaptive composition on the phase-shift workload",
      fun ppf -> adapt_exp ppf () );
    ( "faults",
      "stall/crash injection matrix with recovery classification",
      fun ppf -> faults ppf () );
    ( "scripted",
      "2-level scripted sweep with HC/LC ranking (4.3)",
      fun ppf -> scripted_exp ppf () );
    ( "sim-throughput",
      "engine events/sec + allocs/event (wall clock)",
      fun ppf -> sim_throughput ppf () );
    ( "discover",
      "automated hierarchy inference (Figure 5)",
      fun ppf -> discover ppf () );
    ( "xval",
      "sim-vs-native rank correlation on this host (native domains)",
      fun ppf -> xval_exp ppf () );
  ]

let ids = List.map (fun (id, doc, _) -> (id, doc)) drivers

let run ppf id =
  match List.find_opt (fun (id', _, _) -> id' = id) drivers with
  | Some (_, _, f) ->
      f ppf;
      true
  | None -> false

let run_all ppf = List.iter (fun (_, _, f) -> f ppf) drivers
