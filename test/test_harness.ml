open Clof_topology
module H = Clof_harness.Heatmap
module Render = Clof_harness.Render
module Scripted = Clof_harness.Scripted
module Sel = Clof_core.Selection

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- render ---------- *)

let test_table_render () =
  let s =
    Render.table ~header:[ "lock"; "1"; "8" ]
      ~rows:[ ("mcs", [ 1.5; 0.25 ]); ("a-very-long-name", [ 0.0; 2.0 ]) ]
  in
  check_bool "header present" true
    (String.length s > 0 && String.sub s 0 4 = "lock");
  check_bool "contains value" true
    (let re = "1.500" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_csv_render () =
  let s =
    Render.csv ~header:[ "lock"; "1" ] ~rows:[ ("mcs", [ 0.5 ]) ]
  in
  Alcotest.(check string) "csv" "lock,1\nmcs,0.5\n" s

let test_heatmap_render () =
  let s = Render.heatmap (fun i j -> float_of_int (i + j + 1)) ~n:8 in
  check_int "8 lines" 8
    (List.length (String.split_on_char '\n' (String.trim s)))

let test_section () =
  Alcotest.(check string) "banner" "\nhi\n==\n" (Render.section "hi")

(* ---------- heatmap discovery on small machines ---------- *)

let test_heatmap_tiny () =
  let h = H.measure ~duration:60_000 ~platform:Platform.tiny () in
  let sp = H.speedups h in
  check_bool "system class present" true
    (List.mem_assoc Level.Same_system sp);
  List.iter
    (fun (p, s) ->
      if p <> Level.Same_cpu then
        check_bool
          (Level.proximity_to_string p ^ " >= system")
          true (s >= 0.99))
    sp

let test_infer_presets () =
  (* the headline: discovery reproduces the paper's 4-level hierarchies *)
  List.iter
    (fun (p, stride) ->
      let h = H.measure ~duration:60_000 ~stride ~platform:p () in
      Alcotest.(check string)
        ("inferred hierarchy " ^ Topology.name p.Platform.topo)
        (Topology.hierarchy_to_string (Platform.hier4 p))
        (Topology.hierarchy_to_string (H.infer_hierarchy h)))
    [ (Platform.x86, 5); (Platform.armv8, 7) ]

let test_paper_speedups_table () =
  check_int "x86 rows" 5 (List.length (H.paper_speedups Platform.x86));
  check_int "arm rows" 4 (List.length (H.paper_speedups Platform.armv8))

(* Regression: a stride that aliases with the cohort sizes leaves whole
   proximity classes with no measured pair, and the backfill pass used
   to skip diagonal (i, i) candidates, so Same_cpu (and on tiny, any
   same-core pair: stride 6 only samples CPUs 0, 6 and 12, which share
   nothing below the NUMA level) could end up without samples. Every
   class that exists on the machine must get a mean. *)
let test_heatmap_stride_aliasing () =
  let h =
    H.measure ~duration:40_000 ~stride:6 ~platform:Platform.tiny ()
  in
  let means = H.by_proximity h in
  List.iter
    (fun p ->
      check_bool (Level.proximity_to_string p ^ " sampled") true
        (List.mem_assoc p means))
    [
      Level.Same_cpu;
      Level.Same_core;
      Level.Same_cache;
      Level.Same_numa;
      Level.Same_system;
    ]

(* ---------- scripted benchmark ---------- *)

let test_scripted_tiny () =
  let s =
    Scripted.run
      ~params:
        {
          Clof_workloads.Workload.duration = 60_000;
          cs_reads = 1;
          cs_writes = 1;
          cs_work = 50;
          noncs_work = 300;
        }
      ~threadcounts:[ 2; 8 ] ~platform:Platform.tiny ~depth:2 ()
  in
  check_int "16 compositions" 16 (List.length s.Scripted.series);
  let hc = Scripted.hc_best s and lc = Scripted.lc_best s in
  check_bool "bests are ranked members" true
    (List.exists (fun x -> x.Sel.lock = hc.Sel.lock) s.Scripted.series
    && List.exists (fun x -> x.Sel.lock = lc.Sel.lock) s.Scripted.series);
  let w = Scripted.worst s in
  check_bool "worst scores below best" true
    (Sel.score Sel.High_contention w.Sel.points
    <= Sel.score Sel.High_contention hc.Sel.points)

let test_spec_of_name () =
  let spec =
    Scripted.spec_of_name ~platform:Platform.tiny ~depth:2 "tkt-mcs"
  in
  Alcotest.(check string) "name" "tkt-mcs" spec.Clof_core.Runtime.s_name;
  check_bool "unknown rejected" true
    (try
       ignore
         (Scripted.spec_of_name ~platform:Platform.tiny ~depth:2 "xxx-yyy");
       false
     with Invalid_argument _ -> true)

let test_grids () =
  check_int "x86 max" 95
    (List.fold_left max 0 (Scripted.thread_grid Platform.x86));
  check_int "arm max" 127
    (List.fold_left max 0 (Scripted.thread_grid Platform.armv8));
  check_bool "ctr on x86 only" true
    (Scripted.ctr_for Platform.x86 && not (Scripted.ctr_for Platform.armv8))

(* a platform smaller than the paper's preset grids: 8 CPUs, two 4-CPU
   NUMA nodes of two 2-CPU cache groups each *)
let small8 =
  {
    Platform.topo =
      Topology.create ~name:"small-8" ~ncpus:8 ~core_of:Fun.id
        ~cache_of:(fun i -> i / 2)
        ~numa_of:(fun i -> i / 4)
        ~pkg_of:(fun i -> i / 4);
    arch = Platform.X86;
  }

(* Regression: the grid used to hard-code the presets' 95/127-thread
   points, so any platform with fewer CPUs crashed Topology.pick_cpus.
   Clamped grids must stay within ncpus, keep the paper's ncpus-1
   point, and be duplicate-free. *)
let test_grid_clamped_to_platform () =
  List.iter
    (fun p ->
      let n = Topology.ncpus p.Platform.topo in
      let g = Scripted.thread_grid p in
      check_bool (Printf.sprintf "nonempty (%d cpus)" n) true (g <> []);
      List.iter
        (fun t ->
          check_bool (Printf.sprintf "%d <= %d cpus" t n) true (t <= n);
          check_bool (Printf.sprintf "%d >= 1" t) true (t >= 1))
        g;
      check_bool "ncpus-1 present" true (List.mem (max 1 (n - 1)) g);
      check_bool "sorted, no duplicates" true
        (g = List.sort_uniq compare g))
    [ small8; Platform.tiny; Platform.tiny_arm; Platform.x86; Platform.armv8 ];
  (* preset grids keep the paper's exact contention points *)
  check_bool "x86 preset grid" true
    (Scripted.thread_grid Platform.x86 = [ 1; 4; 8; 16; 24; 32; 48; 64; 95 ]);
  check_bool "armv8 preset grid" true
    (Scripted.thread_grid Platform.armv8
    = [ 1; 4; 8; 16; 24; 32; 48; 64; 96; 127 ])

(* ISSUE acceptance: a full scripted sweep on a custom 8-CPU platform
   must succeed (it used to raise from pick_cpus at 95 threads). *)
let test_scripted_small_platform () =
  let s =
    Scripted.run
      ~params:
        {
          Clof_workloads.Workload.duration = 40_000;
          cs_reads = 1;
          cs_writes = 1;
          cs_work = 50;
          noncs_work = 300;
        }
      ~platform:small8 ~depth:2 ()
  in
  check_bool "default grid used and clamped" true
    (s.Scripted.threadcounts = Scripted.thread_grid small8);
  check_int "16 compositions" 16 (List.length s.Scripted.series);
  List.iter
    (fun srs ->
      check_int
        (srs.Sel.lock ^ " has every grid point")
        (List.length s.Scripted.threadcounts)
        (List.length srs.Sel.points))
    s.Scripted.series

(* The (composition x threadcount) matrix is one parallel batch; the
   series must not depend on the job count. *)
let test_scripted_parallel_deterministic () =
  let module Exec = Clof_exec.Exec in
  let run () =
    Scripted.run
      ~params:
        {
          Clof_workloads.Workload.duration = 40_000;
          cs_reads = 1;
          cs_writes = 1;
          cs_work = 50;
          noncs_work = 300;
        }
      ~threadcounts:[ 2; 8 ] ~platform:Platform.tiny ~depth:2 ()
  in
  Exec.set_jobs 1;
  let seq = run () in
  Exec.set_jobs 3;
  let par = run () in
  Exec.set_jobs 1;
  check_bool "series identical under -j 3" true
    (seq.Scripted.series = par.Scripted.series);
  check_bool "hmcs identical under -j 3" true
    (seq.Scripted.hmcs = par.Scripted.hmcs)

(* ---------- experiments plumbing ---------- *)

let test_experiment_ids () =
  let ids = List.map fst Clof_harness.Experiments.ids in
  List.iter
    (fun required ->
      check_bool ("has " ^ required) true (List.mem required ids))
    [
      "table1"; "fig1"; "table2"; "fig2"; "fig3"; "fig4"; "fig9a"; "fig9b";
      "fig9c"; "fig9d"; "fig10"; "verify"; "verify_scaling"; "fairness";
      "xval";
    ]

let test_experiment_dispatch () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  check_bool "table1 runs" true (Clof_harness.Experiments.run ppf "table1");
  Format.pp_print_flush ppf ();
  check_bool "produced output" true (Buffer.length buf > 100);
  check_bool "unknown id" false (Clof_harness.Experiments.run ppf "nope")

(* ---------- experiment registry ---------- *)

module Reg = Clof_harness.Registry

let test_registry_entries () =
  let ids = List.map (fun (e : Reg.entry) -> e.Reg.id) Reg.all in
  check_bool "ids unique" true
    (List.length ids = List.length (List.sort_uniq compare ids));
  List.iter
    (fun required -> check_bool ("has " ^ required) true (List.mem required ids))
    [ "report"; "sim"; "verify"; "xval"; "faults"; "adapt"; "kv" ];
  List.iter
    (fun (e : Reg.entry) ->
      (* entries hold closures: compare the found entry by id *)
      check_bool (e.Reg.id ^ " findable") true
        (match Reg.find e.Reg.id with
        | Some e' -> e'.Reg.id = e.Reg.id
        | None -> false);
      check_bool
        (e.Reg.id ^ " owns an exp_id")
        true
        (e.Reg.exp_ids <> []))
    Reg.all;
  check_bool "unknown id" true (Reg.find "nope" = None)

let test_registry_kinds () =
  (* the panel's archived ids are gated; every own-gate experiment's
     ids are not; unregistered ids default to gated so they fail the
     cross-run join loudly *)
  check_bool "report-x86 gated" true
    (Reg.kind_of "report-x86" = Clof_harness.Report.Gated_series);
  List.iter
    (fun id ->
      check_bool (id ^ " not gated") true
        (Reg.kind_of id <> Clof_harness.Report.Gated_series))
    [ "sim-throughput"; "verify"; "xval"; "faults"; "adapt"; "kv" ];
  check_bool "unknown exp_id gated" true
    (Reg.kind_of "some-future-exp" = Clof_harness.Report.Gated_series)

let test_registry_gated_strip () =
  let exp id =
    {
      Clof_harness.Report.exp_id = id;
      platform = "x86";
      workload = "w";
      series = [];
    }
  in
  let r =
    {
      Clof_harness.Report.version = Clof_harness.Report.schema_version;
      quick = true;
      meta = None;
      experiments = [ exp "report-x86"; exp "kv"; exp "verify" ];
    }
  in
  let kept =
    List.map
      (fun (e : Clof_harness.Report.experiment) ->
        e.Clof_harness.Report.exp_id)
      (Reg.gated r).Clof_harness.Report.experiments
  in
  check_bool "only gated survives" true (kept = [ "report-x86" ])

(* decode_either must prefer the current archive and fall back to the
   baseline — and never print an experiment archived in neither *)
let test_registry_decode_either () =
  let kv = Clof_harness.Kvbench.run ~quick:true () in
  let kv_report = Clof_harness.Kvbench.to_report ~quick:true kv in
  let empty =
    {
      Clof_harness.Report.version = Clof_harness.Report.schema_version;
      quick = true;
      meta = None;
      experiments = [];
    }
  in
  let capture f =
    let saved = Unix.dup Unix.stdout in
    let tmp = Filename.temp_file "reg" ".out" in
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
    Unix.dup2 fd Unix.stdout;
    Unix.close fd;
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f;
    In_channel.with_open_text tmp In_channel.input_all
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let from_baseline =
    capture (fun () ->
        Reg.decode_either ~baseline:kv_report ~current:empty)
  in
  check_bool "falls back to baseline" true
    (contains from_baseline "baseline kv");
  let from_current =
    capture (fun () ->
        Reg.decode_either ~baseline:empty ~current:kv_report)
  in
  check_bool "prefers current label" true
    (contains from_current "current kv"
    && not (contains from_current "baseline"));
  let silent =
    capture (fun () -> Reg.decode_either ~baseline:empty ~current:empty)
  in
  check_bool "nothing archived, nothing printed" true (silent = "")

(* ---------- fault-injection watchdog ---------- *)

module Ex = Clof_harness.Experiments

(* One sweep for the whole section: set_quick before the memoized
   matrix is first forced. *)
let fault_rows =
  lazy
    (Ex.set_quick true;
     Ex.fault_matrix ())

let cell row fault =
  List.find (fun c -> c.Ex.fc_fault = fault) row.Ex.fr_cells

let test_faults_text_table () =
  let s =
    Render.text_table ~header:[ "lock"; "a"; "b" ]
      ~rows:[ ("mcs", [ "ok"; "wedged!" ]); ("x", [ "-"; "-" ]) ]
  in
  let lines = String.split_on_char '\n' (String.trim s) in
  check_int "3 lines" 3 (List.length lines);
  check_bool "contains cell" true
    (let re = "wedged!" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0)

(* ISSUE acceptance: with no injected fault every cell is Recovered. *)
let test_faults_baseline_recovers () =
  List.iter
    (fun row ->
      let c = cell row "none" in
      Alcotest.(check string)
        (row.Ex.fr_lock ^ "/none recovers")
        "recovered"
        (Ex.class_to_string c.Ex.fc_class);
      check_bool (row.Ex.fr_lock ^ "/none not hung") false c.Ex.fc_hung)
    (Lazy.force fault_rows)

(* ISSUE acceptance: a stall injected into a queue waiter leaves every
   abortable composition recovered — timed-out waiters re-arm and the
   run completes with [hung = false]. *)
let test_faults_stall_abortable_recovers () =
  let rows = Lazy.force fault_rows in
  let abortables = List.filter (fun r -> r.Ex.fr_abortable) rows in
  check_bool "panel has abortable compositions" true
    (List.exists
       (fun r -> String.length r.Ex.fr_lock > 3)
       abortables);
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          if
            String.length c.Ex.fc_fault >= 5
            && String.sub c.Ex.fc_fault 0 5 = "stall"
          then begin
            check_bool
              (row.Ex.fr_lock ^ "/" ^ c.Ex.fc_fault ^ " not wedged")
              true
              (c.Ex.fc_class <> Ex.Wedged);
            check_bool
              (row.Ex.fr_lock ^ "/" ^ c.Ex.fc_fault ^ " not hung")
              false c.Ex.fc_hung
          end)
        row.Ex.fr_cells)
    abortables

(* ISSUE acceptance: a holder crash inside the critical section never
   wedges a true-abort lock — the watchdog reclaims ownership through
   the timed-acquire path and confirms the lock is serviceable again. *)
let test_faults_crash_hold_recovered () =
  let rows = Lazy.force fault_rows in
  let abortables = List.filter (fun r -> r.Ex.fr_abortable) rows in
  check_bool "panel has abortable rows" true (abortables <> []);
  List.iter
    (fun row ->
      List.iter
        (fun c ->
          if
            String.length c.Ex.fc_fault >= 10
            && String.sub c.Ex.fc_fault 0 10 = "crash-hold"
          then begin
            Alcotest.(check string)
              (row.Ex.fr_lock ^ "/" ^ c.Ex.fc_fault ^ " recovered")
              "recovered"
              (Ex.class_to_string c.Ex.fc_class);
            check_bool
              (row.Ex.fr_lock ^ "/" ^ c.Ex.fc_fault
             ^ " watchdog reclaimed")
              true (c.Ex.fc_recoveries > 0)
          end)
        row.Ex.fr_cells)
    abortables

let test_faults_gate_passes () =
  check_int "no fair lock wedged by a stall" 0
    (List.length (Ex.fault_gate (Lazy.force fault_rows)))

let test_faults_experiment_renders () =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  ignore (Lazy.force fault_rows);
  check_bool "faults runs" true (Ex.run ppf "faults");
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  check_bool "mentions classification" true
    (let re = "recovered" in
     let rec find i =
       i + String.length re <= String.length s
       && (String.sub s i (String.length re) = re || find (i + 1))
     in
     find 0)

(* The engine's minor words per event on the two sim-throughput loops
   stay under fixed bounds. Minor-word counts are deterministic for one
   compiler version; the bounds leave room for the differences between
   the supported OCaml releases. *)
let test_sim_words_per_event () =
  let bound = function "pingpong" -> 35.0 | _ -> 25.0 in
  List.iter
    (fun (s : Clof_harness.Simbench.sample) ->
      let b = bound s.label in
      check_bool
        (Printf.sprintf "%s: %.1f minor words/event <= %.0f" s.label
           s.words_per_event b)
        true
        (s.events > 0 && s.words_per_event <= b))
    (Clof_harness.Simbench.run ~quick:true ())

let () =
  Alcotest.run "harness"
    [
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_csv_render;
          Alcotest.test_case "heatmap" `Quick test_heatmap_render;
          Alcotest.test_case "section" `Quick test_section;
        ] );
      ( "heatmap",
        [
          Alcotest.test_case "tiny platform" `Quick test_heatmap_tiny;
          Alcotest.test_case "infer presets" `Slow test_infer_presets;
          Alcotest.test_case "paper table" `Quick test_paper_speedups_table;
          Alcotest.test_case "stride aliasing backfill" `Quick
            test_heatmap_stride_aliasing;
        ] );
      ( "scripted",
        [
          Alcotest.test_case "tiny sweep" `Slow test_scripted_tiny;
          Alcotest.test_case "spec_of_name" `Quick test_spec_of_name;
          Alcotest.test_case "grids" `Quick test_grids;
          Alcotest.test_case "grid clamped to platform" `Quick
            test_grid_clamped_to_platform;
          Alcotest.test_case "small custom platform" `Slow
            test_scripted_small_platform;
          Alcotest.test_case "parallel deterministic" `Slow
            test_scripted_parallel_deterministic;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "ids" `Quick test_experiment_ids;
          Alcotest.test_case "dispatch" `Quick test_experiment_dispatch;
          Alcotest.test_case "registry entries" `Quick test_registry_entries;
          Alcotest.test_case "registry kinds" `Quick test_registry_kinds;
          Alcotest.test_case "registry gated strip" `Quick
            test_registry_gated_strip;
          Alcotest.test_case "registry decode either" `Slow
            test_registry_decode_either;
        ] );
      ( "simbench",
        [
          Alcotest.test_case "words per event" `Quick
            test_sim_words_per_event;
        ] );
      ( "faults",
        [
          Alcotest.test_case "text table" `Quick test_faults_text_table;
          Alcotest.test_case "baseline recovers" `Slow
            test_faults_baseline_recovers;
          Alcotest.test_case "stall vs abortable" `Slow
            test_faults_stall_abortable_recovers;
          Alcotest.test_case "holder crash recovered" `Slow
            test_faults_crash_hold_recovered;
          Alcotest.test_case "gate passes" `Slow test_faults_gate_passes;
          Alcotest.test_case "experiment renders" `Slow
            test_faults_experiment_renders;
        ] );
    ]
