(* The faults experiment: a lock panel under timed acquisition while
   the engine injects scheduler faults (Clof_sim.Engine.fault), every
   (lock, fault) cell classified by how the run came out. The matrix
   ships through the Report schema as BENCH_faults.json.

   Each lock becomes one series with no points: the matrix travels in
   the series' typed [meta] block (schema v2) — the lock's declared
   capabilities ("fair", "abort"), the cell order ("cells",
   comma-separated fault names), and per cell "<fault>.class",
   "<fault>.timeouts", "<fault>.reclaims" and "<fault>.hung". The
   printer and the gate read only that block. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module Hmcs_t = Clof_baselines.Hmcs_t.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime

let exp_id = "faults"

(* Lighter contention than the throughput benchmarks: the no-fault
   column must come out healthy for every lock, including the
   polling-emulated timed paths, so each attempt needs a clear shot at
   the lock well inside its deadline. *)
let params quick =
  {
    W.duration = (if quick then 250_000 else 600_000);
    cs_reads = 2;
    cs_writes = 2;
    cs_work = 80;
    noncs_work = 8_000;
  }

let deadline = 20_000
let nthreads = 8

(* Watchdog lease: must comfortably exceed the longest legitimate
   zero-progress window — the 50 us injected stall — plus a critical
   section, yet fire a few times within even the quick-mode duration.
   See {!Clof_workloads.Workload.run}. *)
let lease = 60_000

(* Fault points are op counts into the victim's deterministic schedule;
   by op 25-40 every thread is deep in lock traffic, so the stall or
   crash lands while queued, spinning, or holding — which one is fixed
   per (lock, fault) cell and reproducible. *)
let scenarios =
  let open Clof_sim.Engine in
  [
    ("none", []);
    ("stall-t3", [ Stall { tid = 3; at_op = 40; ns = 50_000 } ]);
    ("stall-t0", [ Stall { tid = 0; at_op = 25; ns = 50_000 } ]);
    ("crash-t3", [ Crash { tid = 3; at_op = 40 } ]);
    (* the watchdog's scenario: the victim deterministically dies
       *holding* the lock, not merely queued at it *)
    ("crash-hold-t3", [ Crash_in_cs { tid = 3; after_op = 40 } ]);
  ]

(* - wedged: the run hung or livelocked, or a surviving thread stopped
     completing operations long before the end (a dead lock the
     remaining threads merely time out against looks like this);
   - degraded: the system kept going but a thread crashed and nobody
     reclaimed what it held — its capacity (and possibly the lock) is
     permanently lost;
   - recovered: every surviving thread was still making progress at
     the end, and any crash was reclaimed by the watchdog — timed-out
     attempts during the fault window are the recovery mechanism, not
     a failure, and are reported alongside. *)
let classify (p : W.params) (r : W.result) =
  let margin = 3 * (deadline + p.W.noncs_work) in
  let stuck =
    let any = ref false in
    Array.iteri
      (fun tid last ->
        if
          (not (List.mem tid r.W.crashed))
          && last < r.W.sim_ns - margin
        then any := true)
      r.W.last_progress;
    !any
  in
  if r.W.hung || r.W.aborted || stuck then "wedged"
  else if r.W.crashed <> [] && r.W.recoveries = 0 then "degraded"
  else "recovered"

(* The panel's (fair, abortable) capability flags come off the
   instantiated lock's own Runtime metadata, never a hand-maintained
   list: the gate below holds every lock to exactly what it declares,
   and the capability audit fails loudly when a declaration disagrees
   with the abandonment behaviour the matrix observed. *)
let panel p =
  let clof2 pks = RT.of_clof ~hierarchy:(Platform.hier2 p) (G.build pks) in
  [
    RT.of_basic R.ticket;
    RT.of_basic R.mcs;
    RT.of_basic R.clh;
    RT.of_basic (R.hemlock ~ctr:false ());
    RT.of_basic R.tas;
    clof2 [ R.mcs; R.mcs ];
    clof2 [ R.clh; R.clh ];
    clof2 [ R.ticket; R.clh ];
    Hmcs.spec ~hierarchy:(Platform.hier2 p) ();
    Hmcs_t.spec ~hierarchy:(Platform.hier2 p) ();
  ]

let run ?(quick = false) () =
  let platform = Platform.x86 in
  let specs = panel platform in
  let caps =
    List.map
      (fun spec ->
        let l = spec.RT.instantiate platform.Platform.topo in
        [
          ("fair", Report.B l.RT.l_fair); ("abort", Report.B l.RT.l_abortable);
        ])
      specs
  in
  let params = params quick in
  let cells =
    Clof_exec.Exec.product_map
      (fun spec (fault, faults) ->
        let r =
          W.run ~check:false ~faults ~deadline ~watchdog:lease ~platform
            ~nthreads ~spec params
        in
        [
          (fault ^ ".class", Report.S (classify params r));
          (fault ^ ".timeouts", Report.I (Clof_stats.Stats.timeouts r.W.stats));
          (fault ^ ".reclaims", Report.I r.W.recoveries);
          (fault ^ ".hung", Report.B r.W.hung);
        ])
      specs scenarios
  in
  let faults = String.concat "," (List.map fst scenarios) in
  {
    Report.exp_id;
    platform = "x86";
    workload = faults;
    series =
      List.map2
        (fun (spec, caps) cells ->
          {
            Report.lock = spec.RT.s_name;
            meta =
              Some (caps @ (("cells", Report.S faults) :: List.concat cells));
            points = [];
          })
        (List.combine specs caps) cells;
  }

(* ---------- the gate ---------- *)

let flag s key = Report.meta_bool s key = Some true
let cell_str s fault key =
  Option.value ~default:"?" (Report.meta_str s (fault ^ key))

let cell_int s fault key =
  Option.value ~default:0 (Report.meta_int s (fault ^ key))

(* Three rules, each keyed off the lock's *declared* capability:
   - a fair lock must never wedge under a transient stall;
   - a true-abort lock must come out recovered from a holder crash —
     the watchdog reclaims through the abortable path, so anything
     less means the abort contract failed under fire;
   - capability audit: a lock declaring [l_abortable] must actually
     have abandoned attempts somewhere in the fault columns. A
     declared-abortable lock that never times out against a 50 us
     stall on a 20 us deadline is lying about its capability (e.g. a
     blocking fallback behind a true-abort flag). *)
let gate (e : Report.experiment) =
  List.concat_map
    (fun (s : Report.series) ->
      let violation fault what =
        Printf.sprintf "%s [%s]: %s" s.Report.lock fault what
      in
      let faults = Report.meta_list s "cells" in
      let cells =
        List.filter_map
          (fun f ->
            let cls = cell_str s f ".class" in
            if
              flag s "fair"
              && String.starts_with ~prefix:"stall" f
              && cls = "wedged"
            then Some (violation f "fair lock wedged under a transient stall")
            else if
              flag s "abort"
              && String.starts_with ~prefix:"crash-hold" f
              && cls <> "recovered"
            then
              Some
                (violation f
                   (Printf.sprintf
                      "true-abort lock %s on a holder crash (watchdog could \
                       not reclaim)"
                      cls))
            else None)
          faults
      in
      let abandoned =
        List.fold_left
          (fun acc f ->
            if f = "none" then acc else acc + cell_int s f ".timeouts")
          0 faults
      in
      if flag s "abort" && abandoned = 0 then
        cells
        @ [
            violation "capability"
              "declares l_abortable but no acquisition was ever abandoned \
               under faults — declared capability disagrees with observed \
               behaviour";
          ]
      else cells)
    e.Report.series

(* ---------- rendering ---------- *)

let pp ppf (e : Report.experiment) =
  Format.pp_print_string ppf
    (Render.section
       "Fault injection: stalls and crashes vs the lock panel (timed \
        acquisition, 8T x86)");
  Format.fprintf ppf
    "per-attempt deadline %d ns; stalls preempt the victim %d ns at \
     its n-th atomic op; crash-hold kills it inside the critical \
     section; watchdog lease %d ns; cells show class(timed-out \
     attempts), '+rN' = watchdog reclaims, '!' = engine reported hung@."
    deadline 50_000 lease;
  let rows =
    List.map
      (fun (s : Report.series) ->
        ( (s.Report.lock ^ if flag s "abort" then " [abort]" else ""),
          List.map
            (fun f ->
              let reclaims = cell_int s f ".reclaims" in
              Printf.sprintf "%s(%d)%s%s" (cell_str s f ".class")
                (cell_int s f ".timeouts")
                (if reclaims > 0 then Printf.sprintf "+r%d" reclaims else "")
                (if flag s (f ^ ".hung") then "!" else ""))
            (Report.meta_list s "cells") ))
      e.Report.series
  in
  let header = "lock" :: String.split_on_char ',' e.Report.workload in
  Format.pp_print_string ppf (Render.text_table ~header ~rows);
  match gate e with
  | [] ->
      Format.fprintf ppf
        "gate: no fair lock wedged under a stall, every true-abort lock \
         recovered from a holder crash, capabilities audited@."
  | bad -> List.iter (Format.fprintf ppf "gate VIOLATION: %s@.") bad
