(* The adapt experiment: a phase-shift workload driving the adaptive
   composition (Clof_core.Adaptive) against the static choices it is
   supposed to subsume — bare CLoF, CLoF+fastpath, and fair H=1 — on
   the simulated x86 box.

   Three phases, low -> high -> low contention: a couple of threads
   with short think time (lock-latency-bound, where the TAS fast path
   wins by skipping the tree walk), then a saturated phase at high
   thread count (handover-bound, where barging and strict H=1 handover
   both lose to keep_local batching), then back. Each phase
   re-instantiates the lock, so the adaptive controller starts from
   its fastpath-mostly default and must re-converge within the phase —
   the per-phase switch counts below show when it moved.

   Report encoding (exp_id "adapt", excluded from bench_check's
   deterministic regression join like "xval"): one series per lock
   with one point per phase in order — threads = the phase's thread
   count, throughput/total_ops/sim_ns/jain/stats = that phase's
   measurements (the two low phases share a thread count, which is why
   this experiment cannot participate in the (lock, threads) join).
   A pointless "controller" series carries the adaptive lock's
   per-phase switch count and settled mode in its meta, and a
   pointless "gate" series the declared slack and loss, so a re-gate
   of the archive applies the rule it was produced under. *)

open Clof_topology
module M = Clof_sim.Sim_mem
module S = Clof_stats.Stats
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime

module Clh = Clof_locks.Clh.Make (M)
module Root = Clof_core.Compose.Base (Clh)
module C2 = Clof_core.Compose.Compose (M) (Clh) (Root)
module C3 = Clof_core.Compose.Compose (M) (Clh) (C2)
module C4 = Clof_core.Compose.Compose (M) (Clh) (C3)
module F = Clof_core.Fastpath.Make (M) (C4)
module A = Clof_core.Adaptive.Make (M) (C4)

type phase = { ph_name : string; ph_threads : int; ph_params : W.params }

let adaptive_name = "ad-clof<4>"

(* Low phases are lock-latency-bound: a single uncontended thread with
   a near-empty critical section and think time, so the depth-4 tree
   walk (and its release walk) dominates an op and the fast path's
   single CAS is the whole win. The high phase saturates the box so
   service is handover-bound and barging/H=1 handover both lose to
   keep_local batching. *)
let phases quick =
  let dur = if quick then 300_000 else 1_500_000 in
  let low =
    { W.duration = dur; cs_reads = 1; cs_writes = 1; cs_work = 20; noncs_work = 40 }
  in
  let high =
    { W.duration = dur; cs_reads = 2; cs_writes = 2; cs_work = 60; noncs_work = 400 }
  in
  [
    { ph_name = "low-1"; ph_threads = 1; ph_params = low };
    { ph_name = "high"; ph_threads = 48; ph_params = high };
    { ph_name = "low-2"; ph_threads = 1; ph_params = low };
  ]

let hierarchy p = Platform.hier4 p

(* The adaptive spec keeps a handle on the instantiated lock so each
   phase's switch count and final mode can be read back after the run;
   phases therefore execute sequentially, not through the executor. *)
let adaptive_spec ~hierarchy last =
  {
    RT.s_name = adaptive_name;
    instantiate =
      (fun topo ->
        let t = A.create ~topo ~hierarchy () in
        A.arm ~epoch:32 t;
        last := Some t;
        {
          RT.l_name = adaptive_name;
          l_fair = false;
          l_abortable = A.abortable;
          l_adaptive = true;
          handle =
            (fun ?stats ~cpu () ->
              let ctx = A.ctx_create t ~cpu in
              (match stats with
              | Some r -> A.set_sink ctx (S.Sink.of_recorder r)
              | None -> ());
              {
                RT.acquire = (fun () -> A.acquire t ctx);
                release = (fun () -> A.release t ctx);
                try_acquire = (fun ~deadline -> A.try_acquire t ctx ~deadline);
              });
        });
  }

let exp_id = "adapt"

(* The acceptance criterion: the adaptive lock must be within [slack]
   of the best static composition in every phase, and every static
   composition must lose at least [loss] somewhere — otherwise either
   the controller failed to track the traffic or the phase workload
   stopped discriminating, and the archived numbers would be
   vacuous. *)
let slack = 0.10
let loss = 0.25

let meta_series lock meta = { Report.lock; meta = Some meta; points = [] }

let run ?(quick = false) () =
  let p = Platform.x86 in
  let hierarchy = hierarchy p in
  let packed : Clof_core.Clof_intf.packed = (module C4) in
  let fp_packed : Clof_core.Clof_intf.packed = (module F) in
  let last : A.t option ref = ref None in
  let specs =
    [
      RT.rename "clof<4>" (RT.of_clof ~hierarchy packed);
      RT.rename "fp-clof<4>" (RT.of_clof ~hierarchy fp_packed);
      RT.rename "fair-h1" (RT.of_clof ~h:1 ~hierarchy packed);
      adaptive_spec ~hierarchy last;
    ]
  in
  let phases = phases quick in
  (* per phase: every lock's point, and the adaptive lock's controller
     readback (switches during the phase, settled mode) *)
  let measured =
    List.map
      (fun ph ->
        let controller = ref [] in
        let points =
          List.map
            (fun spec ->
              last := None;
              let r =
                W.run ~platform:p ~nthreads:ph.ph_threads ~spec ph.ph_params
              in
              Option.iter
                (fun t ->
                  controller :=
                    [
                      (ph.ph_name ^ ".switches", Report.I (A.switches t));
                      ( ph.ph_name ^ ".mode",
                        Report.S (Clof_core.Adaptive.mode_to_string (A.mode t))
                      );
                    ])
                !last;
              (r.W.lock, Report.point_of_result (ph.ph_threads, r)))
            specs
        in
        (points, !controller))
      phases
  in
  let phase_names =
    ( "phases",
      Report.S (String.concat "," (List.map (fun ph -> ph.ph_name) phases)) )
  in
  let locks = List.sort_uniq compare (List.map fst (fst (List.hd measured))) in
  let series =
    List.map
      (fun lock ->
        {
          Report.lock;
          meta = Some [ phase_names ];
          points = List.map (fun (pts, _) -> List.assoc lock pts) measured;
        })
      locks
  in
  {
    Report.exp_id;
    platform = "x86";
    workload = "phase-shift";
    series =
      series
      @ [
          meta_series "controller"
            (phase_names :: List.concat_map snd measured);
          meta_series "gate"
            [ ("slack", Report.F slack); ("loss", Report.F loss) ];
        ];
  }

(* ---------- readings ---------- *)

let locks (e : Report.experiment) =
  List.filter
    (fun (s : Report.series) -> s.Report.points <> [])
    e.Report.series

let phases (e : Report.experiment) =
  match locks e with s :: _ -> Report.meta_list s "phases" | [] -> []

let declared (e : Report.experiment) =
  let get key default =
    Option.value ~default
      (Option.bind (Report.find_series e "gate") (fun s ->
           Report.meta_float s key))
  in
  (get "slack" slack, get "loss" loss)

let throughputs (s : Report.series) =
  List.map (fun (p : Report.point) -> p.Report.throughput) s.Report.points

let gate e =
  let slack, loss = declared e in
  let statics =
    List.filter
      (fun (s : Report.series) -> s.Report.lock <> adaptive_name)
      (locks e)
  in
  let best =
    List.fold_left
      (List.map2 Float.max)
      (List.map (fun _ -> 0.0) (phases e))
      (List.map throughputs statics)
  in
  let lagging =
    match Report.find_series e adaptive_name with
    | None -> []
    | Some a ->
        List.concat
          (List.map2
             (fun (ph, tp) b ->
               if tp < (1.0 -. slack) *. b then
                 [
                   Printf.sprintf
                     "%s: adaptive %.3f ops/us not within %.0f%% of best \
                      static %.3f"
                     ph tp (100.0 *. slack) b;
                 ]
               else [])
             (List.combine (phases e) (throughputs a))
             best)
  in
  let never_losing =
    List.filter_map
      (fun (s : Report.series) ->
        if
          List.exists2
            (fun tp b -> tp <= (1.0 -. loss) *. b)
            (throughputs s) best
        then None
        else
          Some
            (Printf.sprintf
               "%s: never loses >= %.0f%% to the best static in any phase — \
                the phase workload stopped discriminating"
               s.Report.lock (100.0 *. loss)))
      statics
  in
  lagging @ never_losing

let pp ppf (e : Report.experiment) =
  Format.pp_print_string ppf
    (Render.section
       "adapt: contention-adaptive composition on the phase-shift \
        workload (x86, ops/us)");
  let locks = locks e in
  let header =
    "lock"
    :: List.map2
         (fun ph (p : Report.point) ->
           Printf.sprintf "%s(%dT)" ph p.Report.threads)
         (phases e) (List.hd locks).Report.points
  in
  let rows =
    List.map (fun (s : Report.series) -> (s.Report.lock, throughputs s)) locks
  in
  Format.pp_print_string ppf (Render.table ~header ~rows);
  Option.iter
    (fun c ->
      List.iter
        (fun ph ->
          Format.fprintf ppf
            "%-8s controller: %d switch(es), settled in %s@." ph
            (Option.value ~default:0 (Report.meta_int c (ph ^ ".switches")))
            (Option.value ~default:"-" (Report.meta_str c (ph ^ ".mode"))))
        (phases e))
    (Report.find_series e "controller");
  match gate e with
  | [] ->
      let slack, loss = declared e in
      Format.fprintf ppf
        "adapt gate: adaptive within %.0f%% of best static in every phase; \
         each static loses >= %.0f%% somewhere@."
        (100.0 *. slack) (100.0 *. loss)
  | errs -> List.iter (fun e -> Format.fprintf ppf "adapt gate: %s@." e) errs
