(* sim-throughput: how fast the discrete-event engine itself runs.

   Every number this reproduction produces is bottlenecked on the
   engine's per-event cost, so we track it the way the paper tracks
   lock handovers: simulated events per wall-clock second, and minor
   words allocated per event, on the two inner loops everything else is
   built from — the two-thread ping-pong (wake/transfer path) and the
   contended scripted workload (full lock traffic). Results are
   wall-clock dependent, so BENCH_sim.json is tracked as a trajectory
   (bench_check prints it) and never diffed or gated.

   Report encoding: one series per loop with one point ([total_ops] =
   engine events, [sim_ns] = wall-clock ns, [throughput] = events per
   wall-clock us) and meta ["events_per_us"], ["words_per_event"] and
   ["runs"]. *)

open Clof_topology
module E = Clof_sim.Engine
module M = Clof_sim.Sim_mem
module W = Clof_workloads.Workload
module S = Clof_stats.Stats
module RT = Clof_core.Runtime

(* One ping-pong simulation; returns the engine event count. The body
   mirrors Workloads.Pingpong but reads the outcome instead of
   iterations: this exercises the wake_watchers/transfer path. *)
let pingpong_events ~duration ~platform cpu1 cpu2 =
  let c = M.make ~name:"pingpong" 0 in
  let body parity _tid =
    while E.running () do
      let v = M.await c (fun v -> v mod 2 = parity) in
      M.store c (v + 1)
    done
  in
  let o =
    E.run ~duration ~platform
      ~threads:[ (cpu1, body 0); (cpu2, body 1) ]
      ()
  in
  o.E.events

let exp_id = "sim-throughput"

let time_loop ~label ~threads ~runs (run1 : unit -> int) =
  (* warm caches and code paths outside the measured window *)
  ignore (run1 ());
  Gc.minor ();
  let w0 = Gc.minor_words () in
  let t0 = Clof_exec.Exec.now_s () in
  let events = ref 0 in
  for _ = 1 to runs do
    events := !events + run1 ()
  done;
  let wall_s = Clof_exec.Exec.now_s () -. t0 in
  let words = Gc.minor_words () -. w0 in
  let ev = max 1 !events in
  let events_per_us =
    float_of_int ev /. (Float.max wall_s 1e-9 *. 1_000_000.0)
  in
  {
    Report.lock = label;
    meta =
      Some
        [
          ("events_per_us", Report.F events_per_us);
          ("words_per_event", Report.F (words /. float_of_int ev));
          ("runs", Report.I runs);
        ];
    points =
      [
        {
          Report.threads;
          throughput = events_per_us;
          total_ops = !events;
          sim_ns = int_of_float (wall_s *. 1e9);
          jain = 1.0;
          stats = S.create ();
        };
      ];
  }

let scripted_spec () =
  Scripted.spec_of_name ~platform:Platform.x86 ~depth:2 "mcs-mcs"

let run ?(quick = false) () =
  let p = Platform.x86 in
  let reps = if quick then 30 else 150 in
  let spec = scripted_spec () in
  let params = { W.leveldb with W.duration = 150_000 } in
  {
    Report.exp_id;
    platform = Topology.name p.Platform.topo;
    workload = "engine-hot-path";
    series =
      [
        time_loop ~label:"pingpong" ~threads:2 ~runs:(4 * reps) (fun () ->
            pingpong_events ~duration:200_000 ~platform:p 0 24);
        time_loop ~label:"scripted" ~threads:8 ~runs:reps (fun () ->
            (W.run ~platform:p ~nthreads:8 ~spec params).W.events);
      ];
  }

let pp ppf (e : Report.experiment) =
  Format.pp_print_string ppf
    (Render.section
       "sim-throughput: discrete-event engine speed (wall clock, not \
        simulated)");
  List.iter
    (fun (s : Report.series) ->
      let f key = Option.value ~default:0.0 (Report.meta_float s key) in
      Format.fprintf ppf
        "%-10s %9d events in %d runs  %8.2f events/us  %6.2f minor \
         words/event@."
        s.Report.lock
        (List.fold_left (fun a (p : Report.point) -> a + p.Report.total_ops) 0
           s.Report.points)
        (Option.value ~default:0 (Report.meta_int s "runs"))
        (f "events_per_us") (f "words_per_event"))
    e.Report.series
