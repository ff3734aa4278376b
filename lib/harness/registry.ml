(* The experiment registry: every report-producing experiment declares
   itself here once — dispatch name, archived experiment ids, join
   policy, canonical run, printer and gate — and clof_bench and
   bench_check both consume the table instead of keeping their own id
   lists and per-experiment special cases. *)

type entry = {
  id : string;
  doc : string;
  exp_ids : string list;
  joins : bool;
  default_out : string;
  run : quick:bool -> Report.t;
  pp : Format.formatter -> Report.experiment -> unit;
  gate : Report.experiment -> string list;
}

(* An own-gate experiment: one archived experiment, printed and judged
   by its module, kept out of the cross-run join. *)
let own ~id ~doc ~exp_id ~default_out ~run ~pp ~gate =
  {
    id;
    doc;
    exp_ids = [ exp_id ];
    joins = false;
    default_out;
    run = (fun ~quick -> Report.of_experiment ~quick (run ~quick));
    pp;
    gate;
  }

(* The gated lock panel: its points are the regression join, so there
   is nothing to print or judge beyond them. *)
let report_entry =
  {
    id = "report";
    doc =
      "representative lock panel: throughput, fairness and per-level \
       counters per (lock, threads) point";
    exp_ids = List.map fst Report.ids;
    joins = true;
    default_out = "bench_report.json";
    run =
      (fun ~quick ->
        Result.get_ok (Report.run ~quick (List.map fst Report.ids)));
    pp = (fun _ _ -> ());
    gate = (fun _ -> []);
  }

let all =
  [
    report_entry;
    own ~id:"sim" ~doc:"discrete-event engine speed: events/sec and words/event"
      ~exp_id:Simbench.exp_id ~default_out:"BENCH_sim.json"
      ~run:(fun ~quick -> Simbench.run ~quick ())
      ~pp:Simbench.pp
      ~gate:(fun _ -> []);
    own ~id:"verify"
      ~doc:"model-check the verification suite (DPOR, all memory modes)"
      ~exp_id:Verifybench.exp_id ~default_out:"BENCH_verify.json"
      ~run:(fun ~quick -> Verifybench.run ~quick ())
      ~pp:Verifybench.pp ~gate:Verifybench.gate;
    own ~id:"xval" ~doc:"sim-vs-native rank correlation on this host"
      ~exp_id:Xval.exp_id ~default_out:"BENCH_native.json"
      ~run:(fun ~quick -> Xval.run ~quick ())
      ~pp:Xval.pp ~gate:Xval.gate;
    own ~id:"faults" ~doc:"fault-injection matrix with recovery classification"
      ~exp_id:Faultbench.exp_id ~default_out:"BENCH_faults.json"
      ~run:(fun ~quick -> Faultbench.run ~quick ())
      ~pp:Faultbench.pp ~gate:Faultbench.gate;
    own ~id:"adapt"
      ~doc:"contention-adaptive composition on the phase-shift workload"
      ~exp_id:Adaptbench.exp_id ~default_out:"BENCH_adaptive.json"
      ~run:(fun ~quick -> Adaptbench.run ~quick ())
      ~pp:Adaptbench.pp ~gate:Adaptbench.gate;
    own ~id:"kv" ~doc:"sharded KV service: open-loop sojourn tails under SLOs"
      ~exp_id:Kvbench.exp_id ~default_out:"BENCH_kv.json"
      ~run:(fun ~quick -> Kvbench.run ~quick ())
      ~pp:Kvbench.pp ~gate:Kvbench.gate;
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let joins exp_id =
  match List.find_opt (fun e -> List.mem exp_id e.exp_ids) all with
  | Some e -> e.joins
  | None -> true

let gated (r : Report.t) =
  {
    r with
    Report.experiments =
      List.filter
        (fun (e : Report.experiment) -> joins e.Report.exp_id)
        r.Report.experiments;
  }

let owned e (r : Report.t) =
  List.filter
    (fun (x : Report.experiment) -> List.mem x.Report.exp_id e.exp_ids)
    r.Report.experiments

let recheck ppf ~baseline ~current =
  List.concat_map
    (fun e ->
      let print label exps =
        List.iter
          (fun (x : Report.experiment) ->
            Format.fprintf ppf "bench_check: %s %s (%s, %s):@." label
              x.Report.exp_id x.Report.platform x.Report.workload;
            e.pp ppf x)
          exps
      in
      if e.joins then []
      else
        match (owned e current, owned e baseline) with
        | [], [] -> []
        | [], base ->
            print "baseline" base;
            []
        | cur, _ ->
            print "current" cur;
            List.concat_map
              (fun x ->
                List.map (Printf.sprintf "%s gate: %s" e.id) (e.gate x))
              cur)
    all
