(* Command-line driver: reproduce any table/figure of the paper, or the
   whole evaluation. `clof_bench list` shows the experiment index;
   `clof_bench report` emits the machine-readable JSON report CI
   archives and diffs with bench_check. Report-producing experiments
   dispatch through the registry (Clof_harness.Registry): each entry
   supplies its subcommand name, default artifact and canonical gate
   run, so this file holds no per-experiment id lists. *)

module Registry = Clof_harness.Registry

let list_experiments () =
  List.iter
    (fun (id, descr) -> Printf.printf "%-16s %s\n" id descr)
    Clof_harness.Experiments.ids;
  print_newline ();
  print_endline
    "report experiments (clof_bench <id> [--quick] [--out FILE]; the \
     bracket is the cross-run join policy):";
  List.iter
    (fun (e : Registry.entry) ->
      Printf.printf "%-8s %-12s %s\n" e.Registry.id
        (if e.Registry.joins then "[gated]" else "[own-gate]")
        e.Registry.doc)
    Registry.all

(* [-j 0] (the cmdliner default) means "pick for me": one job per
   recommended domain. Results are identical for every job count — each
   simulation is deterministic and runs wholly on one domain — so -j
   only changes wall-clock. *)
let set_jobs j =
  Clof_exec.Exec.set_jobs
    (if j <= 0 then max 1 (Domain.recommended_domain_count ()) else j)

(* open, write and close can each raise Sys_error (unwritable path,
   full disk, I/O error); all must surface as a one-line failure, not a
   backtrace *)
let write_report out (r : Clof_harness.Report.t) =
  let doc = Clof_harness.Report.to_string r in
  match
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> try close_out oc with Sys_error _ -> ())
      (fun () ->
        output_string oc doc;
        close_out oc)
  with
  | exception Sys_error msg -> Error msg
  | () ->
      Printf.printf "wrote %s (schema v%d)\n" out
        Clof_harness.Report.schema_version;
      Ok ()

let run_ids quick jobs list ids =
  if list then begin
    list_experiments ();
    `Ok ()
  end
  else begin
    set_jobs jobs;
    Clof_harness.Experiments.set_quick quick;
    let ppf = Format.std_formatter in
    match ids with
    | [] ->
        Clof_harness.Experiments.run_all ppf;
        `Ok ()
    | ids -> (
        (* validate every id up front: a typo at the end of the list must
           not surface only after the experiments before it already ran *)
        match
          List.filter
            (fun id ->
              not (List.mem_assoc id Clof_harness.Experiments.ids))
            ids
        with
        | _ :: _ as unknown ->
            `Error
              ( false,
                Printf.sprintf "unknown experiment(s): %s (try 'list')"
                  (String.concat ", " unknown) )
        | [] ->
            List.iter
              (fun id -> ignore (Clof_harness.Experiments.run ppf id))
              ids;
            `Ok ())
  end

(* The one produce -> print -> write -> gate path of every report
   subcommand: print the entry's experiments through its printer,
   archive the report (also on a gate failure, so CI keeps the
   evidence), then fail on the gate's verdicts. *)
let publish (e : Registry.entry) out produce =
  match produce () with
  | exception Clof_native.Native.Lock_failure msg ->
      `Error (false, "native backend: " ^ msg)
  | exception Clof_workloads.Workload.Lock_failure msg ->
      `Error (false, "simulated backend: " ^ msg)
  | r -> (
      let exps = Registry.owned e r in
      List.iter (e.Registry.pp Format.std_formatter) exps;
      Format.pp_print_flush Format.std_formatter ();
      match write_report out r with
      | Error msg -> `Error (false, msg)
      | Ok () -> (
          match List.concat_map e.Registry.gate exps with
          | [] -> `Ok ()
          | errs ->
              `Error
                ( false,
                  Printf.sprintf "%s gate: %s" e.Registry.id
                    (String.concat "; " errs) )))

let registry_gate (e : Registry.entry) quick jobs out =
  set_jobs jobs;
  publish e out (fun () -> e.Registry.run ~quick)

let report quick jobs out ids =
  set_jobs jobs;
  let ids =
    match ids with [] -> List.map fst Clof_harness.Report.ids | ids -> ids
  in
  match Clof_harness.Report.run ~quick ids with
  | Error msg -> `Error (false, msg)
  | Ok r -> (
      match write_report out r with
      | Error msg -> `Error (false, msg)
      | Ok () ->
          (match r.Clof_harness.Report.meta with
          | None -> ()
          | Some m ->
              Printf.printf
                "harness: %d job(s), %.2fs wall, %.2fs busy, %.2fx \
                 speedup\n"
                m.Clof_harness.Report.jobs m.Clof_harness.Report.wall_s
                m.Clof_harness.Report.busy_s
                m.Clof_harness.Report.speedup);
          `Ok ())

(* One-command repro of a CI differential failure: the seed fully
   determines the random program, so `clof_bench verify --seed N
   --memmode tso` replays exactly the DPOR-vs-oracle comparison that
   failed. *)
let verify_seed memmode seed =
  let module D = Clof_verify.Differential in
  let modes =
    match memmode with
    | Some m -> [ m ]
    | None ->
        [ Clof_verify.Vstate.Sc; Clof_verify.Vstate.Tso;
          Clof_verify.Vstate.Relaxed ]
  in
  let prog = D.generate ~seed in
  Printf.printf "seed %d: %s\n" seed (D.to_string prog);
  let bad =
    List.filter_map
      (fun mode ->
        let tag = Clof_verify.Scenarios.mode_tag mode in
        match D.run ~mode prog with
        | D.Agree ->
            Printf.printf "  [%s] dpor = naive\n" tag;
            None
        | D.Skipped why ->
            Printf.printf "  [%s] skipped: %s\n" tag why;
            None
        | D.Disagree why ->
            Printf.printf "  [%s] DISAGREE: %s\n" tag why;
            Some tag)
      modes
  in
  if bad = [] then `Ok ()
  else
    `Error
      ( false,
        Printf.sprintf "differential seed %d: strategies disagree under %s"
          seed
          (String.concat ", " bad) )

let verify quick jobs naive memmode seed out =
  set_jobs jobs;
  match seed with
  | Some seed -> verify_seed memmode seed
  | None ->
      let strategy =
        if naive then Some Clof_verify.Checker.Naive else None
      in
      publish
        (Option.get (Registry.find "verify"))
        out
        (fun () ->
          Clof_harness.Report.of_experiment ~quick
            (Clof_harness.Verifybench.run ~quick ?strategy ?mode:memmode ()))

(* the floor, when given, is archived with the run: the rank
   correlation is all that gates, never native wall clock *)
let xval quick jobs out min_corr =
  set_jobs jobs;
  publish
    (Option.get (Registry.find "xval"))
    out
    (fun () ->
      Clof_harness.Report.of_experiment ~quick
        (Clof_harness.Xval.run ~quick ?min_corr ()))

open Cmdliner

let quick =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Shorter simulations and coarser sampling (smoke mode).")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run simulations on $(docv) domains in parallel. 0 (the \
           default) picks the recommended domain count; 1 is exactly \
           sequential. Benchmark results are identical for every value \
           - only wall-clock changes.")

let ids_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          "Experiment ids to run (see $(b,clof_bench list)); all of them \
           when omitted.")

let list_flag =
  Arg.(
    value & flag
    & info [ "list" ]
        ~doc:"List the available experiments and exit (same as $(b,list)).")

let run_cmd =
  let doc = "Reproduce the paper's tables and figures on the simulator" in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(ret (const run_ids $ quick $ jobs_arg $ list_flag $ ids_arg))

let list_cmd =
  let doc = "List the available experiments" in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_experiments $ const ())

let out_arg (e : Registry.entry) =
  Arg.(
    value
    & opt string e.Registry.default_out
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output report file.")

(* Subcommands with no knobs beyond --quick/-j/--out come straight off
   the registry; report/verify/xval add bespoke flags below but share
   the registry's default artifact names and docs. *)
let registry_cmd (e : Registry.entry) =
  Cmd.v
    (Cmd.info e.Registry.id ~doc:e.Registry.doc)
    Term.(ret (const (registry_gate e) $ quick $ jobs_arg $ out_arg e))

let report_cmd =
  let e = Option.get (Registry.find "report") in
  let doc =
    "Benchmark the representative lock panel and write a JSON report \
     (throughput, fairness, per-level lock statistics per point)"
  in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"REPORT-EXPERIMENT"
          ~doc:
            "Report experiment ids ($(b,report-x86), $(b,report-armv8)); \
             all of them when omitted.")
  in
  Cmd.v
    (Cmd.info e.Registry.id ~doc)
    Term.(ret (const report $ quick $ jobs_arg $ out_arg e $ ids))

let verify_cmd =
  let e = Option.get (Registry.find "verify") in
  let doc =
    "Model-check the whole verification suite (base steps, abortable \
     steps, induction steps, the A4 exhibits, and the weak-memory \
     litmus battery, under SC, TSO, and relaxed store buffers) and \
     write the exploration statistics as a JSON report. Fails when any \
     scenario's verdict does not match its expectation (the CI \
     verification gate); the statistics themselves never gate. With \
     $(b,--seed), instead replay one DPOR-vs-oracle differential on the \
     random program that seed denotes — the one-command repro for a CI \
     differential failure."
  in
  let naive =
    Arg.(
      value & flag
      & info [ "naive" ]
          ~doc:
            "Explore with the exhaustive DFS oracle instead of DPOR \
             (slow; for differential runs).")
  in
  let memmode =
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("sc", Clof_verify.Vstate.Sc);
                  ("tso", Clof_verify.Vstate.Tso);
                  ("rlx", Clof_verify.Vstate.Relaxed);
                ]))
          None
      & info [ "memmode" ] ~docv:"MODE"
          ~doc:
            "Restrict to one memory mode (sc, tso, rlx): only that \
             mode's suite entries, or with $(b,--seed) only that \
             mode's differential. Default: all three.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Run the randomized DPOR-vs-naive differential on the \
             program generated by seed $(docv) instead of the suite. \
             Exits nonzero if the strategies disagree.")
  in
  Cmd.v
    (Cmd.info e.Registry.id ~doc)
    Term.(
      ret
        (const verify $ quick $ jobs_arg $ naive $ memmode $ seed
       $ out_arg e))

let xval_cmd =
  let e = Option.get (Registry.find "xval") in
  let doc =
    "Cross-validate the simulator against real OCaml domains: run the \
     scripted lock panel on both backends on this machine (the \
     simulator configured with the detected host topology) and report \
     the rank correlation between the two throughput orderings. \
     Absolute native numbers are wall clock and never gate; with \
     $(b,--min-corr) the overall Spearman coefficient does."
  in
  let min_corr =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-corr" ] ~docv:"RHO"
          ~doc:
            "Fail unless the overall Spearman rank correlation between \
             the simulated and native lock orderings is at least \
             $(docv) (the CI cross-validation gate).")
  in
  Cmd.v
    (Cmd.info e.Registry.id ~doc)
    Term.(ret (const xval $ quick $ jobs_arg $ out_arg e $ min_corr))

let main =
  let doc =
    "CLoF reproduction: compositional NUMA-aware locks on a simulated \
     multi-level NUMA machine"
  in
  let bespoke = [ "report"; "verify"; "xval" ] in
  let generic =
    List.filter_map
      (fun (e : Registry.entry) ->
        if List.mem e.Registry.id bespoke then None
        else Some (registry_cmd e))
      Registry.all
  in
  Cmd.group
    ~default:
      Term.(ret (const run_ids $ quick $ jobs_arg $ list_flag $ ids_arg))
    (Cmd.info "clof_bench" ~doc ~version:"1.0.0")
    ([ run_cmd; list_cmd; report_cmd; verify_cmd; xval_cmd ] @ generic)

let () = exit (Cmd.eval main)
