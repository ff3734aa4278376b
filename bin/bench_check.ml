(* CI gate over two clof_bench JSON reports: join their benchmark
   points by (experiment, lock, threads) and fail when the current
   report shows a throughput regression or a fairness loss against the
   baseline. Exit codes: 0 clean, 1 regression (or nothing comparable),
   2 unreadable/invalid report.

   Which experiments join the comparison, and how the rest are printed
   and judged, all come from the experiment registry
   (Clof_harness.Registry): only joining experiments enter the join;
   every other archived experiment is re-printed by its registered
   printer and re-judged by its registered gate, and a violation fails
   the check like a regression — this file knows no experiment ids. *)

module Report = Clof_harness.Report
module Registry = Clof_harness.Registry

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Report.of_string text with
      | Ok r -> Ok r
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))

type keyed = { key : string * string * int; point : Report.point }

let flatten (r : Report.t) =
  List.concat_map
    (fun (e : Report.experiment) ->
      List.concat_map
        (fun (s : Report.series) ->
          List.map
            (fun (p : Report.point) ->
              { key = (e.exp_id, s.lock, p.threads); point = p })
            s.points)
        e.series)
    r.experiments

let pp_key (e, l, t) = Printf.sprintf "%s/%s/%dT" e l t

(* Harness cost (how long the report took to produce, and what the
   parallel executor bought), not a benchmark comparison — informational
   only, never part of the gate. *)
let pp_meta label (r : Report.t) =
  match r.meta with
  | None -> ()
  | Some m ->
      Printf.printf
        "bench_check: %s harness: %d job(s), %.2fs wall, %.2fx speedup\n"
        label m.Report.jobs m.Report.wall_s m.Report.speedup

let check baseline current max_drop max_jain_drop min_jain require_all =
  match (load baseline, load current) with
  | Error msg, _ | _, Error msg ->
      prerr_endline ("bench_check: " ^ msg);
      exit 2
  | Ok base, Ok cur ->
      pp_meta "baseline" base;
      pp_meta "current" cur;
      (* own-gate experiments (verify counters, native wall clock,
         fault classes, per-phase matrices, sojourn histograms): print
         each through its registered printer, preferring the current
         report's copy, and re-run its gate on the current copy *)
      let rejudged =
        (* a printer or gate that trips over an archive means the
           archive lacks what its experiment writes: invalid input *)
        match
          Registry.recheck Format.std_formatter ~baseline:base ~current:cur
        with
        | v -> v
        | exception (Not_found | Failure _ | Invalid_argument _) ->
            Format.pp_print_flush Format.std_formatter ();
            prerr_endline
              "bench_check: an archived experiment lacks the series or \
               meta its printer reads";
            exit 2
      in
      Format.pp_print_flush Format.std_formatter ();
      List.iter (fun v -> prerr_endline ("bench_check: " ^ v)) rejudged;
      let fail_on_gates () =
        if rejudged <> [] then begin
          Printf.eprintf "bench_check: %d archived gate violation(s)\n"
            (List.length rejudged);
          exit 1
        end
      in
      (* the regression join runs only on joining experiments: the rest
         are judged by their own gates above *)
      let base = Registry.gated base and cur = Registry.gated cur in
      let cur_points = flatten cur in
      let find key =
        List.find_opt (fun k -> k.key = key) cur_points
        |> Option.map (fun k -> k.point)
      in
      let compared = ref 0 in
      let missing = ref 0 in
      let violations = ref [] in
      let violate fmt =
        Printf.ksprintf (fun s -> violations := s :: !violations) fmt
      in
      List.iter
        (fun { key; point = b } ->
          match find key with
          | None ->
              incr missing;
              Printf.eprintf "bench_check: warning: %s in baseline only\n"
                (pp_key key)
          | Some c ->
              incr compared;
              if b.Report.throughput > 0.0 then begin
                let drop =
                  100.0
                  *. (b.Report.throughput -. c.Report.throughput)
                  /. b.Report.throughput
                in
                if drop > max_drop then
                  violate
                    "%s: throughput %.4f -> %.4f ops/us (-%.1f%%, limit \
                     %.1f%%)"
                    (pp_key key) b.Report.throughput c.Report.throughput
                    drop max_drop
              end;
              let jain_drop = b.Report.jain -. c.Report.jain in
              if jain_drop > max_jain_drop then
                violate "%s: fairness %.4f -> %.4f (drop %.4f, limit %.4f)"
                  (pp_key key) b.Report.jain c.Report.jain jain_drop
                  max_jain_drop;
              if c.Report.jain < min_jain then
                violate "%s: fairness %.4f below floor %.4f" (pp_key key)
                  c.Report.jain min_jain)
        (flatten base);
      if !compared = 0 then
        if flatten base = [] && flatten cur = [] then begin
          (* archives with no gateable experiments (verify-only, kv-only,
             ...): the gates re-run above are all there is *)
          fail_on_gates ();
          print_endline "bench_check: OK — no gateable points";
          exit 0
        end
        else begin
          prerr_endline
            "bench_check: no comparable points (different experiments, \
             locks or thread grids?)";
          exit 1
        end;
      if require_all && !missing > 0 then begin
        Printf.eprintf
          "bench_check: %d baseline point(s) unmatched in current \
           (--require-all)\n"
          !missing;
        exit 1
      end;
      List.iter prerr_endline (List.rev !violations);
      if !violations <> [] then begin
        Printf.eprintf "bench_check: %d regression(s) over %d point(s)\n"
          (List.length !violations) !compared;
        exit 1
      end;
      fail_on_gates ();
      Printf.printf
        "bench_check: OK — %d point(s) within -%.1f%% throughput / %.2f \
         fairness drop%s\n"
        !compared max_drop max_jain_drop
        (if !missing > 0 then
           Printf.sprintf " (%d baseline point(s) unmatched)" !missing
         else "")

open Cmdliner

let baseline =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"BASELINE" ~doc:"Reference report (clof_bench report).")

let current =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"CURRENT" ~doc:"Report under test.")

let max_drop =
  Arg.(
    value & opt float 10.0
    & info [ "max-drop" ] ~docv:"PCT"
        ~doc:
          "Maximum tolerated throughput drop per point, in percent of \
           the baseline.")

let max_jain_drop =
  Arg.(
    value & opt float 0.2
    & info [ "max-jain-drop" ] ~docv:"D"
        ~doc:
          "Maximum tolerated drop of the Jain fairness index per point \
           (absolute difference, index is in [1/n, 1]).")

let min_jain =
  Arg.(
    value & opt float 0.0
    & info [ "min-jain" ] ~docv:"J"
        ~doc:
          "Absolute fairness floor: fail if any current point's Jain \
           index is below J (0 disables).")

let require_all =
  Arg.(
    value & flag
    & info [ "require-all" ]
        ~doc:
          "Fail when any baseline point has no matching point in the \
           current report (instead of only warning). With \
           $(b,--max-drop) 0 and $(b,--max-jain-drop) 0, two reports \
           with identical series pass in both directions only if they \
           are point-for-point equal.")

let main =
  let doc =
    "Compare two clof_bench JSON reports and fail on throughput or \
     fairness regressions"
  in
  Cmd.v
    (Cmd.info "bench_check" ~doc ~version:"1.0.0")
    Term.(
      const check $ baseline $ current $ max_drop $ max_jain_drop
      $ min_jain $ require_all)

let () = exit (Cmd.eval main)
