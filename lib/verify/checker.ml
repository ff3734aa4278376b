(* Systematic scheduler for scenarios written against Vmem. Two
   exploration strategies share one execution engine (run_once):

   - Naive: the original bounded DFS — branch on every affordable
     choice at every point. Kept as a differential-testing oracle.
   - Dpor: dynamic partial-order reduction (Flanagan & Godefroid,
     POPL 2005) with sleep sets. One representative per
     Mazurkiewicz-trace equivalence class, plus the schedules forced by
     detected races; store-buffer flushes are modeled as actions of a
     per-thread "buffer proc" so TSO reorderings are first-class.

   The preemption/delay bounds apply identically under both strategies:
   the enabled sets DPOR reasons about are the *affordable* sets, so
   bounded DPOR prunes relative to the bounded naive search (and, like
   all bounded search, is exhaustive only when the bounds are off).

   Every execution after the first re-runs the prefix it shares with an
   earlier one. run_once replays that prefix without recording it, and
   the DPOR analysis resumes at the divergence point from the state its
   node kept, so an execution costs its replay plus work proportional
   to its new suffix. *)

type strategy = Naive | Dpor

type config = {
  mode : Vstate.mode;
  preemption_bound : int;
  delay_bound : int;
  max_executions : int;
  max_steps : int;
  strategy : strategy;
}

module Config = struct
  type t = config

  let make ?(mode = Vstate.Sc) () =
    {
      mode;
      preemption_bound = 2;
      delay_bound = 2;
      max_executions = 100_000;
      max_steps = 5_000;
      strategy = Dpor;
    }

  let with_mode mode t = { t with mode }
  let with_preemptions n t = { t with preemption_bound = n }
  let with_delays n t = { t with delay_bound = n }
  let with_strategy strategy t = { t with strategy }

  let with_budget ?executions ?steps t =
    {
      t with
      max_executions = Option.value executions ~default:t.max_executions;
      max_steps = Option.value steps ~default:t.max_steps;
    }

  let mode t = t.mode
  let preemptions t = t.preemption_bound
  let delays t = t.delay_bound
  let strategy t = t.strategy
  let max_executions t = t.max_executions
  let max_steps t = t.max_steps
end

let default = Config.make ()

let sc ?(preemptions = 2) () =
  { (Config.make ~mode:Vstate.Sc ()) with preemption_bound = preemptions }

let tso ?(preemptions = 2) ?(delays = 2) () =
  {
    (Config.make ~mode:Vstate.Tso ()) with
    preemption_bound = preemptions;
    delay_bound = delays;
  }

let relaxed ?(preemptions = 2) ?(delays = 2) () =
  {
    (Config.make ~mode:Vstate.Relaxed ()) with
    preemption_bound = preemptions;
    delay_bound = delays;
  }

type violation =
  | Property of string
  | Deadlock of string
  | Runaway of string
  | Crash of string

type report = {
  name : string;
  strategy : strategy;
  executions : int;
  steps : int;
  replayed : int; (* of steps: re-executed to reach a divergence point *)
  complete : int;
      (* executions that ran to quiescence: distinct full traces *)
  pruned : int;
      (* executions cut short: sleep-blocked, or the fairness pruner *)
  sleep_hits : int; (* scheduling choices skipped because they slept *)
  races : int; (* backtrack points scheduled from detected races *)
  violation : (violation * string list) option;
  truncated : bool;
  exhaustive : bool;
      (* the exploration frontier drained: every schedule within the
         preemption/delay bounds was covered. Structurally false
         whenever [truncated] (the execution budget cut the frontier)
         or a violation stopped the search early — a truncated run can
         never claim completeness. *)
  seconds : float;
}

(* Step: run a thread. Flush: commit the FIFO head of a thread's store
   buffer (TSO). Flush_obj: commit a thread's oldest buffered store to
   one location (Relaxed — the buffer is FIFO per location only, so
   each buffered location is its own flush choice and stores to
   different locations commit in either order). Object ids are
   run-deterministic, so a Flush_obj denotes the same transition when a
   prefix is replayed. *)
type choice = Step of int | Flush of int | Flush_obj of int * int

let cs_enter () =
  let run = Vstate.the_run () in
  run.in_cs <- run.in_cs + 1;
  if run.in_cs > 1 then
    raise (Vstate.Prop_violation "mutual exclusion violated")

let cs_exit () =
  let run = Vstate.the_run () in
  run.in_cs <- run.in_cs - 1

(* ------------------------------------------------------------------ *)
(* Dependence                                                          *)
(* ------------------------------------------------------------------ *)

let inter a b = List.exists (fun x -> List.mem x b) a

(* Two accesses conflict iff executing them in either order can differ:
   write/write or read/write on a shared object, or a pause against any
   committing write (pause enabledness watches the global write
   counter, so every write is treated as potentially waking it — a
   sound overapproximation that costs exploration, never misses
   schedules). Buffer inserts are invisible to other threads and never
   conflict; their ordering constraint is carried by the insert→flush
   happens-before edge instead. *)
let conflicts (a : Vstate.access) (b : Vstate.access) =
  inter a.Vstate.writes b.Vstate.writes
  || inter a.Vstate.writes b.Vstate.reads
  || inter a.Vstate.reads b.Vstate.writes
  || (a.Vstate.wakes && b.Vstate.writes <> [])
  || (b.Vstate.wakes && a.Vstate.writes <> [])
  (* two pauses don't commute either: resuming one spinner flips the
     only-party-left enabledness of the other, and deadlock detection
     (all_spun) needs the schedules where starved spinners get their
     turn inside the no-write window *)
  || (a.Vstate.wakes && b.Vstate.wakes)

(* ------------------------------------------------------------------ *)
(* One execution                                                       *)
(* ------------------------------------------------------------------ *)

(* What run_once records at each trace position from the divergence
   point on, for the DPOR analysis: the transition executed, what it
   accessed, the affordable alternatives (with their pending accesses),
   and the sleep set in force when the position's state was entered. *)
type pos_info = {
  pi_choice : choice;
  pi_access : Vstate.access;
  pi_enabled : (choice * Vstate.access) list;
  pi_sleep : (choice * Vstate.access) list;
  pi_wrote : bool;
      (* the step actually committed a write (a failed CAS declares
         writes but commits nothing — pauses it precedes stay live) *)
}

type exec_result = {
  taken : choice array;
  branch : (int * choice list) list; (* naive: untried alternatives *)
  infos : pos_info array;
      (* dpor: one record per position from the last prefix entry on
         (the root on a first run); the replayed prefix records none *)
  nthreads : int;
  end_pending : (choice * Vstate.access) list;
      (* transitions still pending when the run was cut by the bounds:
         they never executed, but may still race with executed events *)
  bad : (violation * string list) option;
  nsteps : int;
  replayed : int; (* of nsteps: steps replayed before the divergence *)
  sleep_hits : int;
  complete : bool; (* ran to quiescence *)
  cut : bool; (* sleep-blocked or fairness-pruned: proves nothing *)
}

exception Abort_run of violation
exception Prune
(* an unfair schedule ran a spinner unboundedly while another thread
   could have progressed: cut the path, it proves nothing *)

(* A paused spinner resumes when something was committed since it
   paused — the fairness assumption behind every spinloop — or when
   nothing else in the system can possibly act (it is the only party
   left, so spinning on is its own business). *)
let pause_enabled (run : Vstate.run) (th : Vstate.thread) snap () =
  run.Vstate.writes <> snap
  ||
  let others_can_act = ref (not (Queue.is_empty th.Vstate.buffer)) in
  Array.iter
    (fun (o : Vstate.thread) ->
      if o.Vstate.tid <> th.Vstate.tid then begin
        if not (Queue.is_empty o.Vstate.buffer) then others_can_act := true;
        match o.Vstate.status with
        | Vstate.Finished -> ()
        | Vstate.Waiting ("pause", _, _, _) -> ()
        | Vstate.Waiting (_, _, pred, _) ->
            if pred () then others_can_act := true
        | Vstate.Not_started _ | Vstate.Ready _ -> others_can_act := true
      end)
    run.Vstate.threads;
  not !others_can_act

let pause_access = { Vstate.no_access with wakes = true }

let resume (th : Vstate.thread) k =
  Vstate.set_tid th.Vstate.tid;
  Effect.Deep.continue k ()

exception Abandoned

(* A fiber still suspended when its run ends keeps its stack until it
   is resumed or discontinued: dropping the continuation would leak it,
   once per thread per pruned or cut execution. *)
let abandon (th : Vstate.thread) =
  match th.Vstate.status with
  | Vstate.Ready (_, _, k) | Vstate.Waiting (_, _, _, k) -> (
      th.Vstate.status <- Vstate.Finished;
      Vstate.set_tid th.Vstate.tid;
      (* the run's outcome is already recorded: whatever the unwinding
         raises is moot *)
      try Effect.Deep.discontinue k Abandoned with _ -> ())
  | Vstate.Not_started _ | Vstate.Finished -> ()

let spawn (run : Vstate.run) (th : Vstate.thread) body =
  Vstate.set_tid th.tid;
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> th.status <- Vstate.Finished);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Vstate.Op (desc, access) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  th.status <- Vstate.Ready (desc, access, k))
          | Vstate.Await_op (desc, access, pred) ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  th.status <- Vstate.Waiting (desc, access, pred, k))
          | Vstate.Pause_op ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  let snap = run.Vstate.writes in
                  th.status <-
                    Vstate.Waiting
                      ("pause", pause_access, pause_enabled run th snap, k))
          | _ -> None);
    }

let trace_of (run : Vstate.run) =
  List.rev_map
    (fun (tid, desc) -> Printf.sprintf "t%d: %s" tid desc)
    run.trace

let desc_of (th : Vstate.thread) =
  match th.status with
  | Vstate.Not_started _ -> "start"
  | Vstate.Ready (d, _, _) -> d
  | Vstate.Waiting (d, _, _, _) -> d
  | Vstate.Finished -> "done"

let run_once cfg scenario ~sleep0 (prefix : choice array) =
  let run =
    {
      Vstate.mode = cfg.mode;
      threads = [||];
      in_cs = 0;
      trace = [];
      writes = 0;
      steps_since_write = 0;
      next_obj = 0;
    }
  in
  Vstate.set_current (Some run);
  let finally () =
    Array.iter abandon run.Vstate.threads;
    Vstate.set_current None
  in
  Fun.protect ~finally @@ fun () ->
  let bodies = scenario () in
  let threads =
    Array.of_list
      (List.mapi
         (fun i body ->
           {
             Vstate.tid = i;
             status = Vstate.Not_started body;
             buffer = Queue.create ();
             steps = 0;
             window_steps = 0;
           })
         bodies)
  in
  run.threads <- threads;
  let plen = Array.length prefix in
  let dpor = cfg.strategy = Dpor in
  let taken = ref [] in
  let branch = ref [] in
  let infos = ref [] in
  let sleep = ref sleep0 in
  let sleep_hits = ref 0 in
  let complete = ref false in
  let cut = ref false in
  let end_pending = ref [] in
  let nsteps = ref 0 in
  let replayed = ref 0 in
  let unbounded b = b < 0 in
  (* cost of a choice: (preemptions, delays) *)
  let cost last = function
    | Flush _ | Flush_obj _ -> (0, 0)
    | Step i ->
        let p =
          if last < 0 || i = last then 0
          else begin
            (* switching away from a thread that could still run is a
               preemption *)
            let lt = threads.(last) in
            match lt.Vstate.status with
            | Vstate.Ready _ -> 1
            | Vstate.Waiting (_, _, pred, _) -> if pred () then 1 else 0
            | Vstate.Not_started _ -> 1
            | Vstate.Finished -> 0
          end
        in
        let d =
          if
            cfg.mode <> Vstate.Sc
            && not (Queue.is_empty threads.(i).Vstate.buffer)
          then 1
          else 0
        in
        (p, d)
  in
  let flush_access th =
    match Queue.peek_opt th.Vstate.buffer with
    | Some (_, obj, _) -> { Vstate.no_access with writes = [ obj ] }
    | None -> Vstate.no_access
  in
  (* relaxed mode: one flush choice per distinct buffered location *)
  let flush_choices th =
    let seen = ref [] in
    Queue.iter
      (fun (_, obj, _) ->
        if not (List.mem obj !seen) then seen := obj :: !seen)
      th.Vstate.buffer;
    List.rev_map
      (fun obj ->
        ( Flush_obj (th.Vstate.tid, obj),
          { Vstate.no_access with writes = [ obj ] } ))
      !seen
  in
  let buffer_choices th acc =
    if Queue.is_empty th.Vstate.buffer then acc
    else
      match cfg.mode with
      | Vstate.Sc -> acc
      | Vstate.Tso -> (Flush th.Vstate.tid, flush_access th) :: acc
      | Vstate.Relaxed -> flush_choices th @ acc
  in
  let enabled () =
    let acc = ref [] in
    Array.iter
      (fun th ->
        (match th.Vstate.status with
        | Vstate.Not_started _ ->
            acc := (Step th.Vstate.tid, Vstate.no_access) :: !acc
        | Vstate.Ready (_, a, _) -> acc := (Step th.Vstate.tid, a) :: !acc
        | Vstate.Waiting (_, a, pred, _) ->
            if pred () then acc := (Step th.Vstate.tid, a) :: !acc
        | Vstate.Finished -> ());
        acc := buffer_choices th !acc)
      threads;
    List.rev !acc
  in
  (* every unfinished thread's next transition, enabled or not: when
     the bounds cut a run, these may still race with executed events
     and must seed backtrack points (they never execute again) *)
  let gather_pending () =
    let acc = ref [] in
    Array.iter
      (fun th ->
        (match th.Vstate.status with
        | Vstate.Not_started _ ->
            acc := (Step th.Vstate.tid, Vstate.no_access) :: !acc
        | Vstate.Ready (_, a, _) | Vstate.Waiting (_, a, _, _) ->
            acc := (Step th.Vstate.tid, a) :: !acc
        | Vstate.Finished -> ());
        acc := buffer_choices th !acc)
      threads;
    !acc
  in
  let execute = function
    | Flush i ->
        let th = threads.(i) in
        let desc, _, commit = Queue.pop th.Vstate.buffer in
        run.trace <- (i, desc) :: run.trace;
        commit ()
    | Flush_obj (i, obj) ->
        (* commit the oldest buffered store to [obj]; entries for other
           locations keep their places *)
        let th = threads.(i) in
        let keep = Queue.create () in
        let popped = ref None in
        Queue.iter
          (fun ((desc, o, commit) as e) ->
            if o = obj && !popped = None then popped := Some (desc, commit)
            else Queue.add e keep)
          th.Vstate.buffer;
        Queue.clear th.Vstate.buffer;
        Queue.transfer keep th.Vstate.buffer;
        (match !popped with
        | Some (desc, commit) ->
            run.trace <- (i, desc) :: run.trace;
            commit ()
        | None -> assert false)
    | Step i -> (
        let th = threads.(i) in
        th.Vstate.steps <- th.Vstate.steps + 1;
        incr nsteps;
        if th.Vstate.steps > cfg.max_steps then
          raise
            (Abort_run
               (Runaway
                  (Printf.sprintf "t%d exceeded %d steps at '%s'" i
                     cfg.max_steps (desc_of th))));
        run.steps_since_write <- run.steps_since_write + 1;
        th.Vstate.window_steps <- th.Vstate.window_steps + 1;
        if run.steps_since_write > max 256 (32 * Array.length threads)
        then begin
          (* nothing has been written for a long time: a real spinloop
             failure only if every live thread had its fair share of
             the window and still wrote nothing; otherwise this is just
             an unfair schedule *)
          let all_spun = ref true in
          Array.iter
            (fun o ->
              if
                o.Vstate.status <> Vstate.Finished
                && o.Vstate.window_steps < 8
              then all_spun := false;
              (* a non-empty store buffer can still commit a write, so
                 "nothing is ever written" would be wrong *)
              if not (Queue.is_empty o.Vstate.buffer) then
                all_spun := false)
            threads;
          if !all_spun then
            raise
              (Abort_run
                 (Deadlock
                    "threads keep spinning but nothing is ever written \
                     — a spinloop no schedule can release"))
          else raise Prune
        end;
        run.trace <- (i, desc_of th) :: run.trace;
        match th.Vstate.status with
        | Vstate.Not_started body ->
            th.Vstate.status <- Vstate.Finished;
            (* placeholder; spawn sets the real status *)
            spawn run th body
        | Vstate.Ready (_, _, k) | Vstate.Waiting (_, _, _, k) ->
            th.Vstate.status <- Vstate.Finished;
            resume th k
        | Vstate.Finished -> assert false)
  in
  let next_last last = function
    | Step i -> i
    | Flush _ | Flush_obj _ -> last
  in
  let outcome = ref None in
  (try
     (* replay: a prefix is a deterministic function of its choices and
        every one was affordable when it was recorded, so it only needs
        executing and its cost charging — no enabled or sleep sets, no
        record. The last prefix entry is the divergence choice: it goes
        through the recording loop, which the analysis reads it from *)
     let rec replay pos preempts delays last =
       if pos >= plen - 1 then loop pos preempts delays last
       else begin
         let chosen = prefix.(pos) in
         let p, d = cost last chosen in
         (match chosen with
         | Step _ -> incr replayed
         | Flush _ | Flush_obj _ -> ());
         taken := chosen :: !taken;
         execute chosen;
         replay (pos + 1) (preempts + p) (delays + d) (next_last last chosen)
       end
     and loop pos preempts delays last =
       let all = enabled () in
       if all = [] then begin
         let stuck =
           Array.to_list threads
           |> List.filter (fun th -> th.Vstate.status <> Vstate.Finished)
         in
         if stuck <> [] then
           raise
             (Abort_run
                (Deadlock
                   (String.concat ", "
                      (List.map
                         (fun th ->
                           Printf.sprintf "t%d blocked at '%s'"
                             th.Vstate.tid (desc_of th))
                         stuck))));
         complete := true
       end
       else begin
         let affordable =
           List.filter
             (fun (c, _) ->
               let p, d = cost last c in
               (unbounded cfg.preemption_bound
               || preempts + p <= cfg.preemption_bound)
               && (unbounded cfg.delay_bound
                  || delays + d <= cfg.delay_bound))
             all
         in
         if affordable = [] then
           (* cut off by the bounds; not a violation *)
           end_pending := gather_pending ()
         else begin
           let decision =
             if pos < plen then Some prefix.(pos)
             else begin
               let awake =
                 List.filter
                   (fun (c, _) ->
                     not (List.exists (fun (s, _) -> s = c) !sleep))
                   affordable
               in
               sleep_hits :=
                 !sleep_hits
                 + (List.length affordable - List.length awake);
               match awake with
               | [] ->
                   (* every affordable choice sleeps: this state's whole
                      subtree was already covered from a sibling *)
                   cut := true;
                   None
               | _ ->
                   let free =
                     List.filter
                       (fun (c, _) -> cost last c = (0, 0))
                       awake
                   in
                   (* rotate among free steps by window share so default
                      schedules are fair to spinners *)
                   let weight = function
                     | Flush _ | Flush_obj _ -> -1
                     | Step i -> threads.(i).Vstate.window_steps
                   in
                   let pick =
                     match List.map fst free with
                     | [] -> fst (List.hd awake)
                     | c :: rest ->
                         List.fold_left
                           (fun best c ->
                             if weight c < weight best then c else best)
                           c rest
                   in
                   if not dpor then begin
                     let rest =
                       List.filter_map
                         (fun (c, _) -> if c <> pick then Some c else None)
                         affordable
                     in
                     if rest <> [] then branch := (pos, rest) :: !branch
                   end;
                   Some pick
             end
           in
           match decision with
           | None -> ()
           | Some chosen ->
               (* a prefix choice was affordable when recorded, so it is
                  in [all] like a fresh one *)
               let access = List.assoc chosen all in
               let p, d = cost last chosen in
               taken := chosen :: !taken;
               let writes_before = run.Vstate.writes in
               execute chosen;
               let wrote = run.Vstate.writes > writes_before in
               (* reads-from refinement: declared accesses
                  over-approximate; once executed we know whether the
                  step committed anything. A failed CAS (or a CAS whose
                  reservation was lost) declared a write but acted as a
                  pure read — retiring sleepers against the executed
                  access keeps them asleep across it, exactly as GenMC
                  treats a failed RMW as its read component. *)
               let eff =
                 if wrote then access
                 else { access with Vstate.writes = [] }
               in
               if dpor then
                 infos :=
                   {
                     pi_choice = chosen;
                     pi_access = access;
                     pi_enabled = affordable;
                     pi_sleep = !sleep;
                     pi_wrote = wrote;
                   }
                   :: !infos;
               if dpor && pos >= plen then
                 sleep :=
                   List.filter
                     (fun (_, sa) -> not (conflicts sa eff))
                     !sleep;
               loop (pos + 1) (preempts + p) (delays + d)
                 (next_last last chosen)
         end
       end
     in
     replay 0 0 0 (-1)
   with
  | Abort_run v -> outcome := Some (v, trace_of run)
  | Prune ->
      cut := true;
      end_pending := gather_pending ()
  | Vstate.Prop_violation msg ->
      outcome := Some (Property msg, trace_of run)
  | Stack_overflow -> outcome := Some (Crash "stack overflow", trace_of run)
  | e when e <> Out_of_memory ->
      outcome := Some (Crash (Printexc.to_string e), trace_of run));
  {
    taken = Array.of_list (List.rev !taken);
    branch = !branch;
    infos = Array.of_list (List.rev !infos);
    nthreads = Array.length threads;
    end_pending = !end_pending;
    bad = !outcome;
    nsteps = !nsteps;
    replayed = !replayed;
    sleep_hits = !sleep_hits;
    complete = !complete;
    cut = !cut;
  }

(* CPU seconds of this domain only: checks run in parallel on the
   executor, and process CPU time would count every domain's work *)
let seconds_since t0 =
  float_of_int (Clof_atomics.Clock.thread_cpu_ns () - t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Naive bounded DFS (the differential-testing oracle)                 *)
(* ------------------------------------------------------------------ *)

let naive_check config name scenario =
  let t0 = Clof_atomics.Clock.thread_cpu_ns () in
  let executions = ref 0 in
  let steps = ref 0 in
  let replayed = ref 0 in
  let complete = ref 0 in
  let pruned = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  let stack = ref [ [||] ] in
  let rec go () =
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        if !executions >= config.max_executions then truncated := true
        else begin
          incr executions;
          let r = run_once config scenario ~sleep0:[] prefix in
          steps := !steps + r.nsteps;
          replayed := !replayed + r.replayed;
          if r.complete then incr complete;
          if r.cut then incr pruned;
          match r.bad with
          | Some v -> violation := Some v
          | None ->
              (* push deepest first so the stack pops the shallowest:
                 weak-memory divergences live near the root, and this
                 order reaches them before the deep spin tails *)
              List.iter
                (fun (pos, alts) ->
                  List.iter
                    (fun alt ->
                      let prefix' = Array.sub r.taken 0 pos in
                      stack := Array.append prefix' [| alt |] :: !stack)
                    alts)
                r.branch;
              go ()
        end
  in
  go ();
  {
    name;
    strategy = Naive;
    executions = !executions;
    steps = !steps;
    replayed = !replayed;
    complete = !complete;
    pruned = !pruned;
    sleep_hits = 0;
    races = 0;
    violation = !violation;
    truncated = !truncated;
    exhaustive = (not !truncated) && !violation = None;
    seconds = seconds_since t0;
  }

(* ------------------------------------------------------------------ *)
(* DPOR                                                                *)
(* ------------------------------------------------------------------ *)

module Imap = Map.Make (Int)

module Lane = Map.Make (struct
  type t = int * int

  let compare (a, b) (c, d) =
    match Int.compare a c with 0 -> Int.compare b d | k -> k
end)

(* What the vector-clock pass carries from one trace position to the
   next. Events are named by trace position (an event's clock is its
   node's nd_vc) and the maps are persistent, so every node can keep
   the state before its event and the analysis of the next execution
   resumes at the divergence point instead of re-running the prefix. *)
type astate = {
  proc_last : int Imap.t; (* proc -> its last event *)
  last_write : int Imap.t; (* object -> its last committing write *)
  reads_since : int list Imap.t; (* object -> the reads since that write *)
  last_any_write : int option; (* the wakes pseudo-object *)
  pauses_since : int list; (* pauses no commit has retired yet *)
  inserts : int list Lane.t;
      (* (thread, object) -> buffered stores awaiting their flush, oldest
         first: under TSO the whole-buffer FIFO refines to this, under
         Relaxed it is the flush granularity *)
}

let astate0 =
  {
    proc_last = Imap.empty;
    last_write = Imap.empty;
    reads_since = Imap.empty;
    last_any_write = None;
    pauses_since = [];
    inserts = Lane.empty;
  }

(* One node per position of the current exploration path. nd_enabled is
   the affordable set observed when the node's state was first reached
   (the state is a deterministic function of the choices before it, so
   the set never changes across visits); nd_pre, the analysis state
   before the position, is such a function too. nd_sleep is the node's
   live sleep set: the inherited sleep-in plus every sibling choice
   whose subtree is already fully explored. nd_eff and nd_vc describe
   the event of the current choice once it has been analysed. *)
type node = {
  nd_enabled : (choice * Vstate.access) list;
  nd_pre : astate;
  mutable nd_choice : choice;
  mutable nd_access : Vstate.access;
  mutable nd_backtrack : choice list;
  mutable nd_done : choice list;
  mutable nd_sleep : (choice * Vstate.access) list;
  mutable nd_eff : Vstate.access;
      (* executed (reads-from-refined) access: a step that committed
         nothing acted as a pure read whatever it declared *)
  mutable nd_vc : int array; (* post-join clock *)
}

(* Clock entries hold trace positions, so "event at position i by proc
   q happens-before the clock's point" is just i <= clock_at vc q.
   Clocks are as long as the proc count when they were made; procs
   numbered later have no entry yet. *)
let clock_at (vc : int array) q = if q < Array.length vc then vc.(q) else -1

let join dst (src : int array) =
  for k = 0 to Array.length src - 1 do
    if src.(k) > dst.(k) then dst.(k) <- src.(k)
  done

let dpor_check cfg name scenario =
  let t0 = Clof_atomics.Clock.thread_cpu_ns () in
  let executions = ref 0 in
  let steps = ref 0 in
  let replayed = ref 0 in
  let complete = ref 0 in
  let pruned = ref 0 in
  let sleep_hits = ref 0 in
  let races = ref 0 in
  let truncated = ref false in
  let violation = ref None in
  (* growable path of nodes (OCaml 5.1: no Dynarray yet) *)
  let path = ref (Array.make 256 None) in
  let plen = ref 0 in
  let node d =
    match !path.(d) with Some nd -> nd | None -> assert false
  in
  let push nd =
    if !plen = Array.length !path then begin
      let bigger = Array.make (2 * !plen) None in
      Array.blit !path 0 bigger 0 !plen;
      path := bigger
    end;
    !path.(!plen) <- Some nd;
    incr plen
  in
  let run_with prefix sleep0 =
    incr executions;
    let r = run_once cfg scenario ~sleep0 prefix in
    steps := !steps + r.nsteps;
    replayed := !replayed + r.replayed;
    sleep_hits := !sleep_hits + r.sleep_hits;
    if r.complete then incr complete;
    if r.cut then incr pruned;
    (match r.bad with Some v -> violation := Some v | None -> ());
    r
  in
  let r0 = run_with [||] [] in
  (* Procs are 2*tid for the thread and 2*tid+1 for its store buffer
     (TSO: the buffer is one FIFO, so one sequential proc is exact).
     Under Relaxed the buffer is FIFO only per location, so every
     (thread, object) flush lane is its own proc, numbered on first
     sight for the whole check — sharing one proc index would thread a
     false happens-before from a flush into the next flush of an
     unrelated location, hiding the store-store reordering from race
     detection (a waiter woken by the second flush would look ordered
     after the first, and the stale-read reversal would never be
     scheduled). *)
  let lanes : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let nprocs = ref (2 * r0.nthreads) in
  let proc = function
    | Step i -> 2 * i
    | Flush i -> (2 * i) + 1
    | Flush_obj (i, obj) -> (
        match Hashtbl.find_opt lanes (i, obj) with
        | Some p -> p
        | None ->
            let p = !nprocs in
            incr nprocs;
            Hashtbl.add lanes (i, obj) p;
            p)
  in
  let vc_of i = (node i).nd_vc in
  let flushed_obj (a : Vstate.access) =
    match a.Vstate.writes with [ obj ] -> Some obj | _ -> None
  in
  let candidates st (a : Vstate.access) =
    let cs = ref [] in
    let last_write x =
      match Imap.find_opt x st.last_write with
      | Some i -> cs := i :: !cs
      | None -> ()
    in
    List.iter last_write a.Vstate.reads;
    List.iter
      (fun x ->
        last_write x;
        match Imap.find_opt x st.reads_since with
        | Some rs -> cs := rs @ !cs
        | None -> ())
      a.Vstate.writes;
    if a.Vstate.wakes then begin
      (match st.last_any_write with Some i -> cs := i :: !cs | None -> ());
      (* pause-pause races: every unretired pause, not just the last —
         reversing deep ones alone is too late for the starved spinner
         to share the no-write window *)
      cs := st.pauses_since @ !cs
    end;
    if a.Vstate.writes <> [] then cs := st.pauses_since @ !cs;
    List.sort_uniq compare !cs
  in
  (* To reverse the race between the event at position [at] and the
     later conflicting transition [later], it is not enough to schedule
     proc-of-[later] at node [at]: if that choice is sleeping there,
     [later] can still depend on intermediate independent events that
     must come first (and that the sleeping subtree, rooted at an
     ancestor, schedules differently).  This is the source-set condition
     of Abdulla et al. (POPL'14): let v = notdep(e_at)·later — the
     events after [at] that do not happen-after it, then the later
     transition itself — and add an initial of v (an event no other
     v-event happens-before) to the backtrack set.  Proc-of-[later]
     alone is only correct when it is such an initial. *)
  let initials at ~upto later_choice later_access =
    let qi = proc (node at).nd_choice in
    let np = !nprocs in
    (* first v-event per proc; each is that proc's first transition
       after [at], so its choice is affordable-at-[at] shaped *)
    let first_v = Array.make np (-1) in
    let inits = ref [] in
    let later_dep = ref false in
    for k = at + 1 to upto - 1 do
      let ek = node k in
      let kc = ek.nd_vc in
      if clock_at kc qi < at then begin
        (* e_k ∈ v *)
        if conflicts ek.nd_eff later_access then later_dep := true;
        let pk = proc ek.nd_choice in
        if first_v.(pk) < 0 then begin
          first_v.(pk) <- k;
          let pred = ref false in
          for q = 0 to np - 1 do
            if q <> pk && first_v.(q) >= 0 && first_v.(q) <= clock_at kc q
            then pred := true
          done;
          if not !pred then inits := ek.nd_choice :: !inits
        end
      end
    done;
    let inits = List.rev !inits in
    (* prefer proc-of-[later] itself when it qualifies: reversing the
       race directly keeps the search order close to plain
       Flanagan-Godefroid *)
    if first_v.(proc later_choice) < 0 && not !later_dep then
      later_choice :: inits
    else inits
  in
  let flag at ~upto later_choice later_access =
    let nd = node at in
    let covered c = List.mem c nd.nd_done || List.mem c nd.nd_backtrack in
    let sleeping c = List.exists (fun (s, _) -> s = c) nd.nd_sleep in
    let add c =
      nd.nd_backtrack <- c :: nd.nd_backtrack;
      incr races
    in
    (* only an untried, awake alternative can be added: once every one
       is covered or asleep (the common case in long spins), the scan
       for initials cannot change anything *)
    if List.exists (fun (c, _) -> not (covered c || sleeping c)) nd.nd_enabled
    then
      match
        List.filter
          (fun c -> List.mem_assoc c nd.nd_enabled)
          (initials at ~upto later_choice later_access)
      with
      | [] ->
          (* no initial is schedulable at [at]: conservatively try every
             untried alternative (the Flanagan-Godefroid else-branch) *)
          List.iter
            (fun (c, _) -> if not (covered c) && not (sleeping c) then add c)
            nd.nd_enabled
      | cands ->
          if not (List.exists covered cands) then (
            match List.find_opt (fun c -> not (sleeping c)) cands with
            | Some c -> add c
            | None ->
                (* every initial sleeps: the reversal is reachable from
                   the ancestor that put them to sleep *)
                ())
  in
  let race_check st (cp : int array) ~upto c a =
    let p = proc c in
    List.iter
      (fun i ->
        let qi = proc (node i).nd_choice in
        if qi <> p && i > clock_at cp qi then flag i ~upto c a)
      (candidates st a)
  in
  (* Vector-clock pass over the events of an execution from position
     [from] on: detect races (conflicting accesses not ordered by
     happens-before) and schedule the reversal at the earlier access's
     node. r.infos.(0) is position [from] — the root, or the divergence
     point whose node now holds the new choice. Everything before
     [from] is the previous execution's prefix: its clocks and state
     are on the nodes, and its race checks already ran against exactly
     these events (nodes above the divergence keep their choice, done
     and sleep sets, and backtrack sets only grow, so re-running those
     checks would add nothing). *)
  let analyze from (r : exec_result) =
    let n = from + Array.length r.infos in
    if n > 0 then begin
      let st = ref (if from < !plen then (node from).nd_pre else astate0) in
      Array.iteri
        (fun k (info : pos_info) ->
          let j = from + k in
          let st0 = !st in
          let c = info.pi_choice in
          let a =
            if info.pi_wrote then info.pi_access
            else { info.pi_access with Vstate.writes = [] }
          in
          let nd =
            if j < !plen then node j
            else begin
              push
                {
                  nd_enabled = info.pi_enabled;
                  nd_pre = st0;
                  nd_choice = c;
                  nd_access = info.pi_access;
                  nd_backtrack = [];
                  nd_done = [ c ];
                  nd_sleep = info.pi_sleep;
                  nd_eff = a;
                  nd_vc = [||];
                };
              node j
            end
          in
          nd.nd_eff <- a;
          let p = proc c in
          let cp = Array.make !nprocs (-1) in
          (match Imap.find_opt p st0.proc_last with
          | Some i -> join cp (vc_of i)
          | None -> ());
          (* a flush happens after its insert: inherit that clock first *)
          let inserts =
            match (c, flushed_obj info.pi_access) with
            | (Flush i | Flush_obj (i, _)), Some obj -> (
                match Lane.find_opt (i, obj) st0.inserts with
                | Some (ins :: rest) ->
                    join cp (vc_of ins);
                    Lane.add (i, obj) rest st0.inserts
                | Some [] | None -> st0.inserts)
            | _ -> st0.inserts
          in
          race_check st0 cp ~upto:j c a;
          (* dependence edges into this event *)
          let join_at i = join cp (vc_of i) in
          List.iter
            (fun x -> Option.iter join_at (Imap.find_opt x st0.last_write))
            a.Vstate.reads;
          List.iter
            (fun x ->
              Option.iter join_at (Imap.find_opt x st0.last_write);
              Option.iter (List.iter join_at)
                (Imap.find_opt x st0.reads_since))
            a.Vstate.writes;
          if a.Vstate.wakes then begin
            Option.iter join_at st0.last_any_write;
            List.iter join_at st0.pauses_since
          end;
          if a.Vstate.writes <> [] then List.iter join_at st0.pauses_since;
          cp.(p) <- j;
          nd.nd_vc <- cp;
          let last_write, reads_since =
            List.fold_left
              (fun (lw, rs) x -> (Imap.add x j lw, Imap.add x [] rs))
              (st0.last_write, st0.reads_since)
              a.Vstate.writes
          in
          let reads_since =
            List.fold_left
              (fun rs x ->
                Imap.add x
                  (j :: Option.value (Imap.find_opt x rs) ~default:[])
                  rs)
              reads_since a.Vstate.reads
          in
          (* only an actual commit wakes (and thereby retires) earlier
             pauses; a failed CAS only declared the write *)
          let pauses = if info.pi_wrote then [] else st0.pauses_since in
          let inserts =
            match c with
            | Step i ->
                (* a committing step drains the buffer, retiring any
                   inserts a flush will now never pop *)
                let inserts =
                  if a.Vstate.writes <> [] then
                    Lane.filter (fun (t, _) _ -> t <> i) inserts
                  else inserts
                in
                List.fold_left
                  (fun ins obj ->
                    Lane.update (i, obj)
                      (fun q -> Some (Option.value q ~default:[] @ [ j ]))
                      ins)
                  inserts a.Vstate.inserts
            | Flush _ | Flush_obj _ -> inserts
          in
          st :=
            {
              proc_last = Imap.add p j st0.proc_last;
              last_write;
              reads_since;
              last_any_write =
                (if a.Vstate.writes <> [] then Some j
                 else st0.last_any_write);
              pauses_since = (if a.Vstate.wakes then j :: pauses else pauses);
              inserts;
            })
        r.infos;
      (* transitions left pending when the bounds cut the run never get
         a "next execution of their proc" to race-check from — do it
         here, against their proc's final clock *)
      let st = !st in
      List.iter
        (fun (c, a) ->
          let cp =
            match Imap.find_opt (proc c) st.proc_last with
            | Some i -> vc_of i
            | None -> [||]
          in
          let cp =
            match (c, flushed_obj a) with
            | (Flush i | Flush_obj (i, _)), Some obj -> (
                match Lane.find_opt (i, obj) st.inserts with
                | Some (ins :: _) ->
                    let cp' = Array.make !nprocs (-1) in
                    join cp' cp;
                    join cp' (vc_of ins);
                    cp'
                | Some [] | None -> cp)
            | _ -> cp
          in
          race_check st cp ~upto:n c a)
        r.end_pending
    end
  in
  if !violation = None then analyze 0 r0;
  let continue = ref (!violation = None) in
  while !continue do
    if !executions >= cfg.max_executions then begin
      truncated := true;
      continue := false
    end
    else begin
      (* deepest node with an unexplored backtrack candidate *)
      let d = ref (!plen - 1) in
      let found = ref None in
      while !found = None && !d >= 0 do
        let nd = node !d in
        (match
           List.find_opt
             (fun c ->
               (not (List.mem c nd.nd_done))
               && not (List.exists (fun (s, _) -> s = c) nd.nd_sleep))
             nd.nd_backtrack
         with
        | Some c -> found := Some (!d, c)
        | None -> decr d)
      done;
      match !found with
      | None -> continue := false
      | Some (d, c) ->
          let nd = node d in
          (* the subtree under the current choice is fully explored:
             siblings must not wander back into it *)
          nd.nd_sleep <- (nd.nd_choice, nd.nd_access) :: nd.nd_sleep;
          let c_access =
            match List.assoc_opt c nd.nd_enabled with
            | Some a -> a
            | None -> Vstate.no_access
          in
          nd.nd_choice <- c;
          nd.nd_access <- c_access;
          nd.nd_done <- c :: nd.nd_done;
          plen := d + 1;
          let prefix = Array.init (d + 1) (fun k -> (node k).nd_choice) in
          let sleep0 =
            List.filter
              (fun (_, sa) -> not (conflicts sa c_access))
              nd.nd_sleep
          in
          let r = run_with prefix sleep0 in
          if !violation = None then analyze d r else continue := false
    end
  done;
  {
    name;
    strategy = Dpor;
    executions = !executions;
    steps = !steps;
    replayed = !replayed;
    complete = !complete;
    pruned = !pruned;
    sleep_hits = !sleep_hits;
    races = !races;
    violation = !violation;
    truncated = !truncated;
    (* the while loop ends by truncation, by violation, or by draining
       the backtrack frontier — only the last is completeness *)
    exhaustive = (not !truncated) && !violation = None;
    seconds = seconds_since t0;
  }

let check ?(config = default) ~name scenario =
  match config.strategy with
  | Naive -> naive_check config name scenario
  | Dpor -> dpor_check config name scenario

let violation_to_string = function
  | Property m -> "property: " ^ m
  | Deadlock m -> "deadlock: " ^ m
  | Runaway m -> "runaway: " ^ m
  | Crash m -> "crash: " ^ m

let pp_report ppf r =
  Format.fprintf ppf "%-34s %8d execs %9d steps %6.2fs %s%s%s" r.name
    r.executions r.steps r.seconds
    (match r.violation with
    | None -> "ok"
    | Some (v, _) -> "VIOLATION " ^ violation_to_string v)
    (if r.truncated then " (truncated)"
     else if r.exhaustive then " (exhaustive)"
     else "")
    (match r.strategy with
    | Naive -> ""
    | Dpor ->
        Printf.sprintf
          " [dpor %d complete, %d pruned, %d races, %d sleep, %d replayed]"
          r.complete r.pruned r.races r.sleep_hits r.replayed)
