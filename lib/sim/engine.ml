open Clof_topology

type access =
  | Load
  | Store of { rmw : bool; order : Clof_atomics.Memory_order.t }
  | Rmw of { wrote : bool }

type fault =
  | Stall of { tid : int; at_op : int; ns : int }
  | Crash of { tid : int; at_op : int }
  | Crash_in_cs of { tid : int; after_op : int }

type injected = { i_tid : int; i_op : int; i_time : int; i_kind : string }

type outcome = {
  end_time : int;
  hung : bool;
  aborted : bool;
  blocked : (int * string) list;
  transfers : (Level.proximity * int) list;
  injected : injected list;
  crashed : int list;
  events : int;
}

(* The single effect: the running thread gives up the CPU. Its
   continuation lands in its thread record; whoever holds the thread
   (event queue, watcher chain) resumes it from there. *)
type _ Effect.t += Park : unit Effect.t

type thread = {
  t_id : int;
  t_cpu : int;
  mutable time : int;
  mutable ops : int; (* atomic operations performed (fault anchors) *)
  mutable in_cs : bool; (* between cs_mark true/false (fault anchor) *)
  mutable k : (unit, unit) Effect.Deep.continuation option; (* parked *)
  mutable woke : bool; (* timed await: woken (true) or timed out *)
  resume : unit -> unit; (* this thread's event-queue payload *)
}

(* Watchers form an intrusive chain threaded through [Line.waiters]
   (the [w_next] link lives in the record itself), most recently
   registered first — the same order the old per-line list had. No
   hash lookup per store, no list reallocation per wake, and no stale
   empty table entries accumulating over the run. *)
type watcher = {
  w_thread : thread;
  w_line : Line.t;
  w_pred : unit -> bool;
  w_rmw : bool;
  mutable w_done : bool; (* resumed (wake or timeout); entry is stale *)
  mutable w_next : Line.waiters;
}

type Line.waiters += Watcher of watcher

type cpu_state = { mutable busy_until : int; mutable last : int }

type state = {
  topo : Topology.t;
  costs : Arch.t;
  tcost : int array; (* transfer cost by proximity rank *)
  duration : int;
  cap : int; (* livelock cutoff on [max_time] *)
  q : (unit -> unit) Pqueue.t;
  mutable cur : thread; (* the running thread *)
  cpus : cpu_state array;
  mutable watched : Line.t list; (* lines that ever had a watcher *)
  mutable live : int;
  mutable max_time : int;
  mutable events : int; (* executed event-queue entries *)
  hist : int array; (* line transfers by proximity rank *)
  mutable pending_faults : fault list;
  mutable injected : injected list;
  mutable crashed : int list;
}

(* Clocks use [Int.max] throughout: the polymorphic [max] is a C
   compare call per use, several per event. *)

(* Charge [cost] ns to [th], starting no earlier than [after],
   serializing green threads that share a CPU and charging a context
   switch when the CPU changes thread. *)
let advance_after st th ~after cost =
  let c = st.cpus.(th.t_cpu) in
  let start = Int.max th.time c.busy_until in
  let start =
    if c.last <> th.t_id && c.last <> -1 then start + st.costs.ctx_switch
    else start
  in
  th.time <- Int.max start after + cost;
  c.busy_until <- th.time;
  c.last <- th.t_id;
  if th.time > st.max_time then st.max_time <- th.time

(* clocks are never negative *)
let advance st th cost = advance_after st th ~after:0 cost

(* Like [advance] but for an access that misses in the local cache:
   coherence transactions on one line are serviced one at a time, so the
   access also queues behind the line's service window. *)
let advance_on_line st th (line : Line.t) ~miss cost =
  if not miss then advance st th cost
  else begin
    advance_after st th ~after:line.busy_until cost;
    line.busy_until <- th.time
  end

let rank_same_system = Level.prox_rank Level.Same_system
let count_transfer st d = st.hist.(d) <- st.hist.(d) + 1

(* Proximity rank of the access: one byte load from the topology's
   dense matrix (the old path walked [Level.all] with a nested rank
   scan per level, on every miss). *)
let prox_rank_to st (line : Line.t) th =
  if line.Line.owner < 0 then rank_same_system
  else Topology.proximity_rank st.topo line.Line.owner th.t_cpu

(* Cost of fetching a line for reading; registers the reader as a
   sharer. *)
let read_cost st th (line : Line.t) =
  if line.owner = th.t_cpu || Cpuset.mem line.sharers th.t_cpu then
    (st.costs.l1, false)
  else begin
    let d = prox_rank_to st line th in
    count_transfer st d;
    Cpuset.add line.sharers th.t_cpu;
    (Array.unsafe_get st.tcost d, true)
  end

(* Invalidating remote shared copies costs a coherence round to the
   farthest sharer (requests travel in parallel, the ack round does not
   overlap the store's retirement). *)
let invalidate_cost st th (line : Line.t) =
  let worst = ref 0 in
  Cpuset.iter
    (fun cpu ->
      if cpu <> th.t_cpu then begin
        let t =
          Array.unsafe_get st.tcost
            (Topology.proximity_rank st.topo cpu th.t_cpu)
        in
        if t > !worst then worst := t
      end)
    line.sharers;
  !worst / 2

(* A write: the store buffer hides the line-transfer latency from the
   writing thread (it retires after the invalidation round), but the
   transfer still occupies the line's service window, which is where the
   handover latency lands on the woken waiter. An RMW cannot be hidden:
   the thread blocks for the full transfer. Returns
   [(thread_cost, occupancy, miss)]. *)
let write_cost st th (line : Line.t) ~is_rmw ~order =
  let me = th.t_cpu in
  let others = Cpuset.count_except line.sharers me in
  let local = line.owner = me && others = 0 in
  let transfer =
    if line.owner = me then 0
    else begin
      let d = prox_rank_to st line th in
      count_transfer st d;
      Array.unsafe_get st.tcost d
    end
  in
  let upgrade =
    if (not is_rmw) && others > 0 then st.costs.store_upgrade else 0
  in
  let inval = if others > 0 then invalidate_cost st th line else 0 in
  let llsc =
    if is_rmw then
      (line.rmw_watchers * st.costs.llsc_rmw_extra)
      + if line.rmw_watchers > 0 then st.costs.llsc_cas_storm else 0
    else 0
  in
  let barrier =
    match order with
    | Clof_atomics.Memory_order.Seq_cst -> st.costs.sc_fence
    | Relaxed | Acquire | Release -> 0
  in
  line.owner <- me;
  Cpuset.clear line.sharers;
  Cpuset.add line.sharers me;
  line.writes <- line.writes + 1;
  let thread_cost =
    st.costs.l1 + upgrade + inval + llsc + barrier
    + (if is_rmw then transfer else 0)
  in
  (thread_cost, (if is_rmw then 0 else transfer), not local)

(* ---------- fault injection ----------

   Faults anchor to a thread's n-th atomic operation (accesses and
   await registrations count; pure compute does not). A [Stall] models
   preemption: the thread's clock jumps by [ns] while its CPU stays
   free for siblings. A [Crash] drops the thread's continuation on the
   floor — no unwinding, no cleanup, exactly like a thread dying while
   holding or waiting for a lock. *)

let record_fault st th kind =
  st.injected <-
    { i_tid = th.t_id; i_op = th.ops; i_time = th.time; i_kind = kind }
    :: st.injected

(* Returns [true] when the thread must die at this op. Consumes every
   fault that matches (thread, op index). *)
let check_faults st th =
  match st.pending_faults with
  | [] -> false
  | faults ->
      let dies = ref false in
      let remaining =
        List.filter
          (fun f ->
            match f with
            | Stall { tid; at_op; ns } when tid = th.t_id && at_op = th.ops
              ->
                th.time <- th.time + Int.max 0 ns;
                if th.time > st.max_time then st.max_time <- th.time;
                record_fault st th "stall";
                false
            | Crash { tid; at_op } when tid = th.t_id && at_op = th.ops ->
                record_fault st th "crash";
                dies := true;
                false
            | Crash_in_cs { tid; after_op }
              when tid = th.t_id && th.ops >= after_op && th.in_cs ->
                (* holder crash: fires at the first atomic op past the
                   anchor that lands inside a marked critical section,
                   so the victim deterministically dies holding *)
                record_fault st th "crash-in-cs";
                dies := true;
                false
            | Stall _ | Crash _ | Crash_in_cs _ -> true)
          faults
      in
      st.pending_faults <- remaining;
      !dies

(* The thread dies here: it parks with nothing left to resume it, so
   its continuation is dropped. *)
let kill st th =
  st.live <- st.live - 1;
  st.crashed <- th.t_id :: st.crashed;
  Effect.perform Park

(* Register [th] as a watcher at the head of the line's chain; the
   line joins the state's watched list the first time (end-of-run
   blocked scan and cleanup walk that list). *)
let watch st th (line : Line.t) ~rmw pred =
  if rmw then line.rmw_watchers <- line.rmw_watchers + 1;
  if not line.enlisted then begin
    line.enlisted <- true;
    st.watched <- line :: st.watched
  end;
  let w =
    { w_thread = th; w_line = line; w_pred = pred; w_rmw = rmw;
      w_done = false; w_next = line.waiters }
  in
  line.waiters <- Watcher w;
  w

(* A live watcher of [line] refetches it after [writer]'s write, at
   its slot in the line's service window. When its predicate now holds
   it is queued to resume at that slot; returns whether it woke. *)
let refetch st (line : Line.t) writer w =
  let d = Topology.proximity_rank st.topo writer.t_cpu w.w_thread.t_cpu in
  count_transfer st d;
  let slot =
    Int.max writer.time line.busy_until + Array.unsafe_get st.tcost d
  in
  line.busy_until <- slot;
  if not w.w_rmw then Cpuset.add line.sharers w.w_thread.t_cpu;
  if w.w_pred () then begin
    w.w_done <- true;
    if w.w_rmw then line.rmw_watchers <- line.rmw_watchers - 1;
    if slot > w.w_thread.time then w.w_thread.time <- slot;
    if w.w_thread.time > st.max_time then st.max_time <- w.w_thread.time;
    w.w_thread.woke <- true;
    Pqueue.add st.q w.w_thread.time w.w_thread.resume;
    true
  end
  else false

(* After [writer] wrote to [line]: every watcher lost its copy and
   refetches the line, one at a time through the line's service window —
   k spinners cause k serialized refetches per write, the physics behind
   the collapse of global-spinning locks. Woken watchers and stale
   (timed-out) entries are unlinked in place, kept watchers are
   untouched. *)
let rec wake_from st (line : Line.t) writer prev cur =
  match cur with
  | Line.No_waiters -> ()
  | Watcher w ->
      let next = w.w_next in
      if w.w_done || refetch st line writer w then begin
        (match prev with
        | Line.No_waiters -> line.waiters <- next
        | Watcher p -> p.w_next <- next
        | _ -> assert false);
        w.w_next <- Line.No_waiters;
        wake_from st line writer prev next
      end
      else wake_from st line writer cur next
  | _ -> assert false

let wake_watchers st (line : Line.t) writer =
  wake_from st line writer Line.No_waiters line.waiters

(* Deadline event for a timed watcher: if the wake did not beat the
   clock, resume the thread with [false] at exactly [deadline]. The
   entry stays chained until the next wake drops it. *)
let fire_timeout st w deadline =
  if not w.w_done then begin
    w.w_done <- true;
    if w.w_rmw then w.w_line.rmw_watchers <- w.w_line.rmw_watchers - 1;
    if deadline > w.w_thread.time then w.w_thread.time <- deadline;
    if w.w_thread.time > st.max_time then st.max_time <- w.w_thread.time;
    w.w_thread.woke <- false;
    w.w_thread.resume ()
  end

let handle_access st th line acc =
  let cost, occupancy, miss =
    match acc with
    | Load ->
        let cost, miss = read_cost st th line in
        (cost, 0, miss)
    | Store { rmw; order } -> write_cost st th line ~is_rmw:rmw ~order
    | Rmw { wrote } ->
        if wrote then
          write_cost st th line ~is_rmw:true
            ~order:Clof_atomics.Memory_order.Seq_cst
        else
          let cost, miss = read_cost st th line in
          (cost + st.costs.sc_fence, 0, miss)
  in
  advance_on_line st th line ~miss cost;
  if occupancy > 0 then
    line.busy_until <- Int.max line.busy_until th.time + occupancy;
  match acc with
  | Store _ | Rmw { wrote = true } -> wake_watchers st line th
  | Load | Rmw { wrote = false } -> ()

(* One simulation per domain at a time. Domain-local (not a global
   ref) so independent simulations can run concurrently on separate
   domains — the work-pool parallelism of the benchmark harness. The
   operations below reach the engine state and the running thread
   through this key. *)
let instance : state option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current () =
  match Domain.DLS.get instance with
  | Some st -> st
  | None -> invalid_arg "Engine: called outside a simulation"

(* [st.cur] before the first event runs *)
let no_thread =
  { t_id = -1; t_cpu = 0; time = 0; ops = 0; in_cs = false; k = None;
    woke = false; resume = ignore }

(* A parked thread's event: make it the running thread and continue
   it where it parked. *)
let continue_thread st th =
  st.cur <- th;
  Effect.Deep.continue (Option.get th.k) ()

(* The running thread finished an op at [th.time]. When it is strictly
   earlier than every queued entry (on a tie the older entry pops
   first) and the run is under the livelock cutoff, the drain loop
   would pop exactly this thread next: count the event and keep going
   inline. Otherwise queue the thread and park. *)
let resume_later st th =
  if
    (Pqueue.is_empty st.q || th.time < Pqueue.min_prio st.q)
    && st.max_time <= st.cap
  then st.events <- st.events + 1
  else begin
    Pqueue.add st.q th.time th.resume;
    Effect.perform Park
  end

(* The thread's one handler, installed when it first runs: parking
   stores the continuation in the thread record and returns to the
   drain loop. *)
let spawn st th body =
  let park = Some (fun k -> th.k <- Some k) in
  st.cur <- th;
  Effect.Deep.match_with body th.t_id
    {
      retc = (fun () -> st.live <- st.live - 1);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Park -> (park : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }

let run ?(duration = 1_000_000) ?(faults = []) ~platform ~threads () =
  if Domain.DLS.get instance <> None then
    invalid_arg "Engine.run: already inside a simulation";
  let topo = platform.Platform.topo in
  let costs = Arch.of_arch platform.Platform.arch in
  let st =
    {
      topo;
      costs;
      tcost = Arch.transfer_costs costs;
      duration;
      (* Watchdog against livelocks in code under test: a correct
         benchmark drains shortly after [duration]; abort well past it. *)
      cap = (if duration < max_int / 128 then duration * 64 else max_int);
      q = Pqueue.create ~dummy:ignore ();
      cur = no_thread;
      cpus =
        Array.init (Topology.ncpus topo) (fun _ ->
            { busy_until = 0; last = -1 });
      watched = [];
      live = List.length threads;
      max_time = 0;
      events = 0;
      hist = Array.make Level.nprox 0;
      pending_faults = faults;
      injected = [];
      crashed = [];
    }
  in
  Domain.DLS.set instance (Some st);
  let cleanup () =
    (* watcher chains live on the lines themselves: detach them so a
       line reused by a later simulation (or leaked by an exception)
       cannot resurrect this run's continuations *)
    List.iter
      (fun (line : Line.t) ->
        line.Line.waiters <- Line.No_waiters;
        line.Line.enlisted <- false)
      st.watched;
    st.watched <- [];
    Domain.DLS.set instance None
  in
  Fun.protect ~finally:cleanup (fun () ->
      List.iteri
        (fun i (cpu, body) ->
          if cpu < 0 || cpu >= Topology.ncpus topo then
            invalid_arg (Printf.sprintf "Engine.run: cpu %d out of range" cpu);
          let rec th =
            { no_thread with t_id = i; t_cpu = cpu;
              resume = (fun () -> continue_thread st th) }
          in
          Pqueue.add st.q 0 (fun () -> spawn st th body))
        threads;
      let aborted = ref false in
      let rec drain () =
        if not (Pqueue.is_empty st.q) then begin
          let f = Pqueue.pop_exn st.q in
          if st.max_time > st.cap then aborted := true
          else begin
            st.events <- st.events + 1;
            f ();
            drain ()
          end
        end
      in
      drain ();
      let blocked =
        List.fold_left
          (fun acc (line : Line.t) ->
            let rec go acc = function
              | Line.No_waiters -> acc
              | Watcher w ->
                  go
                    (if w.w_done then acc
                     else (w.w_thread.t_id, w.w_line.Line.name) :: acc)
                    w.w_next
              | _ -> assert false
            in
            go acc line.Line.waiters)
          [] st.watched
      in
      let crashed = List.sort_uniq compare st.crashed in
      {
        end_time = st.max_time;
        (* crashed threads are accounted for separately: they are dead,
           not wedged — [hung] flags only threads that still wanted to
           run *)
        hung = st.live > 0 && not !aborted;
        aborted = !aborted;
        blocked = List.sort compare blocked;
        transfers =
          List.mapi (fun i p -> (p, st.hist.(i))) Level.all_prox;
        injected = List.rev st.injected;
        crashed;
        events = st.events;
      })

(* ---------- operations of the running thread ----------

   Plain reads of the running thread, and ops that charge their cost
   in place and then either continue inline or park. *)

let now () = (current ()).cur.time

(* op-neutral: no cost, no event, no op count — marking a critical
   section must not shift benchmark numbers or fault anchors *)
let cs_mark inside = (current ()).cur.in_cs <- inside

let running () =
  let st = current () in
  st.cur.time < st.duration

let tid () = (current ()).cur.t_id
let cpu () = (current ()).cur.t_cpu

let access line acc =
  let st = current () in
  let th = st.cur in
  th.ops <- th.ops + 1;
  let dies = check_faults st th in
  (* a faulted op itself completes — sim_mem has already made the
     value visible, so watchers must still be woken — and the thread
     dies at the op boundary, never resumed *)
  handle_access st th line acc;
  if dies then kill st th else resume_later st th

(* The head of both awaits: count the op, apply faults, charge the
   first read of [line], and report whether [pred] already holds. A
   crash at the await leaves no registered waiter ([kill] does not
   return). *)
let await_head st th line pred =
  th.ops <- th.ops + 1;
  if check_faults st th then begin
    kill st th;
    false
  end
  else begin
    let cost, miss = read_cost st th line in
    advance_on_line st th line ~miss cost;
    pred ()
  end

let await_line line ~rmw pred =
  let st = current () in
  let th = st.cur in
  if await_head st th line pred then resume_later st th
  else begin
    ignore (watch st th line ~rmw pred);
    Effect.perform Park
  end

let await_line_until line ~rmw ~deadline pred =
  let st = current () in
  let th = st.cur in
  if await_head st th line pred then begin
    resume_later st th;
    true
  end
  else if th.time >= deadline then begin
    resume_later st th;
    false
  end
  else begin
    let w = watch st th line ~rmw pred in
    Pqueue.add st.q deadline (fun () -> fire_timeout st w deadline);
    Effect.perform Park;
    th.woke
  end

let compute st cost =
  advance st st.cur cost;
  resume_later st st.cur

let fence () = let st = current () in compute st st.costs.sc_fence
let pause () = let st = current () in compute st st.costs.pause
let work ns = compute (current ()) (Int.max 0 ns)

(* a timer sleep, not compute: the thread's clock advances but the CPU
   stays free, so green threads timesharing the CPU (e.g. the benchmark
   thread the recovery watchdog shares a core with) run at full speed
   during it. Counts no op. *)
let sleep ns =
  let st = current () in
  let th = st.cur in
  th.time <- th.time + Int.max 0 ns;
  if th.time > st.max_time then st.max_time <- th.time;
  resume_later st th
