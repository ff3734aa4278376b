(* Spans recorded by the benchmark around its calls into each layer's
   public functions. Off by default: [span] then only calls its body.
   Armed, a span keeps its name, wall-clock start and end, parent span
   and run id, plus the counts the caller attaches at the same boundary
   ([count]) and the minor words its own domain allocated inside it.
   Spans are held in memory and written out once, by [to_json], when
   the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  run_id : string;
  start : float;  (** [Unix.gettimeofday] seconds *)
  stop : float;
  counts : (string * float) list;
}

let armed = Atomic.make false
let run_id = ref ""
let next_id = Atomic.make 0
let mutex = Mutex.create ()
let store : t list ref = ref []

(* The open spans of this domain, innermost first, each with the counts
   attached to it so far. Jobs run on pool domains whose stacks start
   empty, so a span opened there names its parent explicitly. *)
let stack : (int * (string * float) list ref) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

let current () =
  match Domain.DLS.get stack with (id, _) :: _ -> id | [] -> -1

let count name v =
  if Atomic.get armed then
    match Domain.DLS.get stack with
    | (_, counts) :: _ -> counts := (name, v) :: !counts
    | [] -> ()

let span ?parent name f =
  if not (Atomic.get armed) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match parent with Some p -> p | None -> current () in
    let counts = ref [] in
    let outer = Domain.DLS.get stack in
    Domain.DLS.set stack ((id, counts) :: outer);
    let w0 = Speed.minor_words () in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      let words = Speed.minor_words () -. w0 in
      Domain.DLS.set stack outer;
      let s =
        {
          id;
          name;
          parent;
          run_id = !run_id;
          start;
          stop;
          counts = ("minor_words", words) :: List.rev !counts;
        }
      in
      Mutex.lock mutex;
      store := s :: !store;
      Mutex.unlock mutex
    in
    Fun.protect ~finally:finish f
  end

let spans () =
  Mutex.lock mutex;
  let l = List.rev !store in
  Mutex.unlock mutex;
  l

(* Host seconds one span of an empty body costs, measured by [arm]. *)
let span_cost = ref 0.0

let arm id =
  run_id := id;
  Atomic.set armed true;
  let n = 1000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    span "calibration" ignore
  done;
  span_cost := (Unix.gettimeofday () -. t0) /. float_of_int n;
  Mutex.lock mutex;
  store := [];
  Mutex.unlock mutex

let self_time all s =
  Pstat.self_time ~start:s.start ~stop:s.stop
    (List.filter_map
       (fun c -> if c.parent = s.id then Some (c.start, c.stop) else None)
       all)

(* Spans plus a per-name summary (count, total and self seconds), times
   relative to the earliest span. *)
let to_json () =
  let module J = Clof_stats.Json in
  let all = spans () in
  let t0 = List.fold_left (fun a s -> Float.min a s.start) infinity all in
  let span_json s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("name", J.Str s.name);
        ("parent", J.Int s.parent);
        ("run", J.Str s.run_id);
        ("start_s", J.Float (s.start -. t0));
        ("end_s", J.Float (s.stop -. t0));
        ("self_s", J.Float (self_time all s));
        ("counts", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) s.counts));
      ]
  in
  let names = List.sort_uniq compare (List.map (fun s -> s.name) all) in
  let summary =
    List.map
      (fun name ->
        let mine = List.filter (fun s -> s.name = name) all in
        let sum f = List.fold_left (fun a s -> a +. f s) 0.0 mine in
        ( name,
          J.Obj
            [
              ("count", J.Int (List.length mine));
              ("total_s", J.Float (sum (fun s -> s.stop -. s.start)));
              ("self_s", J.Float (sum (self_time all)));
            ] ))
      names
  in
  J.Obj
    [
      ("run", J.Str !run_id);
      ("summary", J.Obj summary);
      ("spans", J.Arr (List.map span_json all));
    ]
