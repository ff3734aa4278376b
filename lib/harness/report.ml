open Clof_topology
module M = Clof_sim.Sim_mem
module R = Clof_locks.Registry.Make (M)
module G = Clof_core.Generator.Make (M)
module Hmcs = Clof_baselines.Hmcs.Make (M)
module Cna = Clof_baselines.Cna.Make (M)
module Shfl = Clof_baselines.Shfllock.Make (M)
module Cohort = Clof_baselines.Cohort.Make (M)
module W = Clof_workloads.Workload
module RT = Clof_core.Runtime
module S = Clof_stats.Stats
module J = Clof_stats.Json

(* v2 added the optional typed [meta] field on series; v1 documents
   still decode, with [meta = None] on every series. *)
let schema_version = 2

let min_schema_version = 1

type point = {
  threads : int;
  throughput : float;
  total_ops : int;
  sim_ns : int;
  jain : float;
  stats : S.recorder;
}

(* Typed per-series metadata: the schema-level replacement for the
   per-experiment "slot encoding" conventions (capability flags hidden
   in a fake point's [total_ops], phase indices in [threads], ...)
   that v1 decoders had to know about positionally. Keys are
   experiment-defined; values carry their own type. *)
type attr = I of int | F of float | S of string | B of bool
type series_meta = (string * attr) list
type series = { lock : string; meta : series_meta option; points : point list }

type experiment = {
  exp_id : string;
  platform : string;
  workload : string;
  series : series list;
}

(* Harness (not benchmark) performance: how long the report itself took
   to produce. [busy_s] sums the wall-clock of every simulation job, so
   [busy_s /. wall_s] is the speedup the parallel executor delivered;
   bench_check surfaces both so CI can track harness cost over time. *)
type meta = { jobs : int; wall_s : float; busy_s : float; speedup : float }

type t = {
  version : int;
  quick : bool;
  meta : meta option;
  experiments : experiment list;
}

(* ---------- meta accessors (for printers and gates) ---------- *)

let meta_find (s : series) key = Option.bind s.meta (List.assoc_opt key)

let meta_int s key =
  match meta_find s key with Some (I i) -> Some i | _ -> None

let meta_float s key =
  match meta_find s key with
  | Some (F f) -> Some f
  | Some (I i) -> Some (float_of_int i)
  | _ -> None

let meta_str s key =
  match meta_find s key with Some (S v) -> Some v | _ -> None

let meta_bool s key =
  match meta_find s key with Some (B b) -> Some b | _ -> None

let meta_list s key =
  match meta_str s key with
  | None | Some "" -> []
  | Some v -> String.split_on_char ',' v

let find_series e lock = List.find_opt (fun s -> s.lock = lock) e.series

let of_experiment ~quick e =
  { version = schema_version; quick; meta = None; experiments = [ e ] }

let jain counts =
  let xs = Array.map float_of_int counts in
  let s = Array.fold_left ( +. ) 0.0 xs in
  let s2 = Array.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
  if s2 = 0.0 then 1.0
  else s *. s /. (float_of_int (Array.length xs) *. s2)

let point_of_result (n, r) =
  {
    threads = n;
    throughput = r.W.throughput;
    total_ops = r.W.total_ops;
    sim_ns = r.W.sim_ns;
    jain = jain r.W.per_thread;
    stats = r.W.stats;
  }

(* ---------- experiment definitions ---------- *)

(* A fixed, platform-independent lock panel: every major family the
   paper compares (plain MCS, the HMCS tree, flat NUMA-aware CNA and
   ShflLock, a homogeneous 4-level CLoF composition and its TAS
   fast-path variant, and a classic cohort lock). Names are pinned by
   [RT.rename] so a report produced today matches one produced after a
   registry reshuffle — bench_check joins series on these names. *)
let panel p =
  let hierarchy = Platform.hier4 p in
  let packed = G.build [ R.clh; R.clh; R.clh; R.clh ] in
  let fp =
    let (module L) = packed in
    let module F = Clof_core.Fastpath.Make (M) (L) in
    RT.of_clof ~hierarchy (module F : Clof_core.Clof_intf.S)
  in
  [
    RT.rename "mcs" (RT.of_basic R.mcs);
    RT.rename "hmcs<4>" (Hmcs.spec ~hierarchy ());
    RT.rename "cna" (Cna.spec ());
    RT.rename "shfl" (Shfl.spec ());
    RT.rename "clof<4>-clh" (RT.of_clof ~hierarchy packed);
    RT.rename "fp-clof<4>-clh" fp;
    RT.rename "c-bo-mcs" Cohort.c_bo_mcs;
  ]

let ids =
  [
    ("report-x86", "lock panel on the simulated x86 platform (2x24-core SMT)");
    ("report-armv8", "lock panel on the simulated Armv8 platform (2x64-core)");
  ]

let platform_of_id = function
  | "report-x86" -> Some Platform.x86
  | "report-armv8" -> Some Platform.armv8
  | _ -> None

let grid ~quick p =
  let g = Scripted.thread_grid p in
  if quick then List.filter (fun n -> n = 1 || n = 8 || n = 32 || n >= 95) g
  else g

let params ~quick =
  if quick then { W.leveldb with W.duration = 150_000 } else W.leveldb

let build_experiment ~quick id p =
  let threadcounts = grid ~quick p in
  let params = params ~quick in
  let specs = panel p in
  (* one flat (lock x threadcount) batch of parallel jobs *)
  let rows =
    Clof_exec.Exec.product_map
      (fun spec n ->
        point_of_result (n, W.run ~platform:p ~nthreads:n ~spec params))
      specs threadcounts
  in
  let series =
    List.map2
      (fun spec points -> { lock = spec.RT.s_name; meta = None; points })
      specs rows
  in
  {
    exp_id = id;
    platform = Topology.name p.Platform.topo;
    workload = "leveldb";
    series;
  }

let run ?(quick = false) = function
  | [] -> Error "no report experiments requested"
  | want -> (
      match
        List.filter (fun id -> platform_of_id id = None) want
      with
      | _ :: _ as unknown ->
          Error
            (Printf.sprintf "unknown report experiment(s): %s (known: %s)"
               (String.concat ", " unknown)
               (String.concat ", " (List.map fst ids)))
      | [] ->
          let t0 = Clof_exec.Exec.now_s () in
          let b0 = Clof_exec.Exec.busy_s () in
          let experiments =
            List.map
              (fun id ->
                build_experiment ~quick id (Option.get (platform_of_id id)))
              want
          in
          let wall_s = Clof_exec.Exec.now_s () -. t0 in
          let busy_s = Clof_exec.Exec.busy_s () -. b0 in
          let meta =
            {
              jobs = Clof_exec.Exec.jobs ();
              wall_s;
              busy_s;
              speedup = (if wall_s > 0.0 then busy_s /. wall_s else 1.0);
            }
          in
          Ok { version = schema_version; quick; meta = Some meta; experiments })

(* ---------- JSON ---------- *)

let point_to_json p =
  J.Obj
    [
      ("threads", J.Int p.threads);
      ("throughput", J.Float p.throughput);
      ("total_ops", J.Int p.total_ops);
      ("sim_ns", J.Int p.sim_ns);
      ("jain", J.Float p.jain);
      ("stats", S.to_json p.stats);
    ]

let attr_to_json = function
  | I i -> J.Int i
  | F f -> J.Float f
  | S s -> J.Str s
  | B b -> J.Bool b

let series_to_json s =
  J.Obj
    ([ ("lock", J.Str s.lock) ]
    @ (match s.meta with
      | None -> []
      | Some kvs ->
          [ ("meta", J.Obj (List.map (fun (k, v) -> (k, attr_to_json v)) kvs)) ])
    @ [ ("points", J.Arr (List.map point_to_json s.points)) ])

let experiment_to_json e =
  J.Obj
    [
      ("id", J.Str e.exp_id);
      ("platform", J.Str e.platform);
      ("workload", J.Str e.workload);
      ("series", J.Arr (List.map series_to_json e.series));
    ]

let meta_to_json m =
  J.Obj
    [
      ("jobs", J.Int m.jobs);
      ("wall_s", J.Float m.wall_s);
      ("busy_s", J.Float m.busy_s);
      ("speedup", J.Float m.speedup);
    ]

let to_json t =
  J.Obj
    ([ ("schema_version", J.Int t.version); ("quick", J.Bool t.quick) ]
    @ (match t.meta with
      | None -> []
      | Some m -> [ ("meta", meta_to_json m) ])
    @ [ ("experiments", J.Arr (List.map experiment_to_json t.experiments)) ])

let to_string t = J.to_string ~indent:2 (to_json t)

let ( let* ) = Result.bind

let field name conv ctx j =
  match Option.bind (J.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or ill-typed %S" ctx name)

let point_of_json j =
  let ctx = "point" in
  let* threads = field "threads" J.to_int ctx j in
  let* throughput = field "throughput" J.to_float ctx j in
  let* total_ops = field "total_ops" J.to_int ctx j in
  let* sim_ns = field "sim_ns" J.to_int ctx j in
  let* jain = field "jain" J.to_float ctx j in
  let* stats_j = field "stats" Option.some ctx j in
  let* stats = S.of_json stats_j in
  Ok { threads; throughput; total_ops; sim_ns; jain; stats }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

(* [I] vs [F] survives the round-trip because the printer always emits
   a decimal point for [Float] (even integral ones) and the parser
   types numbers by the presence of one. *)
let attr_of_json ~key = function
  | J.Int i -> Ok (I i)
  | J.Float f -> Ok (F f)
  | J.Str s -> Ok (S s)
  | J.Bool b -> Ok (B b)
  | _ -> Error (Printf.sprintf "series meta %S: expected a scalar" key)

let series_meta_of_json j =
  match j with
  | J.Obj kvs ->
      map_result
        (fun (k, v) ->
          let* a = attr_of_json ~key:k v in
          Ok (k, a))
        kvs
  | _ -> Error "series meta: expected an object"

let series_of_json j =
  let ctx = "series" in
  let* lock = field "lock" J.to_str ctx j in
  let* meta =
    match J.member "meta" j with
    | None -> Ok None
    | Some m ->
        let* kvs = series_meta_of_json m in
        Ok (Some kvs)
  in
  let* pts = field "points" J.to_list ctx j in
  let* points = map_result point_of_json pts in
  Ok { lock; meta; points }

let experiment_of_json j =
  let ctx = "experiment" in
  let* exp_id = field "id" J.to_str ctx j in
  let* platform = field "platform" J.to_str ctx j in
  let* workload = field "workload" J.to_str ctx j in
  let* srs = field "series" J.to_list ctx j in
  let* series = map_result series_of_json srs in
  Ok { exp_id; platform; workload; series }

(* [meta] is additive: reports written before it existed (and -j 1
   reports from older binaries) parse to [None]. *)
let meta_of_json j =
  let ctx = "meta" in
  let* jobs = field "jobs" J.to_int ctx j in
  let* wall_s = field "wall_s" J.to_float ctx j in
  let* busy_s = field "busy_s" J.to_float ctx j in
  let* speedup = field "speedup" J.to_float ctx j in
  Ok { jobs; wall_s; busy_s; speedup }

let of_json j =
  let ctx = "report" in
  let* version = field "schema_version" J.to_int ctx j in
  if version < min_schema_version || version > schema_version then
    Error
      (Printf.sprintf "unsupported schema_version %d (expected %d..%d)" version
         min_schema_version schema_version)
  else
    let* quick = field "quick" J.to_bool ctx j in
    let* meta =
      match J.member "meta" j with
      | None -> Ok None
      | Some m ->
          let* m = meta_of_json m in
          Ok (Some m)
    in
    let* exps = field "experiments" J.to_list ctx j in
    let* experiments = map_result experiment_of_json exps in
    Ok { version; quick; meta; experiments }

let of_string s =
  let* j = J.of_string s in
  of_json j
