(* The benchmark's own arithmetic: medians, the tail-percentile rule,
   the SLO-rate search and the digest behind the simulation
   fingerprint. Kept apart from the main program so the tests exercise
   exactly the code the benchmark runs. *)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Pstat.median: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile of raw samples, for host timings. *)
let percentile xs p =
  match List.sort compare xs with
  | [] -> invalid_arg "Pstat.percentile: empty"
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* The reported tail of a timing is the highest percentile of the
   ladder p50, p90, p99, p99.9, ... that leaves at least ten samples
   beyond it: p(100 - 10^(2-k)) for k nines needs n * 10^-k >= 10,
   i.e. n >= 10^(k+1), and the median needs n / 2 >= 10. [None] below
   20 samples. The result is the number of nines: 0 is the median. *)
let tail_nines n =
  let rec decades n d = if n >= 10 then decades (n / 10) (d + 1) else d in
  if n < 20 then None else Some (max 0 (decades n 0 - 1))

let percent_of_nines k =
  if k <= 0 then 50.0 else 100.0 -. (100.0 /. (10.0 ** float_of_int k))

(* "p50", "p90", "p99", "p99_9", "p99_99": the metric-name spelling. *)
let tag_of_nines k =
  if k <= 0 then "p50"
  else if k = 1 then "p90"
  else "p99" ^ if k = 2 then "" else "_" ^ String.make (k - 2) '9'

(* One ladder rung is within the SLO when its p99 sojourn meets the
   limit and the run drained within [slack_ns] of its nominal span: a
   growing backlog finishes late and counts as over the limit whatever
   its percentiles say. *)
let rung_ok ~slo_ns ~slack_ns ~p99_ns ~overshoot_ns =
  p99_ns <= slo_ns && overshoot_ns <= slack_ns

(* The SLO rate: the highest rung below the first failing one, on a
   ladder of strictly increasing rates. [None] when the lowest rung
   already fails. *)
let slo_rate rungs =
  let rec go best prev = function
    | [] -> best
    | (rate, ok) :: rest ->
        if rate <= prev then invalid_arg "Pstat.slo_rate: ladder not increasing";
        if ok then go (Some rate) rate rest else best
  in
  go None neg_infinity rungs

(* Self time of a span [start, stop]: its duration minus the part of
   it that the union of its children's intervals covers. Children may
   nest in each other or overlap (they run on parallel domains) and
   are clipped to the parent. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a start and b = Float.min b stop in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, Float.max cb b))
            else (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  let covered =
    match last with None -> covered | Some (a, b) -> covered +. (b -. a)
  in
  stop -. start -. covered

(* 52-bit FNV-1a: exact as a JSON number, stable across OCaml
   releases (unlike [Hashtbl.hash]), cheap to fold over a few MB. *)
let digest s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Int64.to_int (Int64.logand !h 0xFFFFFFFFFFFFFL)
