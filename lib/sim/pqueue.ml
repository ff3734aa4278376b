(* Structure-of-arrays binary min-heap: priorities and FIFO sequence
   numbers live in unboxed int arrays, payloads in a plain array. The
   old representation ([{prio; seq; v} option array]) allocated one
   option box and one record per event; this one allocates only when
   the heap grows, so steady-state event scheduling is allocation-free.
   Sift helpers are written without refs or closures for the same
   reason. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable v : 'a array;
  mutable n : int;
  mutable next_seq : int;
  dummy : 'a; (* fills vacated payload slots so they don't leak *)
}

let create ~dummy () =
  {
    prio = Array.make 64 0;
    seq = Array.make 64 0;
    v = Array.make 64 dummy;
    n = 0;
    next_seq = 0;
    dummy;
  }

let is_empty q = q.n = 0
let length q = q.n

(* entry i orders before entry j: smaller priority, insertion order
   breaking ties (exact FIFO among equal priorities) *)
let less q i j =
  let pi = Array.unsafe_get q.prio i and pj = Array.unsafe_get q.prio j in
  pi < pj
  || (pi = pj && Array.unsafe_get q.seq i < Array.unsafe_get q.seq j)

let swap q i j =
  let p = q.prio.(i) in
  q.prio.(i) <- q.prio.(j);
  q.prio.(j) <- p;
  let s = q.seq.(i) in
  q.seq.(i) <- q.seq.(j);
  q.seq.(j) <- s;
  let x = q.v.(i) in
  q.v.(i) <- q.v.(j);
  q.v.(j) <- x

let grow q =
  let cap = 2 * Array.length q.prio in
  let prio = Array.make cap 0
  and seq = Array.make cap 0
  and v = Array.make cap q.dummy in
  Array.blit q.prio 0 prio 0 q.n;
  Array.blit q.seq 0 seq 0 q.n;
  Array.blit q.v 0 v 0 q.n;
  q.prio <- prio;
  q.seq <- seq;
  q.v <- v

let rec sift_up q i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if less q i p then begin
      swap q i p;
      sift_up q p
    end
  end

let rec sift_down q i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < q.n && less q l i then l else i in
  let s = if r < q.n && less q r s then r else s in
  if s <> i then begin
    swap q i s;
    sift_down q s
  end

let add q prio v =
  if q.n = Array.length q.prio then grow q;
  let i = q.n in
  q.prio.(i) <- prio;
  q.seq.(i) <- q.next_seq;
  q.v.(i) <- v;
  q.next_seq <- q.next_seq + 1;
  q.n <- q.n + 1;
  sift_up q i

let pop_exn q =
  if q.n = 0 then invalid_arg "Pqueue.pop_exn: empty";
  let x = q.v.(0) in
  let n = q.n - 1 in
  q.n <- n;
  q.prio.(0) <- q.prio.(n);
  q.seq.(0) <- q.seq.(n);
  q.v.(0) <- q.v.(n);
  q.v.(n) <- q.dummy;
  if n > 0 then sift_down q 0;
  x

let pop_min q =
  if q.n = 0 then None
  else
    let prio = q.prio.(0) in
    Some (prio, pop_exn q)

let min_prio q =
  if q.n = 0 then invalid_arg "Pqueue.min_prio: empty";
  q.prio.(0)
