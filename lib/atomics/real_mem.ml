(** [MEMORY] over real OCaml multicore atomics — the native backend.

    Every operation is sequentially consistent ([Atomic] provides no
    weaker orders), so the memory-order annotations are documentation
    here. Used by the native runner ([Clof_native]), the real-domain
    stress tests and the Bechamel micro-benchmarks.

    {2 Cache-line padding}

    Each location is allocated in its own heap block padded to
    {!line_words} words, so two locations never share a cache line and
    native numbers measure the lock algorithm rather than accidental
    false sharing between adjacent [Atomic.t] boxes (which the minor
    heap would otherwise allocate back to back). The padded block still
    carries the [Atomic.t] representation — one scannable field 0 that
    the [%atomic_*] primitives operate on — with the tail filled by
    immediates the GC ignores.

    {2 Placement hints that remain no-ops}

    OCaml gives no control over physical layout, so of the simulator's
    allocation hints only padding is honored natively:
    - [node] (NUMA placement): no portable NUMA allocation API; lines
      live wherever first touch put them (the allocating domain's
      node under Linux's default policy).
    - [colocated] / [make_on] (same-line packing): two OCaml blocks
      cannot share a line; colocated locations get their own padded
      lines instead. This is the conservative direction — the
      true-sharing {e benefit} of packed layouts is not reproduced,
      but no {e false} sharing is introduced either.
    - [name]: checker-trace labels, meaningless here.
    - [rmw] on stores/awaits: [Atomic.set]/[Atomic.get] already order
      like RMWs under OCaml's SC-for-atomics model; the CTR trick is
      an ISA-level distinction the runtime cannot express. *)

type 'a aref = 'a Atomic.t

(* 16 words = 128 bytes on 64-bit: one 64-byte line for the atomic plus
   its neighbour, defeating the adjacent-line prefetcher pairs that
   make 64-byte padding insufficient on recent x86. *)
let line_words = 16

(* Re-allocate [x]'s heap block at [line_words] words, preserving tag
   and fields. [Obj.new_block] initializes every field to [Val_unit],
   so the padding tail is immediates the GC skips; the atomic
   primitives only ever touch field 0. This is the standard padded-
   allocation trick (multicore-magic's [copy_as_padded], and what
   [Atomic.make_contended] does natively from OCaml 5.2 — which we
   cannot require while 5.1 is supported). *)
let pad : 'a. 'a Atomic.t -> 'a Atomic.t =
 fun x ->
  let src = Obj.repr x in
  let n = Obj.size src in
  if n >= line_words then x
  else begin
    let dst = Obj.new_block (Obj.tag src) line_words in
    for i = 0 to n - 1 do
      Obj.set_field dst i (Obj.field src i)
    done;
    Obj.obj dst
  end

let make ?node:_ ?name:_ v = pad (Atomic.make v)
let colocated _other ?name:_ v = pad (Atomic.make v)

type anchor = unit

let anchor _ = ()
let make_on () ?name:_ v = pad (Atomic.make v)
let load ?o:_ r = Atomic.get r
let store ?o:_ ?rmw:_ r v = Atomic.set r v
let cas r ~expected ~desired = Atomic.compare_and_set r expected desired
let exchange r v = Atomic.exchange r v
let fetch_add r n = Atomic.fetch_and_add r n
let pause () = Domain.cpu_relax ()

external sched_yield : unit -> unit = "clof_sched_yield" [@@noalloc]

(* Spin [yield_every - 1] times with a relax hint, then yield the core
   once. On a machine with spare cores the yield is a rare no-op; when
   domains outnumber cores (CI runners, the test suite) it turns a
   burned timeslice into an immediate handover to the lock holder. *)
let yield_every = 0x1000

let await ?rmw:_ r pred =
  let rec go spins =
    let v = Atomic.get r in
    if pred v then v
    else begin
      if spins land (yield_every - 1) = yield_every - 1 then sched_yield ()
      else pause ();
      go (spins + 1)
    end
  in
  go 0

let barrier = Atomic.make 0

let fence () = ignore (Atomic.fetch_and_add barrier 0)

(* Monotone wall-clock ns (CLOCK_MONOTONIC). Deadlines handed to
   [await_until] and [try_acquire] are absolute values of this clock,
   shared by all domains. *)
let now () = Clock.monotonic_ns ()

let await_until ?rmw:_ r ~deadline pred =
  let rec go spins =
    let v = Atomic.get r in
    if pred v then Some v
    else if Clock.monotonic_ns () >= deadline then None
    else begin
      if spins land (yield_every - 1) = yield_every - 1 then sched_yield ()
      else pause ();
      go (spins + 1)
    end
  in
  go 0
