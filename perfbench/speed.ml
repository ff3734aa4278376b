(* Host timings at a reference speed.

   A shared virtual machine does not run at one speed: the same fixed
   loop runs up to half as fast for a tenth of a second to minutes at
   a time, whatever process runs it, and process CPU time drifts with it
   (the time is not stolen, the CPU is slower). A timing of the program
   alone then measures the host as much as the program.

   While a timed section runs ([with_probe]), a SIGALRM handler runs a
   fixed reference loop, the probe, every [interval_s] seconds on the
   timed domain and records how long it took. [clock] reads reference
   seconds: it stops while a probe runs, and each stretch between two
   probes counts at the speed of the probe that opened it, scaled so
   that a probe takes [nominal_s]. A timing read from it is the time
   the work would take on a host where a probe takes [nominal_s]. A
   change to the program moves its timings and not the probe.

   Stretches and probes are measured in the process's CPU time, so
   that time the process spends descheduled counts for neither. Timed
   sections run on one domain, so the process's CPU time is that
   domain's: on two, the domains' minor collections would wait for
   each other, and a probe on one would time the other's work.

   A probe is built like the work it sits beside, since the host's
   drift does not slow every kind of work alike. [Alloc], for the
   simulator and the checker, allocates short-lived lists as they do;
   it leaves nothing for the major heap, so the program's heap does
   not slow it. [Mixed], for the native lock loops, which allocate as
   well, follows each list with an uncontended compare-and-set/release
   pair on one atomic. *)

type kind = Alloc | Mixed

let interval_s = 0.02
let nominal_s = 1e-3

let alloc_loop n =
  let acc = ref 0 in
  for i = 1 to n do
    let l = [ i; i lxor 7; i + 3; i land 15 ] in
    acc := !acc + List.fold_left (fun a x -> a + (x lxor a)) 0 (List.rev l)
  done;
  !acc

let cell = Atomic.make 0

let mixed_loop n =
  let acc = ref 0 in
  for i = 1 to n do
    let l = [ i; i lxor 7; i + 3; i land 15 ] in
    acc := !acc + List.fold_left (fun a x -> a + (x lxor a)) 0 (List.rev l);
    if Atomic.compare_and_set cell 0 1 then Atomic.set cell 0
  done;
  !acc

let reference = function Alloc -> alloc_loop 40_000 | Mixed -> mixed_loop 30_000
let current = ref Alloc

(* CPU seconds of every probe so far, with its kind. *)
let samples : (kind * float) list ref = ref []

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds spent in probes, the CPU (less probes) and reference
   readings at the end of the latest probe, that probe's duration, and
   a count of probes so that a reader can tell that one ran in its
   read. *)
let excluded = ref 0.0
let base_host = ref 0.0
let base_ref = ref 0.0
let last = ref nominal_s
let generation = ref 0
let host () = cpu () -. !excluded

let rec clock () =
  let g = !generation in
  let t = !base_ref +. ((host () -. !base_host) *. nominal_s /. !last) in
  if g = !generation then t else clock ()

(* Minor words the probes allocated, which [minor_words] leaves out. *)
let probe_words = ref 0.0
let minor_words () = Gc.minor_words () -. !probe_words

let probe () =
  let t0 = cpu () in
  let now_ref = clock () in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (reference !current));
  probe_words := !probe_words +. (Gc.minor_words () -. w0);
  let t1 = cpu () in
  let d = t1 -. t0 in
  excluded := !excluded +. d;
  base_ref := now_ref;
  base_host := t1 -. !excluded;
  last := d;
  samples := (!current, d) :: !samples;
  incr generation

let depth = ref 0

let set_timer s =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = s; it_value = s })

(* Run [f] with a probe of [kind] armed; nested sections share the
   outer one. The first probe runs at once, so the first stretch has a
   fresh speed. *)
let with_probe ?(kind = Alloc) f =
  if !depth = 0 then begin
    current := kind;
    probe ();
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
    set_timer interval_s
  end;
  incr depth;
  Fun.protect f ~finally:(fun () ->
      decr depth;
      if !depth = 0 then begin
        set_timer 0.0;
        Sys.set_signal Sys.sigalrm Sys.Signal_default
      end)

(* The CPU seconds of every probe of [kind] so far. *)
let probes ?(kind = Alloc) () =
  List.filter_map (fun (k, d) -> if k = kind then Some d else None) !samples
