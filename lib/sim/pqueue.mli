(** Minimal binary min-heap keyed by [int] priority, FIFO among equal
    priorities. Used as the simulator's event queue.

    The heap is a structure of arrays (int arrays for priority and
    insertion sequence, a plain array for payloads), so pushing and
    popping allocate nothing once the backing arrays have grown to the
    working-set size — the simulator schedules one event per atomic
    operation, and this keeps that path off the minor heap. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty queue. [dummy] fills empty
    payload slots (it is never returned) so popped payloads do not
    linger in the backing array. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val add : 'a t -> int -> 'a -> unit
(** [add q prio v] inserts [v] with priority [prio]. Allocation-free
    except when the backing arrays grow (amortized O(1), never shrinks). *)

val pop_exn : 'a t -> 'a
(** Removes and returns the payload with the smallest priority; among
    equal priorities, the one inserted first. Allocation-free.
    @raise Invalid_argument when empty. *)

val min_prio : 'a t -> int
(** Priority of the entry {!pop_exn} would return next, without
    removing it. Allocation-free.
    @raise Invalid_argument when empty. *)

val pop_min : 'a t -> (int * 'a) option
(** Like {!pop_exn} but total, and paired with the entry's priority
    (allocates the option and pair; the engine's drain loop uses
    {!pop_exn}). *)
