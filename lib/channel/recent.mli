(** The last few items seen, newest first, in a fixed-capacity ring.

    Remembers recent control frames for stale-replay injection: the
    sessions' reverse-link replay ({!Dlc.Stale_replay}) and
    {!Fault}'s [Inject_stale_cp] lie. A push overwrites the oldest item
    once the ring is full; nothing is allocated after the first push. *)

type 'a t

val create : int -> 'a t
(** @raise Invalid_argument when the capacity is below 1. *)

val push : 'a t -> 'a -> unit

val stale : 'a t -> back:int -> (int * 'a) option
(** The item [back] pushes before the newest ([0] is the newest), with
    [back] clamped into the items held, and the clamped age; [None]
    when nothing was pushed. *)
