(** Send-buffer core: the sender's outstanding transmissions and its
    waiting queues, held struct-of-arrays.

    The paper bounds the transparent buffer by the resolving period
    (§3.3), which at satellite bandwidth × delay is tens of thousands of
    frames, so the per-frame cost of buffering decides throughput. Here
    each frame costs a few array slots instead of a record, a queue cell,
    a hash-table bucket and boxed floats. The LAMS-DLC sender runs on it;
    it is the core the NBDT and SR-HDLC senders are to move onto.

    The ring holds transmissions in transmission order, which is
    ascending sequence-number order: a column each for seq, payload,
    offer time, first-transmission time and predicted arrival, and a
    live flag. Memory follows the number of transmissions from the
    oldest live one to the newest (resolved entries behind a live one
    stay until the oldest is resolved), never the numbering span, so a
    jump in numbering costs nothing. Columns start small and double. *)

(** A FIFO of frames waiting for (re)transmission: payload, offer time
    and first-transmission time ([nan] before the first). *)
module Fifo : sig
  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val push : t -> payload:string -> offer:float -> first_tx:float -> unit

  val front_payload : t -> string
  (** @raise Invalid_argument when empty (as {!front_offer}, {!drop}). *)

  val front_offer : t -> float

  val drop : t -> unit
  (** Remove the front entry. *)
end

type t

val create : unit -> t

val length : t -> int
(** Live (unresolved) transmissions. *)

val capacity : t -> int
(** Slots allocated per column. *)

val transmit : t -> Fifo.t -> seq:int -> now:float -> arrival:float -> unit
(** Move the front of the queue into the ring as transmission [seq]
    with predicted arrival [arrival]; its first-transmission time
    becomes [now] unless it was already set. [seq] must exceed every
    seq transmitted before.
    @raise Invalid_argument on an empty queue or a non-ascending [seq]. *)

(** A slot names one live entry; it stays valid until that entry is
    removed or the ring next grows ({!transmit}). The accessors below
    raise [Invalid_argument] on a slot that is not live. *)

val find : t -> int -> int
(** Slot of the live transmission [seq], or [-1]. O(1) while numbering
    is contiguous, O(log n) after a gap. *)

val oldest : t -> int
(** Slot of the oldest live transmission, or [-1] when none is. *)

val oldest_covered : t -> horizon:float -> int
(** {!oldest} if its predicted arrival is at or before [horizon], else
    [-1]: the next frame a checkpoint issued at [horizon] resolves. *)

val seq : t -> int -> int

val payload : t -> int -> string

val offer_time : t -> int -> float

val holding_time : t -> int -> now:float -> float
(** Time since the entry's first transmission. *)

val remove : t -> int -> unit
(** Resolve the entry: it is no longer live. *)

val copy_to : t -> int -> Fifo.t -> unit
(** Append the entry's payload, offer and first-transmission times to
    the queue, leaving the entry live. *)

val requeue : t -> int -> Fifo.t -> unit
(** {!copy_to}, then {!remove}. *)
