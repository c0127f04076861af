(** Stale reverse-link replay: the state-corruption class
    ["reverse-replay"] ({!Corrupt.Reverse_replay}) shared by the three
    protocol sessions.

    Remembers the last control frames the session's receiver sent on the
    reverse link and, on request, re-sends an old one several times: a
    duplicating, non-FIFO reverse channel in the sense of Dolev et al.
    The sender must shrug off out-of-date acknowledgement state. *)

type t

val attach :
  Sim.Engine.t -> reverse:Channel.Link.t -> keep:(Frame.Wire.t -> bool) -> t
(** Tap [reverse] and remember the last eight frames sent on it for
    which [keep] holds. *)

val inject : t -> copies:int -> back:int -> string option
(** Re-send the frame [back] positions before the newest remembered one
    ([back] clamped to what is remembered), [copies] times, one
    zero-delay event from now. Returns a description, or [None] when
    [copies < 1] or nothing was remembered yet. *)
