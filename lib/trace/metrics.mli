(** Per-run counters and timing distributions derived from the trace
    stream.

    Everything here is computed incrementally from {!Event.t} values, so
    the same numbers come out whether the metrics were accumulated live
    (recorder attached to a running session) or replayed from a JSONL
    file ([trace summary]). Distributions use {!Stats.Histogram}:

    - {b holding time}: release instant minus the last transmission of
      the released wire number — the sending-buffer occupancy the paper
      bounds with the resolving period;
    - {b NAK latency}: requeue instant minus the first checkpoint that
      advertised the wire number — how long a NAK takes to turn into a
      retransmission decision;
    - {b checkpoint occupancy}: NAK count carried per emitted
      checkpoint / status report / supervisory frame.

    Samples reach the histograms in batches; the accessors below and
    {!to_fields} / {!to_json} hand out histograms that include every
    sample observed so far. *)

type t

val create : unit -> t

val observe : t -> Event.t -> unit

val observe_probe : t -> now:float -> Dlc.Probe.event -> unit
(** [observe t {i; time = now; kind = Probe ev}] for any [i] (the index
    plays no part in the metrics) without building the event: the
    recorder's per-event path, which allocates nothing. *)

val events : t -> int
(** Total events observed. *)

val count : t -> string -> int
(** Occurrences of one event tag ({!Event.name}); 0 for a name that is
    no tag. *)

val holding : t -> Stats.Histogram.t

val nak_latency : t -> Stats.Histogram.t

val cp_occupancy : t -> Stats.Histogram.t

val to_fields : t -> (string * float) list
(** Flat deterministic summary (sorted counter names, histogram count /
    mean / p50 / p95 / p99 / overflow) for report pipelines. *)

val to_json : t -> Bench_report.Json.t
(** {!to_fields} plus the nonempty bins of each histogram. *)
