(** Adversarial-run harness shared by E21 (handover blackouts), E22
    (state corruption) and E24 (lying feedback).

    Each adversary experiment is a thin adapter over three cores:
    - the variant kit and {!stream}, one guarded single-link session of
      any variant with its protocol-matched {!Oracle} attached;
    - {!transfer}, one fragmented multi-window transfer riding a
      {!Handover.Manager} under the cross-handover {!Oracle.Transfer};
    - a soak {!spec}: seed-pinned random adversary schedules swept
      through the replicated matrix runner, and the hard gate every
      schedule must pass.

    The adapter supplies only its adversary: fault scripts, a corruption
    schedule, blackout pulses, or extra oracle bookkeeping. Setup order
    (probe subscriptions, fault installs, engine schedules) is fixed
    here, so event ids and captured trace bytes do not depend on which
    experiment drives the run. *)

(** {1 Variant kit} *)

type variant = Lams | Sr_hdlc | Nbdt_bulk

val variant_tag : variant -> string

val variants : variant list

val max_or_zero : float list -> float
(** Largest element, [0.] for the empty list. *)

val fingerprint : string list -> string
(** Hex digest of the ['|']-joined parts: a trace file name that depends
    only on a run's configuration. *)

(** {1 Single-link stream}

    A 150 km / 100 Mbit/s link carrying [n_frames] x [payload_bytes]
    frames at half the line rate: recovery time scales are
    milliseconds, so the quantities under study are the adversary's
    effect on safety and convergence, not bandwidth-delay stress. *)

val distance_m : float

val data_rate_bps : float

val payload_bytes : int

val n_frames : int

type params = {
  lams : Lams_dlc.Params.t;
  hdlc : Hdlc.Params.t;
  nbdt : Nbdt.Params.t;
}

val stream_params : ?guard:Dlc.Guard.config -> unit -> params
(** 1 ms LAMS checkpoints with [C_depth = 3], an HDLC timeout of 1.5
    RTT, 1 ms NBDT reports; [guard] (default none) on every variant. *)

type live = {
  engine : Sim.Engine.t;
  duplex : Channel.Duplex.t;
  probe : Dlc.Probe.t;
  surface : Dlc.Corrupt.surface;
  oracle : Oracle.t;
  recorder : Trace.Recorder.t option;
}
(** A session ready to run: recorder and oracle already attached. *)

type 'a stream = {
  adversary : 'a;  (** what the adversary hook returned *)
  oracle : Oracle.t;  (** finalized *)
  delivered : int;
  completed : bool;  (** every offered frame delivered *)
}

val stream :
  ?recorder:Trace.Recorder.t ->
  ?frames:int ->
  ?k:int ->
  prefix:string ->
  fingerprint:string ->
  seed:int ->
  ber:float ->
  cframe_ber:float ->
  params:params ->
  adversary:(live -> 'a) ->
  variant ->
  'a stream
(** One run of [variant]. The capture proto and the oracle are both
    named [prefix ^ "-" ^ variant_tag variant]; a trace is captured when
    {!Trace.Config} is set, or recorded into [recorder]. [k] puts the
    oracle in convergence mode. [adversary] runs once the recorder and
    the oracle are attached, before any traffic is offered. [frames]
    defaults to {!n_frames}. *)

(** {1 Handover transfer} *)

type journey = {
  plan : Handover.Plan.t;
  params : Lams_dlc.Params.t;
  n_messages : int;
  msg_bytes : int;
  mtu : int;
  distance_m : float;
  data_rate_bps : float;
  ber : float;
  cframe_ber : float;
  horizon : float;
}
(** One logical transfer: [n_messages] messages fragmented at [mtu],
    offered at once across [plan]'s contact windows. *)

type handover = {
  engine : Sim.Engine.t;
  duplex : Channel.Duplex.t;
  probe : Dlc.Probe.t;
  manager : Handover.Manager.t;
  transfer : Oracle.Transfer.t;
}
(** A transfer ready to run: manager created, transfer oracle observing. *)

type transfer = {
  manager : Handover.Manager.t;  (** stopped *)
  oracle : Oracle.Transfer.t;  (** finalized *)
  messages_completed : int;  (** messages reassembled at the sink *)
  payload_count : int;  (** fragments offered *)
  duplicates_dropped : int;  (** absorbed by the sink resequencer *)
  retained : int;  (** payloads left undelivered in the manager *)
}

val transfer :
  ?recorder:Trace.Recorder.t ->
  ?k:int ->
  tag:string ->
  proto:string ->
  fingerprint:string ->
  seed:int ->
  adversary:(handover -> unit) ->
  journey ->
  transfer
(** One journey; the transfer oracle is named [tag ^ "-transfer"] and
    finalized against the manager's retained payloads. [k] puts it in
    convergence mode. [adversary] runs once the manager exists, before
    the payloads are offered. *)

(** {1 Soak} *)

type spec = {
  id : string;  (** matrix experiment id; every task seed derives from it *)
  name : string;
  label : int -> string;  (** point label of schedule [i] *)
  run : seed:int -> int -> (string * float) list;
      (** metrics of schedule [i] under its task seed *)
  gate : (string -> float) -> bool;
      (** [true] when a point violates the gate, given a metric lookup
          (the metric's max over replicates; [0.] when absent) *)
  gate_message : string;  (** names the violations, e.g. "oracle violations" *)
}

val run :
  ?jobs:int ->
  ?root_seed:int ->
  spec ->
  schedules:int ->
  Bench_report.Matrix_report.t
(** One matrix point per schedule, one replicate each; byte-identical
    for any [jobs]. *)

val violations : spec -> Bench_report.Matrix_report.t -> string list
(** Labels of the points that fail the gate, in report order. *)
