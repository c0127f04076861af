(* --- variant kit ----------------------------------------------------------- *)

type variant = Lams | Sr_hdlc | Nbdt_bulk

let variant_tag = function
  | Lams -> "lams"
  | Sr_hdlc -> "sr-hdlc"
  | Nbdt_bulk -> "nbdt"

let variants = [ Lams; Sr_hdlc; Nbdt_bulk ]

let max_or_zero = List.fold_left max 0.

let fingerprint parts =
  Digest.to_hex (Digest.string (String.concat "|" parts))

(* Capture into a content-addressed trace file when Trace.Config is set,
   unless the caller brought its own recorder. *)
let capture ?recorder ~proto ~seed ~fingerprint () =
  match recorder with
  | Some _ -> (None, recorder)
  | None -> (
      match Trace.Capture.start ~proto ~seed ~fingerprint () with
      | Some c -> (Some c, Some (Trace.Capture.recorder c))
      | None -> (None, None))

(* --- single-link stream ---------------------------------------------------- *)

let distance_m = 150_000.

let data_rate_bps = 100e6

let payload_bytes = 512

let n_frames = 400

let horizon = 0.5

let rtt = 2. *. distance_m /. Channel.Link.speed_of_light

(* The oracle's LAMS-DLC holding bound on this link: resolving period
   plus one checkpoint interval, one maximal frame time and 1 ms. *)
let lams_holding_bound params =
  Lams_dlc.Params.resolving_period params ~rtt
  +. params.Lams_dlc.Params.w_cp
  +. (65536. /. data_rate_bps)
  +. 1e-3

type params = {
  lams : Lams_dlc.Params.t;
  hdlc : Hdlc.Params.t;
  nbdt : Nbdt.Params.t;
}

let stream_params ?guard () =
  {
    lams =
      {
        Lams_dlc.Params.default with
        Lams_dlc.Params.w_cp = 1e-3;
        c_depth = 3;
        guard;
      };
    hdlc = { Hdlc.Params.default with Hdlc.Params.t_out = 1.5 *. rtt; guard };
    nbdt =
      { Nbdt.Params.default with Nbdt.Params.report_interval = 1e-3; guard };
  }

type live = {
  engine : Sim.Engine.t;
  duplex : Channel.Duplex.t;
  probe : Dlc.Probe.t;
  surface : Dlc.Corrupt.surface;
  oracle : Oracle.t;
  recorder : Trace.Recorder.t option;
}

type 'a stream = {
  adversary : 'a;
  oracle : Oracle.t;
  delivered : int;
  completed : bool;
}

let stream ?recorder ?(frames = n_frames) ?k ~prefix ~fingerprint ~seed ~ber
    ~cframe_ber ~params ~adversary variant =
  let name = prefix ^ "-" ^ variant_tag variant in
  let capture, recorder =
    capture ?recorder ~proto:name ~seed ~fingerprint ()
  in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m ~data_rate_bps
      ~iframe_error:(Channel.Error_model.uniform ~ber ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:cframe_ber ())
  in
  let session, probe, surface, profile =
    match variant with
    | Lams ->
        let s = Lams_dlc.Session.create engine ~params:params.lams ~duplex in
        ( Lams_dlc.Session.as_dlc s,
          Lams_dlc.Session.probe s,
          Lams_dlc.Session.corrupt_surface s,
          Oracle.Lams
            {
              c_depth = params.lams.Lams_dlc.Params.c_depth;
              holding_bound = lams_holding_bound params.lams;
            } )
    | Sr_hdlc ->
        let s = Hdlc.Session.create engine ~params:params.hdlc ~duplex in
        ( Hdlc.Session.as_dlc s,
          Hdlc.Session.probe s,
          Hdlc.Session.corrupt_surface s,
          Oracle.Hdlc
            {
              window = params.hdlc.Hdlc.Params.window;
              seq_bits = params.hdlc.Hdlc.Params.seq_bits;
            } )
    | Nbdt_bulk ->
        let s = Nbdt.Session.create engine ~params:params.nbdt ~duplex in
        ( Nbdt.Session.as_dlc s,
          Nbdt.Session.probe s,
          Nbdt.Session.corrupt_surface s,
          Oracle.Nbdt )
  in
  let oracle = Oracle.create ~name profile in
  Option.iter (fun k -> Oracle.set_convergence oracle ~k) k;
  (* recorder first, oracle second, so a probe event and the violation it
     triggers land in the flight ring in causal order *)
  Option.iter (fun r -> Trace.Recorder.attach_probe r probe) recorder;
  Oracle.attach oracle ~probe ~duplex;
  Option.iter (fun r -> Trace.Recorder.attach_oracle r oracle) recorder;
  let adversary =
    adversary { engine; duplex; probe; surface; oracle; recorder }
  in
  (* open-loop traffic at half the line rate: the HDLC window keeps
     headroom, so the send-side scramble class stays applicable *)
  let line_fps =
    data_rate_bps
    /. float_of_int (8 * (payload_bytes + Frame.Wire.iframe_overhead_bytes))
  in
  let arrivals =
    Workload.Arrivals.deterministic engine ~session ~rate:(0.5 *. line_fps)
      ~count:frames
      ~payload:(Workload.Arrivals.default_payload ~size:payload_bytes)
  in
  let metrics = session.Dlc.Session.metrics in
  let finished () =
    Workload.Arrivals.finished arrivals
    && Dlc.Metrics.unique_delivered metrics >= frames
  in
  let rec watch () =
    if finished () then session.Dlc.Session.stop ()
    else if Sim.Engine.now engine < horizon then
      ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id)
  in
  ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id);
  Sim.Engine.run engine ~until:horizon;
  session.Dlc.Session.stop ();
  Sim.Engine.run engine ~until:(horizon +. 1.);
  Oracle.finalize oracle;
  Option.iter Trace.Capture.finish capture;
  let delivered = Dlc.Metrics.unique_delivered metrics in
  { adversary; oracle; delivered; completed = delivered >= frames }

(* --- handover transfer ------------------------------------------------------ *)

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

type handover = {
  engine : Sim.Engine.t;
  duplex : Channel.Duplex.t;
  probe : Dlc.Probe.t;
  manager : Handover.Manager.t;
  transfer : Oracle.Transfer.t;
}

type transfer = {
  manager : Handover.Manager.t;
  oracle : Oracle.Transfer.t;
  messages_completed : int;
  payload_count : int;
  duplicates_dropped : int;
  retained : int;
}

let transfer ?recorder ?k ~tag ~proto ~fingerprint ~seed ~adversary
    (j : journey) =
  let capture, recorder = capture ?recorder ~proto ~seed ~fingerprint () in
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed in
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m:j.distance_m
      ~data_rate_bps:j.data_rate_bps
      ~iframe_error:(Channel.Error_model.uniform ~ber:j.ber ())
      ~cframe_error:(Channel.Error_model.uniform ~ber:j.cframe_ber ())
  in
  let probe = Dlc.Probe.create () in
  Option.iter (fun r -> Trace.Recorder.attach_probe r probe) recorder;
  let transfer = Oracle.Transfer.create ~name:(tag ^ "-transfer") in
  Option.iter (fun k -> Oracle.Transfer.set_convergence transfer ~k) k;
  Oracle.Transfer.observe transfer probe;
  let manager =
    Handover.Manager.create ~probe engine ~params:j.params ~duplex ~plan:j.plan
  in
  Handover.Manager.set_on_suspicious_replay manager
    (Oracle.Transfer.mark_suspicious transfer);
  adversary { engine; duplex; probe; manager; transfer };
  let reseq = Netstack.Resequencer.create () in
  let completed_msgs = ref 0 in
  (* the sink invariant is uniqueness, not id order: a retransmitted
     fragment of message k can arrive after message k+1 completed, so
     completion order is legitimately loose — Oracle.Stream's strict
     ordering only applies when messages finish transit one at a time
     (see test_netstack's property) *)
  Netstack.Resequencer.set_on_message reseq (fun ~src:_ ~msg_id ~body:_ ->
      incr completed_msgs;
      Oracle.Transfer.on_sink transfer ~now:(Sim.Engine.now engine) msg_id);
  Handover.Manager.set_on_deliver manager (fun ~payload ->
      match Workload.Messages.decode payload with
      | Ok frag -> Netstack.Resequencer.push reseq frag
      | Error e -> failwith (tag ^ ": undecodable fragment: " ^ e));
  let payloads =
    List.concat_map
      (fun msg_id ->
        let body =
          String.init j.msg_bytes (fun i ->
              Char.chr ((((msg_id * 131) + (i * 7)) land 0x3f) + 48))
        in
        List.map Workload.Messages.encode
          (Workload.Messages.fragment_message ~msg_id ~src:1 ~dst:2 ~mtu:j.mtu
             body))
      (List.init j.n_messages (fun i -> i))
  in
  List.iter
    (fun p ->
      if not (Handover.Manager.offer manager p) then
        failwith (tag ^ ": manager refused an offer before plan end"))
    payloads;
  Sim.Engine.run engine ~until:j.horizon;
  Handover.Manager.stop manager;
  Sim.Engine.run engine ~until:(j.horizon +. 1.);
  let retained = Handover.Manager.retained manager in
  Oracle.Transfer.finalize ~retained transfer;
  Option.iter Trace.Capture.finish capture;
  {
    manager;
    oracle = transfer;
    messages_completed = !completed_msgs;
    payload_count = List.length payloads;
    duplicates_dropped = Netstack.Resequencer.duplicates_dropped reseq;
    retained = List.length retained;
  }

(* --- soak -------------------------------------------------------------------- *)

type spec = {
  id : string;
  name : string;
  label : int -> string;
  run : seed:int -> int -> (string * float) list;
  gate : (string -> float) -> bool;
  gate_message : string;
}

(* Every schedule is a pure function of its task seed, and the seed of
   its (id, label), so one schedule index reproduces the same adversary
   on any worker of any --jobs run. *)
let run ?jobs ?root_seed spec ~schedules =
  Runner.run ?jobs ?root_seed ~replicates:1
    [
      {
        Runner.id = spec.id;
        name = spec.name;
        points =
          List.init schedules (fun i ->
              {
                Runner.label = spec.label i;
                run = (fun ~seed -> spec.run ~seed i);
              });
      };
    ]

let violations spec (report : Bench_report.Matrix_report.t) =
  let metric (p : Bench_report.Matrix_report.point) name =
    match List.assoc_opt name p.metrics with
    | Some s -> s.Bench_report.Matrix_report.max
    | None -> 0.
  in
  List.concat_map
    (fun (e : Bench_report.Matrix_report.experiment) ->
      List.filter_map
        (fun (p : Bench_report.Matrix_report.point) ->
          if spec.gate (metric p) then Some p.label else None)
        e.points)
    report.experiments
