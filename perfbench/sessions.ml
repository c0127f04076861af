(* Session builders for the benchmark.

   The untraced headline and small-burst samples call
   [Experiments.Scenario.run] itself. The traced mode needs to reach the
   layers inside a session, so it rebuilds the same session here from
   the library's public pieces and re-wires each layer's entry point
   through a {!Tracer} span:

   - the channel models, via {!Tracer.wrap_model} (copies stay wrapped);
   - [Channel.Link.set_receiver] on both directions, re-installed after
     [<Variant>.Session.create] to time the receiver, the sender and the
     feedback guard (a fresh [Dlc.Guard] with the session's hooks, whose
     [deliver] is the timed sender);
   - [Channel.Link.set_fault], to time [Channel.Fault.decision];
   - the [Dlc.Session.t] [offer] closure;
   - a [Dlc.Probe.subscribe] handler that times [Trace.Recorder.record];
   - the session probe forwarded with [Dlc.Probe.emit] into a private
     probe the oracles observe;
   - an [Sim.Engine.step] loop that counts events.

   The lying-feedback soak has no per-schedule library entry point, so
   [Soak.run] mirrors the soak core of [Experiments.E24_feedback] for
   both modes. The benchmark's test (and a check in every lying-soak
   run) pins both mirrors to the library: equal digests for
   [Scenario.run], equal outcome metrics for [E24_feedback.soak]. *)

module Scenario = Experiments.Scenario
module E24 = Experiments.E24_feedback

(* --- simulated-statistics digest ----------------------------------------- *)

let digest ~(metrics : Dlc.Metrics.t) ~efficiency =
  Printf.sprintf
    "delivered=%d iframes_sent=%d retransmissions=%d control_sent=%d \
     efficiency=%.17g"
    (Dlc.Metrics.unique_delivered metrics)
    metrics.Dlc.Metrics.iframes_sent metrics.Dlc.Metrics.retransmissions
    metrics.Dlc.Metrics.control_sent efficiency

let scenario_digest (r : Scenario.result) =
  digest ~metrics:r.Scenario.metrics ~efficiency:r.Scenario.efficiency

(* --- layers ---------------------------------------------------------------- *)

type proto = { offer : int; sender_rx : int; receiver_rx : int }

let proto tag =
  {
    offer = Tracer.layer (tag ^ ".sender.offer");
    sender_rx = Tracer.layer (tag ^ ".sender.rx");
    receiver_rx = Tracer.layer (tag ^ ".receiver.rx");
  }

let l_setup = Tracer.layer "session.setup"

let l_model = Tracer.layer "channel.model"

let l_fault = Tracer.layer "channel.fault"

let l_guard = Tracer.layer "dlc.guard"

let l_recorder = Tracer.layer "trace.recorder"

let l_oracle = Tracer.layer "oracle"

let lams = proto "lams_dlc"

let nbdt = proto "nbdt"

let hdlc = proto "hdlc"

(* --- observations the spans do not carry ----------------------------------- *)

type observed = {
  mutable events : int;  (** engine events (step-loop sessions only) *)
  mutable offers : int;  (** LAMS-DLC offers attempted *)
  mutable accepted : int;
  mutable span_peak : int;  (** LAMS-DLC numbering span *)
  mutable queue_peak : int;  (** forward transmit queue *)
  mutable link_sent : int;  (** forward link frames *)
  mutable link_lost : int;
  mutable unique : int;
  mutable iframes_sent : int;
}

let obs =
  {
    events = 0;
    offers = 0;
    accepted = 0;
    span_peak = 0;
    queue_peak = 0;
    link_sent = 0;
    link_lost = 0;
    unique = 0;
    iframes_sent = 0;
  }

let reset_observed () =
  obs.events <- 0;
  obs.offers <- 0;
  obs.accepted <- 0;
  obs.span_peak <- 0;
  obs.queue_peak <- 0;
  obs.link_sent <- 0;
  obs.link_lost <- 0;
  obs.unique <- 0;
  obs.iframes_sent <- 0

let watch_forward link =
  Channel.Link.add_tap link (function
    | Channel.Link.Tap_tx _ ->
        let q = Channel.Link.queue_length link in
        if q > obs.queue_peak then obs.queue_peak <- q
    | Channel.Link.Tap_rx _ | Channel.Link.Tap_lost _ -> ())

let note_session ~(duplex : Channel.Duplex.t) (metrics : Dlc.Metrics.t) =
  let st = Channel.Link.stats duplex.Channel.Duplex.forward in
  obs.link_sent <- obs.link_sent + st.Channel.Link.frames_sent;
  obs.link_lost <- obs.link_lost + st.Channel.Link.frames_lost;
  obs.unique <- obs.unique + Dlc.Metrics.unique_delivered metrics;
  obs.iframes_sent <- obs.iframes_sent + metrics.Dlc.Metrics.iframes_sent

(* --- re-wiring ------------------------------------------------------------- *)

let wrap_offer p (s : Dlc.Session.t) =
  let count = p == lams in
  {
    s with
    Dlc.Session.offer =
      (fun payload ->
        Tracer.enter p.offer;
        let ok = s.Dlc.Session.offer payload in
        Tracer.leave ();
        if count then begin
          obs.offers <- obs.offers + 1;
          if ok then obs.accepted <- obs.accepted + 1
        end;
        ok);
  }

(* [guard] rebuilds the session's guard around a given [deliver]; the
   session's own guard is then no longer reachable from the link. *)
let rewire p ~(duplex : Channel.Duplex.t) ~receiver_rx ~sender_rx ~guard =
  Channel.Link.set_receiver duplex.Channel.Duplex.forward (fun rx ->
      Tracer.enter p.receiver_rx;
      receiver_rx rx;
      Tracer.leave ());
  let deliver rx =
    Tracer.enter p.sender_rx;
    sender_rx rx;
    Tracer.leave ()
  in
  match guard with
  | None -> Channel.Link.set_receiver duplex.Channel.Duplex.reverse deliver
  | Some make ->
      let g = make ~deliver in
      Channel.Link.set_receiver duplex.Channel.Duplex.reverse (fun rx ->
          Tracer.enter l_guard;
          Dlc.Guard.on_rx g rx;
          Tracer.leave ())

let guard_maker cfg ~engine ~probe ~feedback ~force_resync ~declare_failure =
  Option.map
    (fun cfg ~deliver ->
      Dlc.Guard.create cfg ~probe
        ~hooks:
          {
            Dlc.Guard.now = (fun () -> Sim.Engine.now engine);
            feedback;
            force_resync;
            declare_failure;
          }
        ~deliver)
    cfg

let rewire_lams engine s ~duplex ~(params : Lams_dlc.Params.t) =
  let sender = Lams_dlc.Session.sender s in
  let receiver = Lams_dlc.Session.receiver s in
  rewire lams ~duplex
    ~receiver_rx:(fun rx -> Lams_dlc.Receiver.on_rx receiver rx)
    ~sender_rx:(fun rx -> Lams_dlc.Sender.on_rx sender rx)
    ~guard:
      (guard_maker params.Lams_dlc.Params.guard ~engine
         ~probe:(Lams_dlc.Session.probe s)
         ~feedback:
           (Dlc.Guard.Checkpointed
              {
                next_seq = (fun () -> Lams_dlc.Sender.next_seq sender);
                is_outstanding = (fun q -> Lams_dlc.Sender.is_outstanding sender q);
              })
         ~force_resync:(fun () -> Lams_dlc.Sender.force_resync sender)
         ~declare_failure:(fun () -> Lams_dlc.Sender.force_failure sender))

let rewire_nbdt engine s ~duplex ~(params : Nbdt.Params.t) =
  let sender = Nbdt.Session.sender s in
  let receiver = Nbdt.Session.receiver s in
  rewire nbdt ~duplex
    ~receiver_rx:(fun rx -> Nbdt.Receiver.on_rx receiver rx)
    ~sender_rx:(fun rx -> Nbdt.Sender.on_rx sender rx)
    ~guard:
      (guard_maker params.Nbdt.Params.guard ~engine
         ~probe:(Nbdt.Session.probe s)
         ~feedback:
           (Dlc.Guard.Checkpointed
              {
                next_seq = (fun () -> Nbdt.Sender.next_seq sender);
                is_outstanding = (fun q -> Nbdt.Sender.is_outstanding sender q);
              })
         ~force_resync:(fun () -> Nbdt.Sender.force_resync sender)
         ~declare_failure:(fun () -> Nbdt.Sender.force_failure sender))

let rewire_hdlc engine s ~duplex ~(params : Hdlc.Params.t) =
  let sender = Hdlc.Session.sender s in
  let receiver = Hdlc.Session.receiver s in
  rewire hdlc ~duplex
    ~receiver_rx:(fun rx -> Hdlc.Receiver.on_rx receiver rx)
    ~sender_rx:(fun rx -> Hdlc.Sender.on_rx sender rx)
    ~guard:
      (guard_maker params.Hdlc.Params.guard ~engine
         ~probe:(Hdlc.Session.probe s)
         ~feedback:
           (Dlc.Guard.Supervisory
              {
                modulus = Hdlc.Params.modulus params;
                v_s = (fun () -> Hdlc.Sender.v_s sender);
                v_a = (fun () -> Hdlc.Sender.v_a sender);
                is_outstanding = (fun q -> Hdlc.Sender.is_outstanding sender q);
              })
         ~force_resync:(fun () -> Hdlc.Sender.force_resync sender)
         ~declare_failure:(fun () -> Hdlc.Sender.force_failure sender))

let wrap_fault fault link =
  Channel.Link.set_fault link (fun ~now frame ->
      Tracer.enter l_fault;
      let d = Channel.Fault.decision fault ~now frame in
      Tracer.leave ();
      d)

let subscribe_recorder r probe =
  Dlc.Probe.subscribe probe (fun ~now ev ->
      Tracer.enter l_recorder;
      Trace.Recorder.record r ~now (Trace.Event.Probe ev);
      Tracer.leave ())

(* [Sim.Engine.run ~until] as a step loop that counts events. Equal to
   [run] whenever the queue drains before [until], which every completed
   session does; the digest check catches any run where it does not. *)
let run_counting engine ~until =
  let n = ref 0 in
  while
    Sim.Engine.pending engine > 0
    && Sim.Engine.now engine <= until
    && Sim.Engine.step engine
  do
    incr n
  done;
  Sim.Engine.run engine ~until;
  !n

(* --- workload configuration ----------------------------------------------- *)

(* The small-burst workload's config: 16 B payloads are 232-bit
   I-frames, and bursts of ~10 frames at BER 5e-3 wipe out runs of
   consecutive frames, so checkpoints carry multi-entry cumulative NAK
   lists. 10,000-frame sessions put checkpoints at ~10% of I-frames
   (the RTT tail dominates shorter sessions). *)
let small_burst_cfg =
  {
    Scenario.default with
    Scenario.payload_bytes = 16;
    n_frames = 10_000;
    burst =
      Some
        {
          Scenario.ber_good = 1e-7;
          ber_bad = 5e-3;
          mean_burst_bits = 2_000.;
          mean_gap_bits = 200_000.;
        };
  }

(* --- traced Scenario.run ---------------------------------------------------- *)

let scenario_models (cfg : Scenario.config) =
  let iframe_error =
    match cfg.Scenario.burst with
    | None -> Channel.Error_model.uniform ~ber:cfg.Scenario.ber ()
    | Some b ->
        Channel.Error_model.gilbert_elliott ~ber_good:b.Scenario.ber_good
          ~ber_bad:b.Scenario.ber_bad ~mean_burst_bits:b.Scenario.mean_burst_bits
          ~mean_gap_bits:b.Scenario.mean_gap_bits ()
  in
  (iframe_error, Channel.Error_model.uniform ~ber:cfg.Scenario.cframe_ber ())

type scenario_outcome = {
  digest : string;
  delivered : int;
  loss : int;
  completed : bool;
}

(* [Scenario.run ?recorder cfg (Lams params)] for configs without
   faults, blackout or channel trace, with every layer in a span. *)
let run_scenario_traced ?recorder (cfg : Scenario.config) params =
  Tracer.enter l_setup;
  let engine = Sim.Engine.create () in
  let rng = Sim.Rng.create ~seed:cfg.Scenario.seed in
  let iframe_error, cframe_error = scenario_models cfg in
  let duplex =
    Channel.Duplex.create_static engine ~rng ~distance_m:cfg.Scenario.distance_m
      ~data_rate_bps:cfg.Scenario.data_rate_bps
      ~iframe_error:(Tracer.wrap_model l_model iframe_error)
      ~cframe_error:(Tracer.wrap_model l_model cframe_error)
  in
  let s = Lams_dlc.Session.create engine ~params ~duplex in
  rewire_lams engine s ~duplex ~params;
  watch_forward duplex.Channel.Duplex.forward;
  (match recorder with
  | Some r -> subscribe_recorder r (Lams_dlc.Session.probe s)
  | None -> ());
  let session = wrap_offer lams (Lams_dlc.Session.as_dlc s) in
  let n_frames = cfg.Scenario.n_frames in
  let payload = Workload.Arrivals.default_payload ~size:cfg.Scenario.payload_bytes in
  let arrivals =
    match cfg.Scenario.traffic with
    | `Saturating ->
        Workload.Arrivals.saturating engine ~session ~count:n_frames ~payload
    | `Rate rate ->
        Workload.Arrivals.deterministic engine ~session ~rate ~count:n_frames
          ~payload
  in
  let metrics = session.Dlc.Session.metrics in
  let horizon = cfg.Scenario.horizon in
  let rec watch () =
    if
      Workload.Arrivals.finished arrivals
      && Dlc.Metrics.unique_delivered metrics >= n_frames
    then session.Dlc.Session.stop ()
    else if Sim.Engine.now engine < horizon then
      ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id)
  in
  ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id);
  Tracer.leave ();
  let events = run_counting engine ~until:horizon in
  session.Dlc.Session.stop ();
  let events = events + run_counting engine ~until:(horizon +. 10.) in
  obs.events <- obs.events + events;
  obs.span_peak <-
    max obs.span_peak
      (Lams_dlc.Sender.outstanding_span_peak (Lams_dlc.Session.sender s));
  note_session ~duplex metrics;
  let elapsed = Dlc.Metrics.elapsed metrics in
  let efficiency =
    if elapsed > 0. then
      float_of_int (Dlc.Metrics.unique_delivered metrics)
      *. Scenario.t_f cfg /. elapsed
    else 0.
  in
  {
    digest = digest ~metrics ~efficiency;
    delivered = Dlc.Metrics.unique_delivered metrics;
    loss = Dlc.Metrics.loss metrics;
    completed = Dlc.Metrics.unique_delivered metrics >= n_frames;
  }

(* --- the E24 lying-feedback soak -------------------------------------------- *)

module Soak = struct
  (* E24's soak link and stream (see e24_feedback.ml): noiseless
     150 km / 100 Mbit/s, 400 x 512 B frames at half the line rate,
     0.5 s horizon, guard always on. *)
  let distance_m = 150_000.

  let data_rate_bps = 100e6

  let payload_bytes = 512

  let n_frames = 400

  let horizon = 0.5

  let rtt = 2. *. distance_m /. Channel.Link.speed_of_light

  let guard = Some E24.guard_config

  let lams_params =
    {
      Lams_dlc.Params.default with
      Lams_dlc.Params.w_cp = 1e-3;
      c_depth = 3;
      guard;
    }

  let hdlc_params =
    { Hdlc.Params.default with Hdlc.Params.t_out = 1.5 *. rtt; guard }

  let nbdt_params =
    {
      Nbdt.Params.default with
      Nbdt.Params.report_interval = 1e-3;
      resend_timeout = 5e-3;
      guard;
    }

  let holding_bound =
    Lams_dlc.Params.resolving_period lams_params ~rtt
    +. lams_params.Lams_dlc.Params.w_cp
    +. (65536. /. data_rate_bps)
    +. 1e-3

  let forward_spec ~seed =
    Channel.Fault.adversary
      ~seed:(Sim.Rng.derive_seed ~root:seed [ "e24-soak-forward" ])
      ~p_iframe:0.02 ()

  let variant i = List.nth E24.variants (i mod List.length E24.variants)

  let label i = Printf.sprintf "schedule=%03d/%s" i (E24.variant_tag (variant i))

  (* the seed [E24_feedback.soak ~root_seed:root] gives schedule [i] *)
  let seed ~root i =
    Runner.seed_of_task ~root_seed:root ~experiment_id:"e24-soak"
      ~point_label:(label i) ~replicate:0

  type outcome = {
    metrics : (string * float) list;
        (** E24's per-schedule metric vector, same names and order *)
    wrongful : int;
    completed : bool;
    declared : bool;
    delivered : int;
  }

  (* E24's soak gate: no wrongful release, and the run either
     delivered everything or declared failure. *)
  let gate_ok o = o.wrongful = 0 && (o.completed || o.declared)

  let run ~traced ~seed variant =
    if traced then Tracer.enter l_setup;
    let model () =
      let m = Channel.Error_model.uniform ~ber:0. () in
      if traced then Tracer.wrap_model l_model m else m
    in
    let engine = Sim.Engine.create () in
    let rng = Sim.Rng.create ~seed in
    let duplex =
      Channel.Duplex.create_static engine ~rng ~distance_m ~data_rate_bps
        ~iframe_error:(model ()) ~cframe_error:(model ())
    in
    let tag = E24.variant_tag variant in
    let session, probe, profile, layers =
      match variant with
      | E24.Lams ->
          let params = lams_params in
          let s = Lams_dlc.Session.create engine ~params ~duplex in
          if traced then rewire_lams engine s ~duplex ~params;
          ( Lams_dlc.Session.as_dlc s,
            Lams_dlc.Session.probe s,
            Oracle.Lams
              { c_depth = params.Lams_dlc.Params.c_depth; holding_bound },
            lams )
      | E24.Sr_hdlc ->
          let params = hdlc_params in
          let s = Hdlc.Session.create engine ~params ~duplex in
          if traced then rewire_hdlc engine s ~duplex ~params;
          ( Hdlc.Session.as_dlc s,
            Hdlc.Session.probe s,
            Oracle.Hdlc
              {
                window = params.Hdlc.Params.window;
                seq_bits = params.Hdlc.Params.seq_bits;
              },
            hdlc )
      | E24.Nbdt_bulk ->
          let params = nbdt_params in
          let s = Nbdt.Session.create engine ~params ~duplex in
          if traced then rewire_nbdt engine s ~duplex ~params;
          (Nbdt.Session.as_dlc s, Nbdt.Session.probe s, Oracle.Nbdt, nbdt)
    in
    let oracle = Oracle.create ~name:("e24-" ^ tag) profile in
    let feedback = Oracle.Feedback.create ~bucket:1e-3 oracle in
    (if traced then begin
       let oracle_probe = Dlc.Probe.create () in
       Oracle.observe oracle oracle_probe;
       Oracle.observe_reverse oracle duplex.Channel.Duplex.reverse;
       Oracle.Feedback.observe feedback oracle_probe;
       Dlc.Probe.subscribe probe (fun ~now ev ->
           Tracer.enter l_oracle;
           Dlc.Probe.emit oracle_probe ~now ev;
           Tracer.leave ());
       watch_forward duplex.Channel.Duplex.forward
     end
     else begin
       Oracle.attach oracle ~probe ~duplex;
       Oracle.Feedback.observe feedback probe
     end);
    let install spec link =
      let fault = Channel.Fault.compile spec in
      Channel.Fault.install fault link;
      if traced then wrap_fault fault link;
      fault
    in
    ignore (install (forward_spec ~seed) duplex.Channel.Duplex.forward : Channel.Fault.t);
    let reverse =
      install (E24.soak_reverse_spec ~seed) duplex.Channel.Duplex.reverse
    in
    Channel.Fault.set_observer reverse (fun ~now action _frame ->
        Oracle.Feedback.on_fault feedback ~now ~lie:(Channel.Fault.is_lie action));
    let session = if traced then wrap_offer layers session else session in
    let line_fps =
      data_rate_bps
      /. float_of_int (8 * (payload_bytes + Frame.Wire.iframe_overhead_bytes))
    in
    let arrivals =
      Workload.Arrivals.deterministic engine ~session ~rate:(0.5 *. line_fps)
        ~count:n_frames
        ~payload:(Workload.Arrivals.default_payload ~size:payload_bytes)
    in
    let metrics = session.Dlc.Session.metrics in
    let rec watch () =
      if
        Workload.Arrivals.finished arrivals
        && Dlc.Metrics.unique_delivered metrics >= n_frames
      then session.Dlc.Session.stop ()
      else if Sim.Engine.now engine < horizon then
        ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id)
    in
    ignore (Sim.Engine.schedule engine ~delay:1e-3 watch : Sim.Engine.event_id);
    if traced then Tracer.leave ();
    Sim.Engine.run engine ~until:horizon;
    session.Dlc.Session.stop ();
    Sim.Engine.run engine ~until:(horizon +. 1.);
    Oracle.finalize oracle;
    if traced then note_session ~duplex metrics;
    let module F = Oracle.Feedback in
    let f = float_of_int and b v = if v then 1. else 0. in
    let resync_times = F.resync_times feedback in
    let delivered = Dlc.Metrics.unique_delivered metrics in
    let wrongful = F.wrongful_releases feedback in
    let completed = delivered >= n_frames in
    let declared = F.failure_declared feedback in
    {
      metrics =
        [
          ("faults", f (F.faults_seen feedback));
          ("lies", f (F.lies_seen feedback));
          ("quarantines", f (F.quarantines feedback));
          ("resyncs", f (F.resyncs feedback));
          ("resolved_episodes", f (List.length resync_times));
          ("time_to_resync", List.fold_left max 0. resync_times);
          ("failure_declared", b declared);
          ("unresolved", b (F.unresolved feedback));
          ("wrongful_releases", f wrongful);
          ("oracle_violations", f (List.length (Oracle.violations oracle)));
          ("delivered", f delivered);
          ("completed", b completed);
          ("goodput_floor", 0.);
        ];
      wrongful;
      completed;
      declared;
      delivered;
    }

  let digest o =
    String.concat " "
      (List.map (fun (k, v) -> Printf.sprintf "%s=%.17g" k v) o.metrics)

  (* [E24_feedback.soak ~root_seed:root ~schedules] as one metric-vector
     digest per schedule, for comparison with [digest]. *)
  let library_digests ~root ~schedules =
    let report = E24.soak ~jobs:1 ~root_seed:root ~schedules () in
    List.concat_map
      (fun e ->
        List.map
          (fun p ->
            String.concat " "
              (List.map
                 (fun (k, s) ->
                   Printf.sprintf "%s=%.17g" k s.Bench_report.Matrix_report.mean)
                 p.Bench_report.Matrix_report.metrics))
          e.Bench_report.Matrix_report.points)
      report.Bench_report.Matrix_report.experiments
end

(* --- the coded path ----------------------------------------------------------- *)

module Coded = struct
  let code_names = [| "rs"; "hamming"; "conv" |]

  let l_fec = Array.map (fun n -> Tracer.layer ("fec." ^ n)) code_names

  let l_path = Tracer.layer "channel.coded_path"

  let code i =
    match i with
    | 0 -> Fec.Reed_solomon.code ~n:255 ~k:223
    | 1 -> Fec.Code.hamming74
    | _ -> Fec.Code.conv_default

  (* bursty: ~1% of bits sit in bad-state bursts of ~100 bits *)
  let channel () =
    Channel.Error_model.gilbert_elliott ~ber_good:1e-6 ~ber_bad:0.02
      ~mean_burst_bits:100. ~mean_gap_bits:10_000. ()

  let path ~traced ~seed i =
    let code = code i in
    let code = if traced then Tracer.wrap_code l_fec.(i) code else code in
    let model = channel () in
    let model = if traced then Tracer.wrap_model l_model model else model in
    Channel.Coded_path.create ~rng:(Sim.Rng.create ~seed) ~iframe_code:code
      ~cframe_code:code ~error_model:model

  let seed ~root i = Sim.Rng.derive_seed ~root [ "coded"; code_names.(i) ]

  let frames () =
    Array.init 16 (fun i ->
        Frame.Wire.Data
          (Frame.Iframe.create ~seq:i
             ~payload:(Workload.Arrivals.default_payload ~size:1024 i)))

  let transmit_traced path frame =
    Tracer.enter l_path;
    let s = Channel.Coded_path.transmit_status path frame in
    Tracer.leave ();
    s

  let status_name = function
    | Channel.Link.Rx_ok -> "ok"
    | Channel.Link.Rx_payload_corrupt -> "payload-corrupt"
    | Channel.Link.Rx_header_corrupt -> "header-corrupt"
end
