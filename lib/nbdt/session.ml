type t = {
  sender : Sender.t;
  receiver : Receiver.t;
  metrics : Dlc.Metrics.t;
  probe : Dlc.Probe.t;
  name : string;
  guard : Dlc.Guard.t option;
  replay : Dlc.Stale_replay.t;
  mutable user_deliver : (payload:string -> unit) option;
}

let create ?probe engine ~params ~duplex =
  let params =
    match Params.validate params with
    | Ok p -> p
    | Error msg -> invalid_arg ("Nbdt.Session.create: " ^ msg)
  in
  let probe = match probe with Some p -> p | None -> Dlc.Probe.create () in
  let metrics = Dlc.Metrics.create () in
  let sender =
    Sender.create engine ~params ~forward:duplex.Channel.Duplex.forward ~metrics
      ~probe
  in
  let receiver =
    Receiver.create engine ~params ~reverse:duplex.Channel.Duplex.reverse
      ~metrics ~probe
  in
  let name =
    match params.Params.mode with
    | Params.Multiphase -> "nbdt-multiphase"
    | Params.Continuous -> "nbdt-continuous"
  in
  let guard =
    match params.Params.guard with
    | None -> None
    | Some cfg ->
        Some
          (Dlc.Guard.create cfg ~probe
             ~hooks:
               {
                 Dlc.Guard.now = (fun () -> Sim.Engine.now engine);
                 feedback =
                   Dlc.Guard.Checkpointed
                     {
                       next_seq = (fun () -> Sender.next_seq sender);
                       is_outstanding = (fun s -> Sender.is_outstanding sender s);
                     };
                 force_resync = (fun () -> Sender.force_resync sender);
                 declare_failure = (fun () -> Sender.force_failure sender);
               }
             ~deliver:(fun rx -> Sender.on_rx sender rx))
  in
  let replay =
    Dlc.Stale_replay.attach engine ~reverse:duplex.Channel.Duplex.reverse
      ~keep:(function Frame.Wire.Control _ -> true | _ -> false)
  in
  let t =
    {
      sender;
      receiver;
      metrics;
      probe;
      name;
      guard;
      replay;
      user_deliver = None;
    }
  in
  Channel.Link.set_receiver duplex.Channel.Duplex.forward (fun rx ->
      Receiver.on_rx receiver rx);
  Channel.Link.set_receiver duplex.Channel.Duplex.reverse (fun rx ->
      match guard with
      | Some g -> Dlc.Guard.on_rx g rx
      | None -> Sender.on_rx sender rx);
  Receiver.set_on_deliver receiver (fun ~payload ~seq ->
      let t0 = Sender.offer_time_of_seq sender seq in
      if not (Float.is_nan t0) then
        Stats.Online.add metrics.Dlc.Metrics.delivery_delay
          (Sim.Engine.now engine -. t0);
      match t.user_deliver with None -> () | Some f -> f ~payload);
  t

let sender t = t.sender

let receiver t = t.receiver

let metrics t = t.metrics

let probe t = t.probe

let guard t = t.guard

let corrupt_surface t =
  {
    Dlc.Corrupt.scramble_send_seq =
      (fun ~delta -> Sender.scramble_next_seq t.sender ~delta);
    scramble_recv_seq =
      (fun ~delta -> Receiver.scramble_frontier t.receiver ~delta);
    poison_nak_ledger =
      (fun ~seqs -> Receiver.poison_nak_ledger t.receiver ~seqs);
    truncate_nak_ledger = (fun () -> Receiver.truncate_nak_ledger t.receiver);
    duplicate_buffer_entry = (fun () -> Sender.duplicate_buffer_entry t.sender);
    replay_reverse = Dlc.Stale_replay.inject t.replay;
  }

let as_dlc t =
  {
    Dlc.Session.name = t.name;
    offer = (fun payload -> Sender.offer t.sender payload);
    set_on_deliver = (fun f -> t.user_deliver <- Some f);
    sender_backlog = (fun () -> Sender.backlog t.sender);
    stop =
      (fun () ->
        Sender.stop t.sender;
        Receiver.stop t.receiver);
    metrics = t.metrics;
  }
