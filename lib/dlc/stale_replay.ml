type t = {
  engine : Sim.Engine.t;
  reverse : Channel.Link.t;
  ring : Frame.Wire.t Channel.Recent.t;
}

let depth = 8

let attach engine ~reverse ~keep =
  let t = { engine; reverse; ring = Channel.Recent.create depth } in
  Channel.Link.add_tap reverse (function
    | Channel.Link.Tap_tx frame when keep frame -> Channel.Recent.push t.ring frame
    | _ -> ());
  t

let inject t ~copies ~back =
  if copies < 1 then None
  else
    match Channel.Recent.stale t.ring ~back with
    | None -> None
    | Some (age, frame) ->
        (* defer the sends one zero-delay event: the injector publishes
           State_corrupted only after this mutator returns, and the
           suspect window must be open before the stale frames hit the
           reverse-link taps *)
        ignore
          (Sim.Engine.schedule t.engine ~delay:0. (fun () ->
               for _ = 1 to copies do
                 Channel.Link.send t.reverse frame
               done)
            : Sim.Engine.event_id);
        Some
          (Format.asprintf "replayed stale %a x%d (age %d)" Frame.Wire.pp
             frame copies age)
