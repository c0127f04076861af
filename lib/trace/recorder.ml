(* The ring is struct-of-arrays: event [i] lives in slot [i mod capacity]
   as an unboxed time, a probe event or (for the rare fault and
   violation records) an [Event.kind], and a flag saying which of the
   two. A probe event allocates nothing: its [Event.t] is built only by
   [ring_events] (the flight freeze) and for an installed sink. *)
type t = {
  name : string;
  capacity : int;
  times : float array;
  probes : Dlc.Probe.event array;
  others : Event.kind array;
  is_other : Bytes.t;
  mutable slot : int;  (* [next mod capacity] *)
  mutable next : int;  (* monotone event index *)
  mutable sink : (Event.t -> unit) option;
  mutable flight : Event.t list option;
  mutable violations : int;
  metrics : Metrics.t;
}

let create ?(capacity = 512) ~name () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
  {
    name;
    capacity;
    times = Array.make capacity 0.;
    probes = Array.make capacity Dlc.Probe.Recovery_started;
    others = Array.make capacity (Event.Violation { invariant = ""; detail = "" });
    is_other = Bytes.make capacity '\000';
    slot = 0;
    next = 0;
    sink = None;
    flight = None;
    violations = 0;
    metrics = Metrics.create ();
  }

let name t = t.name

let capacity t = t.capacity

let set_sink t f = t.sink <- Some f

let kind_at t s =
  if Bytes.get t.is_other s = '\000' then Event.Probe t.probes.(s)
  else t.others.(s)

let ring_events t =
  (* oldest slot is [next mod capacity] once the ring has wrapped *)
  let n = min t.next t.capacity in
  List.init n (fun k ->
      let i = t.next - n + k in
      let s = i mod t.capacity in
      { Event.i; time = t.times.(s); kind = kind_at t s })

let[@inline] advance t =
  t.next <- t.next + 1;
  t.slot <- (if t.slot + 1 = t.capacity then 0 else t.slot + 1)

let record_probe t ~now ev =
  let s = t.slot in
  Array.unsafe_set t.times s now;
  Array.unsafe_set t.probes s ev;
  Bytes.unsafe_set t.is_other s '\000';
  advance t;
  Metrics.observe_probe t.metrics ~now ev;
  match t.sink with
  | None -> ()
  | Some f -> f { Event.i = t.next - 1; time = now; kind = Event.Probe ev }

let record t ~now kind =
  match kind with
  | Event.Probe ev -> record_probe t ~now ev
  | Event.Fault _ | Event.Violation _ -> (
      let e = { Event.i = t.next; time = now; kind } in
      let s = t.slot in
      t.times.(s) <- now;
      t.others.(s) <- kind;
      Bytes.set t.is_other s '\001';
      advance t;
      Metrics.observe t.metrics e;
      (match kind with
      | Event.Violation _ ->
          t.violations <- t.violations + 1;
          if t.flight = None then t.flight <- Some (ring_events t)
      | _ -> ());
      match t.sink with None -> () | Some f -> f e)

let attach_probe t probe =
  Dlc.Probe.subscribe probe (fun ~now ev -> record_probe t ~now ev)

let attach_fault t ~link fault =
  Channel.Fault.set_observer fault (fun ~now action frame ->
      record t ~now
        (Event.Fault
           {
             link;
             action = Channel.Fault.action_name action;
             frame = Format.asprintf "%a" Frame.Wire.pp frame;
           }))

let attach_oracle t oracle =
  Oracle.set_on_violation oracle (fun v ->
      (* finalize-time violations carry no simulated instant (nan); -1
         marks them while keeping every trace timestamp JSON-finite *)
      let now = if Float.is_finite v.Oracle.time then v.Oracle.time else -1. in
      record t ~now
        (Event.Violation
           { invariant = v.Oracle.invariant; detail = v.Oracle.detail }))

let events_recorded t = t.next

let flight t = t.flight

let flight_jsonl t =
  Option.map
    (fun events ->
      let b = Buffer.create 4096 in
      List.iter
        (fun e ->
          Buffer.add_string b (Event.to_line e);
          Buffer.add_char b '\n')
        events;
      Buffer.contents b)
    t.flight

let violations t = t.violations

let metrics t = t.metrics
