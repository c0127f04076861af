(* The flight recorder and its metrics as they were before the
   struct-of-arrays rewrite: one [Event.t option] per ring slot,
   counters in a string-keyed [Hashtbl], boxed-float seq tables. Kept as
   the reference the differential tests in [test_trace.ml] compare
   [Trace.Recorder] and [Trace.Metrics] against; not used elsewhere. *)

module Event = Trace.Event

module Metrics = struct
  module Json = Bench_report.Json

  type t = {
    mutable events : int;
    counts : (string, int) Hashtbl.t;
    holding : Stats.Histogram.t;
    nak_latency : Stats.Histogram.t;
    cp_occupancy : Stats.Histogram.t;
    last_tx : (int, float) Hashtbl.t;  (* wire seq -> last Tx time *)
    first_nak : (int, float) Hashtbl.t;  (* wire seq -> first advert time *)
  }

  (* Time histograms: 1 ms bins to 0.5 s. The paper's link (4,000 km,
     300 Mbit/s) has a 27 ms RTT and resolving periods of tens of ms, so
     the range covers every sane configuration; pathological holds land in
     the overflow counter rather than vanishing. *)
  let create () =
    {
      events = 0;
      counts = Hashtbl.create 16;
      holding = Stats.Histogram.create ~lo:0. ~hi:0.5 ~bins:500;
      nak_latency = Stats.Histogram.create ~lo:0. ~hi:0.5 ~bins:500;
      cp_occupancy = Stats.Histogram.create ~lo:0. ~hi:64. ~bins:64;
      last_tx = Hashtbl.create 1024;
      first_nak = Hashtbl.create 256;
    }

  let bump t name =
    Hashtbl.replace t.counts name
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

  let observe t (e : Event.t) =
    t.events <- t.events + 1;
    bump t (Event.name e);
    match e.Event.kind with
    | Event.Probe (Dlc.Probe.Tx { seq; _ }) ->
        Hashtbl.replace t.last_tx seq e.Event.time
    | Event.Probe (Dlc.Probe.Released { seq; _ }) ->
        (match Hashtbl.find_opt t.last_tx seq with
        | Some t0 -> Stats.Histogram.add t.holding (e.Event.time -. t0)
        | None -> ());
        Hashtbl.remove t.last_tx seq;
        Hashtbl.remove t.first_nak seq
    | Event.Probe (Dlc.Probe.Requeued { seq; _ }) ->
        (match Hashtbl.find_opt t.first_nak seq with
        | Some t0 -> Stats.Histogram.add t.nak_latency (e.Event.time -. t0)
        | None -> ());
        Hashtbl.remove t.first_nak seq;
        Hashtbl.remove t.last_tx seq
    | Event.Probe (Dlc.Probe.Cp_emitted { naks; _ }) ->
        Stats.Histogram.add t.cp_occupancy (float_of_int (List.length naks));
        List.iter
          (fun seq ->
            if not (Hashtbl.mem t.first_nak seq) then
              Hashtbl.replace t.first_nak seq e.Event.time)
          naks
    | _ -> ()

  let events t = t.events

  let count t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

  let holding t = t.holding

  let nak_latency t = t.nak_latency

  let cp_occupancy t = t.cp_occupancy

  let sorted_counts t =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let hist_fields name h =
    let f = float_of_int in
    [
      (name ^ "_count", f (Stats.Histogram.count h));
      (name ^ "_mean", Stats.Histogram.mean_estimate h);
      (name ^ "_p50", Stats.Histogram.percentile h 50.);
      (name ^ "_p95", Stats.Histogram.percentile h 95.);
      (name ^ "_p99", Stats.Histogram.percentile h 99.);
      (name ^ "_overflow", f (Stats.Histogram.overflow h));
    ]

  let to_fields t =
    (("events", float_of_int t.events)
    :: List.map (fun (k, v) -> ("count_" ^ k, float_of_int v)) (sorted_counts t))
    @ hist_fields "holding" t.holding
    @ hist_fields "nak_latency" t.nak_latency
    @ hist_fields "cp_occupancy" t.cp_occupancy

  let hist_bins h =
    let rec go i acc =
      if i < 0 then acc
      else
        let n = Stats.Histogram.bin_count h i in
        if n = 0 then go (i - 1) acc
        else
          let lo, hi = Stats.Histogram.bin_bounds h i in
          go (i - 1)
            (Json.Obj
               [ ("lo", Json.Float lo); ("hi", Json.Float hi); ("n", Json.Int n) ]
            :: acc)
    in
    Json.List (go (Stats.Histogram.bins h - 1) [])

  let to_json t =
    Json.Obj
      (List.map (fun (k, v) -> (k, Json.Float v)) (to_fields t)
      @ [
          ("holding_bins", hist_bins t.holding);
          ("nak_latency_bins", hist_bins t.nak_latency);
          ("cp_occupancy_bins", hist_bins t.cp_occupancy);
        ])
end

module Recorder = struct
  type t = {
    name : string;
    capacity : int;
    ring : Event.t option array;
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
      ring = Array.make capacity None;
      next = 0;
      sink = None;
      flight = None;
      violations = 0;
      metrics = Metrics.create ();
    }

  let name t = t.name

  let capacity t = t.capacity

  let set_sink t f = t.sink <- Some f

  let ring_events t =
    (* oldest slot is [next mod capacity] once the ring has wrapped *)
    let n = min t.next t.capacity in
    List.init n (fun k ->
        let i = t.next - n + k in
        match t.ring.(i mod t.capacity) with
        | Some e -> e
        | None -> assert false)

  let record t ~now kind =
    let e = { Event.i = t.next; time = now; kind } in
    t.ring.(t.next mod t.capacity) <- Some e;
    t.next <- t.next + 1;
    Metrics.observe t.metrics e;
    (match kind with
    | Event.Violation _ ->
        t.violations <- t.violations + 1;
        if t.flight = None then t.flight <- Some (ring_events t)
    | _ -> ());
    match t.sink with None -> () | Some f -> f e

  let attach_probe t probe =
    Dlc.Probe.subscribe probe (fun ~now ev -> record t ~now (Event.Probe ev))

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
end
