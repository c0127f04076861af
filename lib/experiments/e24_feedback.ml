let name = "E24 Byzantine feedback: lie classes x variants x guard"

(* Soak's short, fast link, as in E22: the quantities under study are
   safety (does a lying reverse channel ever cause a wrongful release?)
   and the degradation envelope (how long until the guard forces the
   sender back onto the truth?), not bandwidth-delay stress. Channels
   are noiseless; every fault is scripted, so each row is a single
   deterministic trajectory. Forward-path losses create the NAK material
   the lies then tamper with: three scripted I-frame drops (a two-frame
   burst and a single). *)
let forward_drops = [ 20; 21; 60 ]

(* Reverse blackout window: total reverse silence for 10 ms — long
   enough to trip every variant's silence recovery, short enough that
   none exhausts its retry budget. *)
let blackout_from = 5e-3

let blackout_until = 15e-3

type variant = Soak.variant = Lams | Sr_hdlc | Nbdt_bulk

let variant_tag = Soak.variant_tag

let variants = Soak.variants

type lie = No_lie | Forge | Rewrite | Stale | Blackout

let lie_tag = function
  | No_lie -> "none"
  | Forge -> "forge-ack"
  | Rewrite -> "rewrite-cp-seq"
  | Stale -> "inject-stale-cp"
  | Blackout -> "blackout"

let lies = [ No_lie; Forge; Rewrite; Stale; Blackout ]

(* One quarantine is already proof of lying on a noiseless scripted
   channel, so the guard escalates immediately; the paper-default retry
   budget bounds the resync ladder. *)
let guard_config =
  { Dlc.Guard.default_config with Dlc.Guard.distrust_threshold = 1 }

let params ~guard_on =
  let p =
    Soak.stream_params ?guard:(if guard_on then Some guard_config else None) ()
  in
  { p with Soak.nbdt = { p.Soak.nbdt with Nbdt.Params.resend_timeout = 5e-3 } }

let forward_spec =
  Channel.Fault.Rules
    (List.map
       (fun n -> Channel.Fault.rule ~copies:1 (Channel.Fault.I_nth n) Channel.Fault.Drop)
       forward_drops)

(* The reverse-channel lie script for each class. Forge flips the first
   NAK-carrying feedback frame positive; rewrite and stale-replay mangle
   a mid-stream control frame; blackout silences the reverse link for a
   fixed window. *)
let reverse_spec = function
  | No_lie -> None
  | Forge ->
      Some
        (Channel.Fault.Rules
           [ Channel.Fault.rule ~copies:1 Channel.Fault.Cp_nak Channel.Fault.Forge_ack ])
  | Rewrite ->
      Some
        (Channel.Fault.Rules
           [
             Channel.Fault.rule ~copies:1 (Channel.Fault.Control_nth 6)
               (Channel.Fault.Rewrite_cp_seq { delta = -3 });
           ])
  | Stale ->
      Some
        (Channel.Fault.Rules
           [
             Channel.Fault.rule ~copies:1 (Channel.Fault.Control_nth 10)
               (Channel.Fault.Inject_stale_cp { back = 2 });
           ])
  | Blackout ->
      Some
        (Channel.Fault.Rules
           [ Channel.Fault.blackout ~from:blackout_from ~until:blackout_until ])

type outcome = {
  variant : string;
  lie : string;
  guarded : bool;
  faults : int;  (** reverse-channel fault hits *)
  lies_told : int;  (** clean-looking forgeries among them *)
  quarantines : int;
  resyncs : int;
  failure_declared : bool;
  resolved : int;  (** disturbance episodes closed by a recovery *)
  time_to_resync : float;  (** worst resolved episode, seconds *)
  unresolved : bool;  (** an episode was still open at the end *)
  wrongful : int;  (** oracle-detected wrongful releases *)
  violations : int;  (** all base-oracle violations *)
  delivered : int;
  completed : bool;
  goodput_floor : float;
      (** min bucketed delivery rate inside the blackout window (bits/s);
          nan for non-blackout rows *)
}

(* Shared core: [forward] / [reverse] are the per-link fault specs,
   [mark_at] opens a disturbance episode at a scripted instant (blackout
   windows produce no per-frame hit until the next frame flies),
   [floor_window] bounds the goodput-floor measurement. *)
let run_core ?recorder ?frames ~guard_on ~seed ~lie_name ~forward ~reverse
    ~mark_at ~floor_window variant =
  let tag = variant_tag variant in
  let r =
    Soak.stream ?recorder ?frames ~prefix:"e24"
      ~fingerprint:
        (Soak.fingerprint
           [
             "e24";
             string_of_int seed;
             tag;
             lie_name;
             (if guard_on then "guard" else "bare");
           ])
      ~seed ~ber:0. ~cframe_ber:0. ~params:(params ~guard_on)
      ~adversary:(fun { Soak.engine; duplex; probe; oracle; recorder; _ } ->
        let feedback = Oracle.Feedback.create ~bucket:1e-3 oracle in
        Oracle.Feedback.observe feedback probe;
        let install ~link spec target ~observe =
          let fault = Channel.Fault.compile spec in
          Channel.Fault.install fault target;
          observe fault;
          Option.iter (fun r -> Trace.Recorder.attach_fault r ~link fault) recorder
        in
        install ~link:"forward" forward duplex.Channel.Duplex.forward
          ~observe:ignore;
        Option.iter
          (fun spec ->
            install ~link:"reverse" spec duplex.Channel.Duplex.reverse
              ~observe:(fun fault ->
                Channel.Fault.set_observer fault (fun ~now action _frame ->
                    Oracle.Feedback.on_fault feedback ~now
                      ~lie:(Channel.Fault.is_lie action))))
          reverse;
        Option.iter
          (fun at ->
            ignore
              (Sim.Engine.schedule engine ~delay:at (fun () ->
                   Oracle.Feedback.mark_disturbance feedback
                     ~now:(Sim.Engine.now engine))
                : Sim.Engine.event_id))
          mark_at;
        feedback)
      variant
  in
  let feedback = r.Soak.adversary in
  let resync_times = Oracle.Feedback.resync_times feedback in
  {
    variant = tag;
    lie = lie_name;
    guarded = guard_on;
    faults = Oracle.Feedback.faults_seen feedback;
    lies_told = Oracle.Feedback.lies_seen feedback;
    quarantines = Oracle.Feedback.quarantines feedback;
    resyncs = Oracle.Feedback.resyncs feedback;
    failure_declared = Oracle.Feedback.failure_declared feedback;
    resolved = List.length resync_times;
    time_to_resync = Soak.max_or_zero resync_times;
    unresolved = Oracle.Feedback.unresolved feedback;
    wrongful = Oracle.Feedback.wrongful_releases feedback;
    violations = List.length (Oracle.violations r.Soak.oracle);
    delivered = r.Soak.delivered;
    completed = r.Soak.completed;
    goodput_floor =
      (match floor_window with
      | Some (lo, hi) -> Oracle.Feedback.goodput_floor feedback ~lo ~hi
      | None -> nan);
  }

let run_one ?recorder ?frames ~guard_on ~seed variant lie =
  run_core ?recorder ?frames ~guard_on ~seed ~lie_name:(lie_tag lie)
    ~forward:forward_spec ~reverse:(reverse_spec lie)
    ~mark_at:(if lie = Blackout then Some blackout_from else None)
    ~floor_window:
      (if lie = Blackout then Some (blackout_from +. 4e-3, blackout_until)
       else None)
    variant

let run_scripted ?recorder ?frames ~guard_on ~seed variant spec =
  run_core ?recorder ?frames ~guard_on ~seed ~lie_name:"script"
    ~forward:forward_spec ~reverse:(Some spec) ~mark_at:None
    ~floor_window:None variant

(* --- matrix points ------------------------------------------------------- *)

let outcome_metrics o =
  let f = float_of_int in
  let b v = if v then 1. else 0. in
  [
    ("faults", f o.faults);
    ("lies", f o.lies_told);
    ("quarantines", f o.quarantines);
    ("resyncs", f o.resyncs);
    ("resolved_episodes", f o.resolved);
    ("time_to_resync", o.time_to_resync);
    ("failure_declared", b o.failure_declared);
    ("unresolved", b o.unresolved);
    ("wrongful_releases", f o.wrongful);
    ("oracle_violations", f o.violations);
    ("delivered", f o.delivered);
    ("completed", b o.completed);
    ("goodput_floor", (if Float.is_nan o.goodput_floor then 0. else o.goodput_floor));
  ]

let points ~quick =
  let vs = if quick then [ Lams ] else variants in
  let ls = if quick then [ No_lie; Forge ] else lies in
  List.concat_map
    (fun v ->
      List.concat_map
        (fun l ->
          List.map
            (fun guard_on ->
              {
                Runner.label =
                  Printf.sprintf "%s/%s/%s" (variant_tag v) (lie_tag l)
                    (if guard_on then "guard" else "bare");
                run =
                  (fun ~seed -> outcome_metrics (run_one ~guard_on ~seed v l));
              })
            [ false; true ])
        ls)
    vs

(* --- lie soak ------------------------------------------------------------ *)

(* Seed-pinned adversarial lying: the reverse channel drops, corrupts
   and forges at random (from a seed-derived schedule), the forward
   channel loses the occasional I-frame to keep NAK traffic flowing, and
   the guard stays on. Safety must hold for every schedule: zero
   wrongful releases, and every disturbance either resolves or ends in a
   declared failure. *)
let soak_reverse_spec ~seed =
  Channel.Fault.adversary
    ~seed:(Sim.Rng.derive_seed ~root:seed [ "e24-soak-reverse" ])
    ~p_control:0.01 ~p_lie:0.05
    ~lies:
      [
        Channel.Fault.Forge_ack;
        Channel.Fault.Rewrite_cp_seq { delta = -1 };
        Channel.Fault.Inject_stale_cp { back = 1 };
      ]
    ()

let soak_forward_spec ~seed =
  Channel.Fault.adversary
    ~seed:(Sim.Rng.derive_seed ~root:seed [ "e24-soak-forward" ])
    ~p_iframe:0.02 ()

let soak_variant i = List.nth variants (i mod List.length variants)

let soak_suite =
  {
    Soak.id = "e24-soak";
    name = "lying-feedback soak";
    label =
      (fun i -> Printf.sprintf "schedule=%03d/%s" i (variant_tag (soak_variant i)));
    run =
      (fun ~seed i ->
        outcome_metrics
          (run_core ~guard_on:true ~seed ~lie_name:"soak"
             ~forward:(soak_forward_spec ~seed)
             ~reverse:(Some (soak_reverse_spec ~seed))
             ~mark_at:None ~floor_window:None (soak_variant i)));
    gate =
      (fun metric ->
        metric "wrongful_releases" > 0.
        || (metric "completed" = 0. && metric "failure_declared" = 0.));
    gate_message = "feedback-safety violations";
  }

let soak ?jobs ?root_seed ~schedules () =
  Soak.run ?jobs ?root_seed soak_suite ~schedules

(* --- report -------------------------------------------------------------- *)

let run ?(quick = false) ppf =
  Report.section ppf ~id:"E24"
    ~title:"Byzantine feedback: lie classes x variants x guard";
  Format.fprintf ppf
    "noiseless %.0f km / %.0f Mbit/s link, %d x %d B frames, scripted \
     forward drops %s;@ reverse-channel lies per row; blackout window \
     [%.0f, %.0f) ms; guard: distrust threshold %d, %d resync retries@."
    (Soak.distance_m /. 1000.) (Soak.data_rate_bps /. 1e6) Soak.n_frames
    Soak.payload_bytes
    (String.concat "," (List.map string_of_int forward_drops))
    (blackout_from *. 1e3) (blackout_until *. 1e3)
    guard_config.Dlc.Guard.distrust_threshold
    guard_config.Dlc.Guard.resync_retries;
  let table =
    Stats.Table.create
      ~header:
        [
          "variant";
          "lie";
          "guard";
          "lies";
          "quar";
          "resync";
          "ttr (ms)";
          "wrongful";
          "delivered";
          "outcome";
        ]
  in
  let vs = if quick then [ Lams ] else variants in
  let ls = if quick then [ No_lie; Forge; Blackout ] else lies in
  List.iter
    (fun v ->
      List.iter
        (fun l ->
          List.iter
            (fun guard_on ->
              let o = run_one ~guard_on ~seed:11 v l in
              let outcome =
                if o.failure_declared then "failure declared"
                else if not o.completed then
                  Printf.sprintf "STALLED (%d lost)" (Soak.n_frames - o.delivered)
                else if o.unresolved then
                  (* full delivery with no explicit resync closing the
                     episode: the variant's own timeout machinery rode
                     out the disturbance *)
                  "converged (implicit)"
                else "converged"
              in
              Stats.Table.add_row table
                [
                  o.variant;
                  o.lie;
                  (if o.guarded then "on" else "off");
                  string_of_int o.lies_told;
                  string_of_int o.quarantines;
                  string_of_int o.resyncs;
                  Printf.sprintf "%.2f" (o.time_to_resync *. 1e3);
                  (if o.wrongful = 0 then "0"
                   else Printf.sprintf "%d !!" o.wrongful);
                  string_of_int o.delivered;
                  outcome;
                ])
            [ false; true ])
        ls)
    vs;
  Report.table ppf table;
  Report.note ppf
    "Expect: with the guard off, forge-ack causes oracle-detected wrongful\n\
     releases (silent data loss) on the checkpointed variants; with the\n\
     guard on, every lie class ends converged — quarantine, forced resync,\n\
     bounded time-to-resync, or implicitly via the variant's own timeout\n\
     machinery — or in an explicit failure declaration, and the wrongful\n\
     column stays 0 everywhere. Lie-free rows must show zero quarantines:\n\
     the guard never penalises honest feedback."
