let name = "E22 self-stabilisation: convergence after live-state corruption"

(* Soak's short, fast link, so recovery time scales are milliseconds:
   the quantity under study is the convergence window after an injected
   state corruption, not bandwidth-delay stress. *)
let ber = 1e-6

let cframe_ber = 1e-7

let inject_at = 5e-3

type variant = Soak.variant = Lams | Sr_hdlc | Nbdt_bulk

let variant_tag = Soak.variant_tag

let variants = Soak.variants

(* Convergence budget k, in checkpoint emissions. LAMS checkpoints and
   NBDT reports are periodic (w_cp / report_interval), so k bounds wall
   time directly; HDLC emits a supervisory frame per arriving I-frame,
   orders of magnitude faster than the recovery RTT, so its budget is
   correspondingly larger. *)
let convergence_k = function Lams -> 8 | Sr_hdlc -> 64 | Nbdt_bulk -> 8

(* The six timed corruption classes, with canonical arguments; the
   seventh class, carryover staleness, lives in the handover run. *)
let classes : (string * Dlc.Corrupt.klass) list =
  [
    ( "seq-scramble-send",
      Dlc.Corrupt.Seq_scramble { side = Dlc.Corrupt.Send; delta = 5 } );
    ( "seq-scramble-recv",
      Dlc.Corrupt.Seq_scramble { side = Dlc.Corrupt.Recv; delta = 3 } );
    ("nak-poison", Dlc.Corrupt.Nak_poison { seqs = [ 1; 2 ] });
    ("nak-truncate", Dlc.Corrupt.Nak_truncate);
    ("buffer-duplicate", Dlc.Corrupt.Buffer_duplicate);
    ("reverse-replay", Dlc.Corrupt.Reverse_replay { copies = 2; back = 2 });
  ]

let spec_of klass = Dlc.Corrupt.Rules [ Dlc.Corrupt.rule ~at:inject_at klass ]

type outcome = {
  variant : string;
  spec : string;
  injected : int;  (** injections actually applied *)
  skipped : int;  (** injections on an inapplicable surface *)
  converged : int;  (** suspect windows closed by k clean checkpoints *)
  time_to_convergence : float;
      (** worst closed window: injection to last tolerated anomaly *)
  tolerated : int;
  declared_failure : bool;
  unconverged : bool;  (** a window was still open (with anomalies) at end *)
  completed : bool;
  delivered : int;
  violations : Oracle.violation list;
}

let run_one ?recorder ?k ?frames ~seed variant spec =
  let tag = variant_tag variant in
  let corrupt = Dlc.Corrupt.compile spec in
  let r =
    Soak.stream ?recorder ?frames
      ~k:(Option.value k ~default:(convergence_k variant))
      ~prefix:"e22" ~fingerprint:
        (Soak.fingerprint
           [ string_of_int seed; tag; Dlc.Corrupt.describe corrupt ])
      ~seed ~ber ~cframe_ber ~params:(Soak.stream_params ())
      ~adversary:(fun { Soak.engine; probe; surface; _ } ->
        let declared = ref false in
        Dlc.Probe.subscribe probe (fun ~now:_ ev ->
            match ev with
            | Dlc.Probe.Failure_declared -> declared := true
            | _ -> ());
        Dlc.Corrupt.install corrupt engine ~surface ~probe;
        declared)
      variant
  in
  let oracle = r.Soak.oracle in
  let conv = Oracle.convergence_times oracle in
  {
    variant = tag;
    spec = Dlc.Corrupt.describe corrupt;
    injected = Dlc.Corrupt.hits corrupt;
    skipped = Dlc.Corrupt.skipped corrupt;
    converged = List.length conv;
    time_to_convergence = Soak.max_or_zero conv;
    tolerated = Oracle.tolerated_count oracle;
    declared_failure = !(r.Soak.adversary) || Oracle.failure_during_window oracle;
    unconverged = Oracle.unconverged oracle;
    completed = r.Soak.completed;
    delivered = r.Soak.delivered;
    violations = Oracle.violations oracle;
  }

(* --- corruption across a handover (carryover staleness) ----------------- *)

(* The E21 geometry, reused: three contact windows over a 600 km
   crosslink, one logical transfer of fragmented messages riding a
   Handover.Manager — now with a corruption schedule dispatched into
   whichever session is live, and the cross-handover transfer oracle in
   convergence mode with a casualty ledger for destroyed carryover
   entries. Messages are big enough that the transfer is still in flight
   at every window close: carryover snapshots then hold real unresolved
   entries for the stale-carryover class to destroy, and mid-transfer
   injections from the soak land on live traffic. 10 x 100 kB at
   300 Mbit/s is ~27 ms of line time against 25 ms contact windows. *)
let h_journey =
  {
    (E21_handover.journey E21_handover.default_setup) with
    Soak.msg_bytes = 100_000;
  }

let h_k = 12

type handover_outcome = {
  h_spec : string;
  messages_completed : int;
  h_injected : int;
  h_skipped : int;
  h_converged : int;
  h_time_to_convergence : float;
  h_tolerated : int;
  casualties : int;  (** payloads destroyed by corruption, exempted losses *)
  h_declared : bool;
  h_unconverged : bool;
  sessions : int;
  h_violations : Oracle.violation list;
}

let run_handover ?recorder ~seed spec =
  let corrupt = Dlc.Corrupt.compile spec in
  let t =
    Soak.transfer ?recorder ~k:h_k ~tag:"e22" ~proto:"e22-handover"
      ~fingerprint:
        (Soak.fingerprint
           [ "e22-handover"; string_of_int seed; Dlc.Corrupt.describe corrupt ])
      ~seed h_journey
      ~adversary:(fun { Soak.manager; transfer; _ } ->
        Handover.Manager.set_corruptor
          ~on_casualty:(Oracle.Transfer.declare_casualty transfer)
          manager corrupt)
  in
  let transfer = t.Soak.oracle in
  let conv = Oracle.Transfer.convergence_times transfer in
  {
    h_spec = Dlc.Corrupt.describe corrupt;
    messages_completed = t.Soak.messages_completed;
    h_injected = Dlc.Corrupt.hits corrupt;
    h_skipped = Dlc.Corrupt.skipped corrupt;
    h_converged = List.length conv;
    h_time_to_convergence = Soak.max_or_zero conv;
    h_tolerated = Oracle.Transfer.tolerated_count transfer;
    casualties = Oracle.Transfer.casualties_lost transfer;
    h_declared = Oracle.Transfer.failure_during_window transfer;
    h_unconverged = Oracle.Transfer.unconverged transfer;
    sessions =
      (Handover.Manager.stats t.Soak.manager).Handover.Manager.sessions_created;
    h_violations = Oracle.Transfer.violations transfer;
  }

let carryover_spec =
  Dlc.Corrupt.Rules
    [
      Dlc.Corrupt.rule ~at:0.
        (Dlc.Corrupt.Carryover_stale { drop = 1; flip = true });
    ]

(* --- matrix points ------------------------------------------------------- *)

let outcome_metrics o =
  let f = float_of_int in
  let b v = if v then 1. else 0. in
  [
    ("injected", f o.injected);
    ("skipped", f o.skipped);
    ("converged_windows", f o.converged);
    ("time_to_convergence", o.time_to_convergence);
    ("tolerated", f o.tolerated);
    ("declared_failure", b o.declared_failure);
    ("unconverged", b o.unconverged);
    ("completed", b o.completed);
    ("delivered", f o.delivered);
    ("oracle_violations", f (List.length o.violations));
  ]

let handover_metrics o =
  let f = float_of_int in
  let b v = if v then 1. else 0. in
  [
    ("injected", f o.h_injected);
    ("skipped", f o.h_skipped);
    ("converged_windows", f o.h_converged);
    ("time_to_convergence", o.h_time_to_convergence);
    ("tolerated", f o.h_tolerated);
    ("declared_failure", b o.h_declared);
    ("unconverged", b o.h_unconverged);
    ("completed", b (o.messages_completed >= h_journey.Soak.n_messages));
    ("delivered", f o.messages_completed);
    ("oracle_violations", f (List.length o.h_violations));
  ]

let handover_point ~label spec =
  {
    Runner.label;
    run = (fun ~seed -> handover_metrics (run_handover ~seed spec));
  }

let points ~quick =
  let vs = if quick then [ Lams ] else variants in
  let cs = if quick then [ List.hd classes ] else classes in
  List.concat_map
    (fun v ->
      List.map
        (fun (cname, klass) ->
          {
            Runner.label = Printf.sprintf "%s/%s" (variant_tag v) cname;
            run =
              (fun ~seed -> outcome_metrics (run_one ~seed v (spec_of klass)));
          })
        cs)
    vs
  @ [ handover_point ~label:"handover/carryover-stale" carryover_spec ]

(* --- mid-handover corruption soak ---------------------------------------- *)

(* Seed-pinned random corruption schedules: the adversary spec itself is
   derived from the task seed, so one schedule index reproduces the same
   injections on any worker of any --jobs run. Injections land inside
   the first two contact windows; the third window provides the clean
   checkpoints that close the last suspect window. *)
let soak_spec ~seed =
  let odd = Sim.Rng.derive_seed ~root:seed [ "e22-soak-carryover" ] land 1 = 1 in
  let classes =
    List.map snd classes
    @ (if odd then [ Dlc.Corrupt.Carryover_stale { drop = 1; flip = false } ]
       else [])
  in
  Dlc.Corrupt.Adversary
    {
      seed = Sim.Rng.derive_seed ~root:seed [ "e22-soak-adversary" ];
      start = 2e-3;
      stop = 0.055;
      mean_gap = 8e-3;
      classes;
    }

let soak_suite =
  {
    Soak.id = "e22-soak";
    name = "mid-handover corruption soak";
    label = Printf.sprintf "schedule=%03d";
    run = (fun ~seed _ -> handover_metrics (run_handover ~seed (soak_spec ~seed)));
    gate = (fun metric -> metric "oracle_violations" > 0.);
    gate_message = "oracle violations";
  }

(* --- report -------------------------------------------------------------- *)

let run ?spec ?(quick = false) ppf =
  Report.section ppf ~id:"E22"
    ~title:"self-stabilisation: convergence after live-state corruption";
  Format.fprintf ppf
    "one injection at t=%.0f ms into a %.0f km / %.0f Mbit/s stream of %d x \
     %d B frames;@ convergence budget k: lams %d, sr-hdlc %d, nbdt %d \
     checkpoint emissions@."
    (inject_at *. 1e3) (Soak.distance_m /. 1000.) (Soak.data_rate_bps /. 1e6)
    Soak.n_frames Soak.payload_bytes (convergence_k Lams) (convergence_k Sr_hdlc)
    (convergence_k Nbdt_bulk);
  let table =
    Stats.Table.create
      ~header:
        [
          "variant";
          "class";
          "inj";
          "tolerated";
          "converged";
          "ttc (ms)";
          "declared";
          "oracle";
        ]
  in
  let vs = if quick then [ Lams ] else variants in
  (* a script override replaces the canonical one-shot classes: every
     variant runs the whole script (the carryover row keeps its spec
     unless the script is the override) *)
  let rows =
    match spec with
    | Some s -> [ ("script", `Spec s) ]
    | None ->
        let cs =
          if quick then [ List.hd classes; List.nth classes 3 ] else classes
        in
        List.map (fun (cname, klass) -> (cname, `Spec (spec_of klass))) cs
  in
  List.iter
    (fun v ->
      List.iter
        (fun (cname, `Spec s) ->
          let o = run_one ~seed:11 v s in
          Stats.Table.add_row table
            [
              o.variant;
              cname;
              (if o.injected > 0 then string_of_int o.injected
               else Printf.sprintf "%d skip" o.skipped);
              string_of_int o.tolerated;
              Printf.sprintf "%d/%d" o.converged
                (o.converged + if o.unconverged then 1 else 0);
              Printf.sprintf "%.2f" (o.time_to_convergence *. 1e3);
              (if o.declared_failure then "yes" else "-");
              (if o.violations = [] then "clean"
               else string_of_int (List.length o.violations));
            ])
        rows)
    vs;
  let oh =
    run_handover ~seed:11 (Option.value spec ~default:carryover_spec)
  in
  Stats.Table.add_row table
    [
      "handover";
      "carryover-stale";
      (if oh.h_injected > 0 then string_of_int oh.h_injected
       else Printf.sprintf "%d skip" oh.h_skipped);
      string_of_int oh.h_tolerated;
      Printf.sprintf "%d/%d" oh.h_converged
        (oh.h_converged + if oh.h_unconverged then 1 else 0);
      Printf.sprintf "%.2f" (oh.h_time_to_convergence *. 1e3);
      (if oh.h_declared then "yes" else "-");
      (if oh.h_violations = [] then "clean"
       else string_of_int (List.length oh.h_violations));
    ];
  Report.table ppf table;
  Report.note ppf
    "Expect: every row clean with a finite time-to-convergence, or an\n\
     explicit failure declaration — never a silently wrong steady state.\n\
     Tolerated anomalies are transients inside the suspect window (Dolev\n\
     et al.'s stabilisation period); the handover row additionally counts\n\
     destroyed carryover entries as declared casualties."
