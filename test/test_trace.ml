(* Tests for the lib/trace flight recorder: JSONL schema roundtrip,
   byte-determinism across runs and worker counts, and the
   oracle-violation flight dump. *)

(* --- event / schema roundtrip --------------------------------------- *)

let sample_events =
  [
    (* payloads kept within the 16-byte label so re-encoding is
       byte-stable; truncation has its own test below *)
    { Trace.Event.i = 0; time = 0.; kind = Probe (Dlc.Probe.Offered { payload = "frame-000-xyz" }) };
    { Trace.Event.i = 1; time = 1.5e-5; kind = Probe (Dlc.Probe.Tx { seq = 3; payload = "p"; retx = false }) };
    { Trace.Event.i = 2; time = 2e-5; kind = Probe (Dlc.Probe.Tx { seq = 3; payload = "p"; retx = true }) };
    { Trace.Event.i = 3; time = 0.25; kind = Probe (Dlc.Probe.Cp_emitted { cp_seq = 4; next_expected = 9; enforced = true; stop_go = false; naks = [ 5; 7 ] }) };
    { Trace.Event.i = 4; time = 0.3; kind = Fault { link = "forward"; action = "drop"; frame = "I seq=5" } };
    { Trace.Event.i = 5; time = 0.5; kind = Violation { invariant = "released-undelivered"; detail = "seq 5" } };
  ]

let test_event_roundtrip () =
  List.iter
    (fun (e : Trace.Event.t) ->
      let line = Trace.Event.to_line e in
      match Trace.Event.of_line line with
      | Error msg -> Alcotest.failf "roundtrip of %s: %s" line msg
      | Ok back ->
          Alcotest.(check int) "index" e.i back.i;
          Alcotest.(check (float 0.)) "time" e.time back.time;
          Alcotest.(check string) "re-encode is stable"
            line (Trace.Event.to_line back))
    sample_events

let test_event_payload_truncation () =
  let long = String.make 100 'x' in
  let e =
    { Trace.Event.i = 0; time = 0.; kind = Probe (Dlc.Probe.Offered { payload = long }) }
  in
  match Trace.Event.of_line (Trace.Event.to_line e) with
  | Error msg -> Alcotest.fail msg
  | Ok back -> (
      match back.kind with
      | Probe (Dlc.Probe.Offered { payload }) ->
          Alcotest.(check string) "truncated to label"
            (Trace.Event.payload_label long) payload
      | _ -> Alcotest.fail "kind changed")

let test_schema_accepts_stream () =
  let content =
    String.concat ""
      (List.map (fun e -> Trace.Event.to_line e ^ "\n") sample_events)
  in
  match Trace.Schema.validate content with
  | Ok n -> Alcotest.(check int) "event count" (List.length sample_events) n
  | Error msg -> Alcotest.fail msg

let test_schema_rejects () =
  let reject what content =
    match Trace.Schema.validate content with
    | Ok _ -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  reject "non-JSON line" "not json\n";
  reject "missing fields" "{\"i\":0}\n";
  let line i = Trace.Event.to_line { (List.hd sample_events) with i } in
  reject "non-increasing index" (line 3 ^ "\n" ^ line 3 ^ "\n");
  reject "decreasing index" (line 3 ^ "\n" ^ line 1 ^ "\n")

(* --- recorder + scenario determinism -------------------------------- *)

let drop5_spec =
  Channel.Fault.(Rules [ rule ~copies:1 (I_nth 5) Drop ])

let traced_run seed =
  (* Small checked scenario with a scripted forward drop; returns the
     full JSONL stream and the recorder. *)
  let recorder = Trace.Recorder.create ~name:"test" () in
  let buf = Buffer.create 4096 in
  Trace.Recorder.set_sink recorder (fun e ->
      Buffer.add_string buf (Trace.Event.to_line e);
      Buffer.add_char buf '\n');
  let cfg =
    {
      Experiments.Scenario.default with
      seed;
      n_frames = 30;
      ber = 0.;
      cframe_ber = 0.;
      horizon = 5.;
    }
  in
  let proto =
    Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg)
  in
  let _result, violations =
    Experiments.Scenario.run_checked ~faults:drop5_spec ~recorder cfg proto
  in
  (Buffer.contents buf, recorder, violations)

let test_same_seed_same_bytes () =
  let a, ra, va = traced_run 42 and b, rb, vb = traced_run 42 in
  Alcotest.(check string) "byte-identical JSONL" a b;
  Alcotest.(check int) "same event count"
    (Trace.Recorder.events_recorded ra)
    (Trace.Recorder.events_recorded rb);
  Alcotest.(check int) "same violations" (List.length va) (List.length vb);
  Alcotest.(check bool) "stream is non-trivial" true
    (Trace.Recorder.events_recorded ra > 30);
  match Trace.Schema.validate a with
  | Ok n ->
      Alcotest.(check int) "validates with full count"
        (Trace.Recorder.events_recorded ra) n
  | Error msg -> Alcotest.fail msg

let noisy_run seed =
  (* On a clean channel with a scripted fault the seed changes nothing
     (that is the point of the determinism tests above); to see the seed
     in the trace the channel must be lossy. *)
  let recorder = Trace.Recorder.create ~name:"noisy" () in
  let buf = Buffer.create 4096 in
  Trace.Recorder.set_sink recorder (fun e ->
      Buffer.add_string buf (Trace.Event.to_line e);
      Buffer.add_char buf '\n');
  let cfg =
    { Experiments.Scenario.default with seed; n_frames = 50; horizon = 5. }
  in
  let proto =
    Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg)
  in
  let _ = Experiments.Scenario.run ~recorder cfg proto in
  Buffer.contents buf

let test_different_seed_different_bytes () =
  let a = noisy_run 42 and b = noisy_run 43 in
  Alcotest.(check bool) "different seeds differ" false (String.equal a b)

let test_fault_events_recorded () =
  let jsonl, recorder, _ = traced_run 7 in
  Alcotest.(check bool) "fault hit recorded" true
    (Trace.Recorder.metrics recorder |> fun m -> Trace.Metrics.count m "fault" >= 1);
  Alcotest.(check bool) "fault line present" true
    (Astring.String.is_infix ~affix:"\"ev\":\"fault\"" jsonl)

(* --- flight dump on oracle violation -------------------------------- *)

let test_flight_dump_contains_offender () =
  let { Experiments.Disaster.recorder; violations } =
    Experiments.Disaster.run ()
  in
  Alcotest.(check bool) "at least one violation" true (violations <> []);
  match Trace.Recorder.flight recorder with
  | None -> Alcotest.fail "no flight dump frozen"
  | Some events ->
      let last = List.nth events (List.length events - 1) in
      (match last.Trace.Event.kind with
      | Violation { invariant; _ } ->
          Alcotest.(check string) "dump ends with the violation"
            "released-undelivered" invariant
      | _ -> Alcotest.fail "flight dump does not end with a violation");
      (* The disaster drops frame 5's only copy; the fatal release of
         that undelivered payload must still be in the ring. *)
      let released_5 =
        List.exists
          (fun (e : Trace.Event.t) ->
            match e.kind with
            | Probe (Dlc.Probe.Released { seq = 5; _ }) -> true
            | _ -> false)
          events
      in
      Alcotest.(check bool) "release of dropped frame in dump" true
        released_5;
      let fault_hit =
        List.exists
          (fun (e : Trace.Event.t) ->
            match e.kind with
            | Fault { action = "drop"; _ } -> true
            | _ -> false)
          events
      in
      Alcotest.(check bool) "fault hit in dump" true fault_hit;
      (* The frozen dump itself must be valid JSONL. *)
      (match Trace.Recorder.flight_jsonl recorder with
      | None -> Alcotest.fail "no flight jsonl"
      | Some content -> (
          match Trace.Schema.validate content with
          | Ok n -> Alcotest.(check int) "dump validates" (List.length events) n
          | Error msg -> Alcotest.fail msg))

let test_flight_freezes_at_first_violation () =
  let { Experiments.Disaster.recorder; violations = _ } =
    Experiments.Disaster.run ~frames:40 ()
  in
  match Trace.Recorder.flight recorder with
  | None -> Alcotest.fail "no flight dump"
  | Some events ->
      let n_violations_in_dump =
        List.length
          (List.filter
             (fun (e : Trace.Event.t) ->
               match e.kind with Violation _ -> true | _ -> false)
             events)
      in
      Alcotest.(check int) "exactly one violation in frozen dump" 1
        n_violations_in_dump;
      (* recording continued past the freeze *)
      Alcotest.(check bool) "recorder kept counting" true
        (Trace.Recorder.events_recorded recorder > List.length events)

(* --- file capture: --jobs 1 vs --jobs 2 byte-identical --------------- *)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let run_matrix_traced ~jobs ~dir =
  Trace.Config.set (Some { Trace.Config.dir; capacity = 128 });
  Fun.protect
    ~finally:(fun () -> Trace.Config.set None)
    (fun () ->
      let exps =
        [
          {
            Runner.id = "disaster";
            name = "trace disaster";
            points = [ Experiments.Disaster.matrix_point ~label:"drop5" ];
          };
        ]
      in
      Runner.run ~jobs ~root_seed:7 ~replicates:2 exps)

let test_jobs_byte_identical_traces () =
  let d1 = temp_dir "trace-j1" and d2 = temp_dir "trace-j2" in
  Fun.protect
    ~finally:(fun () -> rm_rf d1; rm_rf d2)
    (fun () ->
      let r1 = run_matrix_traced ~jobs:1 ~dir:d1 in
      let r2 = run_matrix_traced ~jobs:2 ~dir:d2 in
      Alcotest.(check string) "matrix reports identical"
        (Bench_report.Json.to_string
           (Bench_report.Matrix_report.to_json ~with_meta:false r1))
        (Bench_report.Json.to_string
           (Bench_report.Matrix_report.to_json ~with_meta:false r2));
      let ls d = Array.to_list (Sys.readdir d) |> List.sort compare in
      let f1 = ls d1 and f2 = ls d2 in
      Alcotest.(check (list string)) "same trace files" f1 f2;
      Alcotest.(check bool) "traces were written" true (f1 <> []);
      Alcotest.(check bool) "flight dumps among them" true
        (List.exists
           (fun f -> Filename.check_suffix f ".flight.jsonl")
           f1);
      List.iter
        (fun f ->
          Alcotest.(check string)
            (Printf.sprintf "%s byte-identical" f)
            (read_file (Filename.concat d1 f))
            (read_file (Filename.concat d2 f));
          if Filename.check_suffix f ".jsonl" then
            match Trace.Schema.validate_file (Filename.concat d1 f) with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "%s: %s" f msg)
        f1)

(* --- metrics replay ------------------------------------------------- *)

let test_metrics_replay_matches_live () =
  (* Accumulating metrics from the JSONL stream must reproduce the
     live recorder's numbers (the [trace summary] contract). *)
  let jsonl, recorder, _ = traced_run 5 in
  let live = Trace.Recorder.metrics recorder in
  let replayed = Trace.Metrics.create () in
  String.split_on_char '\n' jsonl
  |> List.iter (fun line ->
         if line <> "" then
           match Trace.Event.of_line line with
           | Ok e -> Trace.Metrics.observe replayed e
           | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "event totals" (Trace.Metrics.events live)
    (Trace.Metrics.events replayed);
  let live_fields = Trace.Metrics.to_fields live
  and replay_fields = Trace.Metrics.to_fields replayed in
  Alcotest.(check int) "field counts" (List.length live_fields)
    (List.length replay_fields);
  List.iter2
    (fun (ka, va) (kb, vb) ->
      Alcotest.(check string) "field name" ka kb;
      let both_nan = Float.is_nan va && Float.is_nan vb in
      if not (both_nan || va = vb) then
        Alcotest.failf "field %s: live %g, replayed %g" ka va vb)
    live_fields replay_fields

(* --- differential: recorder and metrics vs the reference ---------------- *)

module Ref = Trace_reference

let lines events = List.map Trace.Event.to_line events

let metrics_json m = Bench_report.Json.to_string ~indent:0 (Trace.Metrics.to_json m)

let ref_metrics_json m =
  Bench_report.Json.to_string ~indent:0 (Ref.Metrics.to_json m)

(* Every tag name plus one that is none: [count] must agree on all. *)
let count_names =
  [
    "no-such-tag"; "offered"; "tx"; "retx"; "released"; "requeued";
    "delivered"; "recovery-started"; "recovery-completed"; "failure-declared";
    "link-up"; "link-retargeting"; "link-down"; "link-failed"; "cp"; "cp-nak";
    "state-corrupted"; "converged"; "cp-quarantined"; "resync-forced"; "fault";
    "violation";
  ]

(* First observable difference between a recorder and the reference, if
   any: ring lines, flight dump, metrics JSON, counters and totals. *)
let recorder_mismatch r o =
  let m = Trace.Recorder.metrics r and om = Ref.Recorder.metrics o in
  let differs what a b = if a = b then None else Some what in
  List.find_map Fun.id
    [
      differs "ring_events"
        (lines (Trace.Recorder.ring_events r))
        (lines (Ref.Recorder.ring_events o));
      differs "flight_jsonl" (Trace.Recorder.flight_jsonl r)
        (Ref.Recorder.flight_jsonl o);
      differs "Metrics.to_json" (metrics_json m) (ref_metrics_json om);
      differs "Metrics.count"
        (List.map (Trace.Metrics.count m) count_names)
        (List.map (Ref.Metrics.count om) count_names);
      differs "events_recorded"
        (Trace.Recorder.events_recorded r)
        (Ref.Recorder.events_recorded o);
      differs "violations" (Trace.Recorder.violations r)
        (Ref.Recorder.violations o);
    ]

let line_sink set_sink recorder =
  let acc = ref [] in
  set_sink recorder (fun e -> acc := Trace.Event.to_line e :: !acc);
  fun () -> List.rev !acc

(* One random event stream into three recorders of the same capacity:
   the new one through a probe (the allocation-free path, no sink), the
   new one through [record] with a sink, and the reference with a sink.
   [Metrics.observe] on the sink's events is checked too, and everything
   is compared both at [mid] (histograms are read, then fed again) and
   at the end. *)
let stream_mismatch ~capacity ~mid events =
  let probed = Trace.Recorder.create ~capacity ~name:"diff" () in
  let probe = Dlc.Probe.create () in
  Trace.Recorder.attach_probe probed probe;
  let sinked = Trace.Recorder.create ~capacity ~name:"diff" () in
  let sinked_lines = line_sink Trace.Recorder.set_sink sinked in
  let replayed = Trace.Metrics.create () in
  let o = Ref.Recorder.create ~capacity ~name:"diff" () in
  let ref_lines = line_sink Ref.Recorder.set_sink o in
  let check () =
    List.find_map Fun.id
      [
        recorder_mismatch probed o;
        recorder_mismatch sinked o;
        (if sinked_lines () = ref_lines () then None else Some "sink lines");
        (if metrics_json replayed = ref_metrics_json (Ref.Recorder.metrics o)
         then None
         else Some "Metrics.observe");
      ]
  in
  let rec go k = function
    | [] -> check ()
    | (now, kind) :: rest -> (
        (match kind with
        | Trace.Event.Probe ev -> Dlc.Probe.emit probe ~now ev
        | _ -> Trace.Recorder.record probed ~now kind);
        Trace.Recorder.record sinked ~now kind;
        Trace.Metrics.observe replayed { Trace.Event.i = k; time = now; kind };
        Ref.Recorder.record o ~now kind;
        match if k = mid then check () else None with
        | Some _ as m -> m
        | None -> go (k + 1) rest)
  in
  go 0 events

let gen_stream =
  let open QCheck2.Gen in
  let* modulus = oneofl [ 8; 128; 1 lsl 20 ] in
  (* HDLC-style numbering wraps at [modulus]; a small pool of raw
     numbers makes transmissions, NAKs and requeues of one seq meet *)
  let seq =
    map2 (fun n hi -> (n + (1024 * hi)) mod modulus) (int_bound 40) (int_bound 3)
  in
  let payload = oneofl [ ""; "p"; "frame-000-xyz"; String.make 40 'x' ] in
  let str = oneofl [ "a"; "b"; "released-undelivered" ] in
  let cp naks =
    map3
      (fun cp_seq enforced stop_go ->
        Dlc.Probe.Cp_emitted
          { cp_seq; next_expected = cp_seq + 1; enforced; stop_go; naks })
      (int_bound 50) bool bool
  in
  let probe_ev : Dlc.Probe.event t =
    oneof
      [
        map (fun payload -> Dlc.Probe.Offered { payload }) payload;
        map3 (fun seq payload retx -> Dlc.Probe.Tx { seq; payload; retx }) seq
          payload bool;
        map2 (fun seq payload -> Dlc.Probe.Released { seq; payload }) seq payload;
        map2 (fun seq payload -> Dlc.Probe.Requeued { seq; payload }) seq payload;
        map2 (fun seq payload -> Dlc.Probe.Delivered { seq; payload }) seq payload;
        oneofl
          Dlc.Probe.
            [
              Recovery_started;
              Recovery_completed;
              Failure_declared;
              Link_transition { state = Link_up };
              Link_transition { state = Link_retargeting };
              Link_transition { state = Link_down };
              Link_transition { state = Link_failed };
            ];
        cp [];
        list_size (int_range 1 6) seq >>= cp;
        map2
          (fun klass detail -> Dlc.Probe.State_corrupted { klass; detail })
          str str;
        map2
          (fun after anomalies -> Dlc.Probe.Converged { after; anomalies })
          (float_bound_inclusive 1.) (int_bound 5);
        map3
          (fun cp_seq reason distrust ->
            Dlc.Probe.Cp_quarantined { cp_seq; reason; distrust })
          (int_bound 50) str (int_bound 5);
        map (fun attempt -> Dlc.Probe.Resync_forced { attempt }) (int_bound 5);
      ]
  in
  let kind =
    frequency
      [
        (12, map (fun ev -> [ Trace.Event.Probe ev ]) probe_ev);
        ( 1,
          map3
            (fun link action frame -> [ Trace.Event.Fault { link; action; frame } ])
            (oneofl [ "forward"; "reverse" ]) str str );
        ( 1,
          map2
            (fun invariant detail ->
              [ Trace.Event.Violation { invariant; detail } ])
            str str );
        (* a NAK re-advertised after the requeue it caused *)
        ( 2,
          map2
            (fun s payload ->
              let p ev = Trace.Event.Probe ev in
              let cp naks =
                p
                  (Dlc.Probe.Cp_emitted
                     {
                       cp_seq = 0;
                       next_expected = s;
                       enforced = false;
                       stop_go = false;
                       naks;
                     })
              in
              [
                p (Dlc.Probe.Tx { seq = s; payload; retx = false });
                cp [ s ];
                p (Dlc.Probe.Requeued { seq = s; payload });
                cp [ s; s ];
                p (Dlc.Probe.Tx { seq = s; payload; retx = true });
                p (Dlc.Probe.Released { seq = s; payload });
              ])
            seq payload );
      ]
  in
  (* equal instants, sub-ms steps and steps past the 0.5 s histogram
     range; a violation found at finalize time is stamped -1, as
     [Recorder.attach_oracle] stamps the oracle's nan instants *)
  let dt = oneofl [ 0.; 1e-5; 3e-4; 2e-3; 0.6 ] in
  let finalize = frequency [ (4, return false); (1, return true) ] in
  let* steps = list_size (int_bound 400) (triple dt finalize kind) in
  let* capacity = int_range 1 600 in
  let+ mid = int_bound 400 in
  let stamp t finalize = function
    | Trace.Event.Violation _ as k when finalize -> (-1., k)
    | k -> (t, k)
  in
  let _, events =
    List.fold_left
      (fun (t, acc) (dt, finalize, kinds) ->
        let t = t +. dt in
        (t, List.rev_append (List.map (stamp t finalize) kinds) acc))
      (0., []) steps
  in
  (capacity, mid, List.rev events)

let print_stream (capacity, mid, events) =
  Printf.sprintf "capacity %d, mid %d\n%s" capacity mid
    (String.concat "\n"
       (List.mapi
          (fun i (time, kind) -> Trace.Event.to_line { Trace.Event.i; time; kind })
          events))

let prop_recorder_matches_reference =
  QCheck2.Test.make ~name:"recorder matches reference on random streams"
    ~count:200 ~print:print_stream gen_stream (fun (capacity, mid, events) ->
      match stream_mismatch ~capacity ~mid events with
      | None -> true
      | Some what -> QCheck2.Test.fail_reportf "differs: %s" what)

(* The metrics' seq table with many live seqs at once (it grows, and
   its probe runs get long enough to exercise deletion), each seq leaving by
   release, by requeue after a NAK, or by release after a retransmission,
   in a shuffled order. *)
let prop_seq_table_matches_reference =
  let open QCheck2.Gen in
  let gen =
    let* n = int_range 1 3000 in
    let* stride = oneofl [ 1; 7; 1024; 4096 ] in
    let* base = int_bound 5000 in
    let* order = shuffle_l (List.init n Fun.id) in
    let+ fates = list_repeat n (int_bound 2) in
    (n, stride, base, List.combine order fates)
  in
  let print (n, stride, base, _) =
    Printf.sprintf "n %d, stride %d, base %d" n stride base
  in
  QCheck2.Test.make ~name:"metrics seq table matches reference" ~count:30
    ~print gen (fun (n, stride, base, exits) ->
      let m = Trace.Metrics.create () and o = Ref.Metrics.create () in
      let clock = ref 0. in
      let emit ev =
        clock := !clock +. 1e-5;
        let e = { Trace.Event.i = 0; time = !clock; kind = Probe ev } in
        Trace.Metrics.observe m e;
        Ref.Metrics.observe o e
      in
      let seq i = base + (stride * i) and payload = "p" in
      let nak seq =
        emit
          (Dlc.Probe.Cp_emitted
             {
               cp_seq = 0;
               next_expected = 0;
               enforced = false;
               stop_go = false;
               naks = [ seq ];
             })
      in
      for i = 0 to n - 1 do
        emit (Dlc.Probe.Tx { seq = seq i; payload; retx = false })
      done;
      List.iter
        (fun (i, fate) ->
          let seq = seq i in
          match fate with
          | 0 -> emit (Dlc.Probe.Released { seq; payload })
          | 1 ->
              nak seq;
              emit (Dlc.Probe.Requeued { seq; payload })
          | _ ->
              nak seq;
              emit (Dlc.Probe.Tx { seq; payload; retx = true });
              emit (Dlc.Probe.Released { seq; payload }))
        exits;
      metrics_json m = ref_metrics_json o)

(* Whole sessions: a recorder live on [Scenario.run], a second one with
   a sink, and the reference fed the sink's stream. *)
let test_sessions_match_reference () =
  let small_burst =
    {
      Experiments.Scenario.default with
      payload_bytes = 16;
      burst =
        Some
          {
            Experiments.Scenario.ber_good = 1e-7;
            ber_bad = 5e-3;
            mean_burst_bits = 2_000.;
            mean_gap_bits = 200_000.;
          };
    }
  in
  let configs =
    [
      ("ber 1e-5", { Experiments.Scenario.default with ber = 1e-5 });
      ("ber 1e-4", { Experiments.Scenario.default with ber = 1e-4 });
      ("small-burst", small_burst);
    ]
  in
  List.iter
    (fun (label, cfg) ->
      List.iter
        (fun seed ->
          let cfg = { cfg with Experiments.Scenario.seed } in
          let proto =
            Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg)
          in
          let run recorder =
            ignore
              (Experiments.Scenario.run ~recorder cfg proto
                : Experiments.Scenario.result)
          in
          let live = Trace.Recorder.create ~name:"s" () in
          run live;
          let sinked = Trace.Recorder.create ~name:"s" () in
          let stream = ref [] in
          Trace.Recorder.set_sink sinked (fun e -> stream := e :: !stream);
          run sinked;
          let o = Ref.Recorder.create ~name:"s" () in
          let ref_lines = line_sink Ref.Recorder.set_sink o in
          List.iter
            (fun (e : Trace.Event.t) -> Ref.Recorder.record o ~now:e.time e.kind)
            (List.rev !stream);
          let fail what = Alcotest.failf "%s seed %d: %s differs" label seed what in
          Option.iter fail (recorder_mismatch live o);
          Option.iter fail (recorder_mismatch sinked o);
          if lines (List.rev !stream) <> ref_lines () then fail "sink lines";
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d: ring wrapped" label seed)
            true
            (Trace.Recorder.events_recorded live > Trace.Recorder.capacity live))
        [ 1; 2; 3 ])
    configs

let suite =
  [
    Alcotest.test_case "event jsonl roundtrip" `Quick test_event_roundtrip;
    Alcotest.test_case "payload truncation" `Quick test_event_payload_truncation;
    Alcotest.test_case "schema accepts stream" `Quick test_schema_accepts_stream;
    Alcotest.test_case "schema rejects malformed" `Quick test_schema_rejects;
    Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_bytes;
    Alcotest.test_case "different seed, different bytes" `Quick
      test_different_seed_different_bytes;
    Alcotest.test_case "fault events recorded" `Quick test_fault_events_recorded;
    Alcotest.test_case "flight dump contains offender" `Quick
      test_flight_dump_contains_offender;
    Alcotest.test_case "flight freezes at first violation" `Quick
      test_flight_freezes_at_first_violation;
    Alcotest.test_case "jobs 1 vs 2 byte-identical traces" `Slow
      test_jobs_byte_identical_traces;
    Alcotest.test_case "metrics replay matches live" `Quick
      test_metrics_replay_matches_live;
    QCheck_alcotest.to_alcotest prop_recorder_matches_reference;
    QCheck_alcotest.to_alcotest prop_seq_table_matches_reference;
    Alcotest.test_case "sessions match reference recorder" `Quick
      test_sessions_match_reference;
  ]
