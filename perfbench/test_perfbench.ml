(* The benchmark's own test: the traced builders and wrappers observe
   the program without changing it. A traced session must reproduce the
   simulated-statistics digest of [Scenario.run], the soak mirror must
   reproduce [E24_feedback.soak] schedule for schedule (traced and
   untraced), and a wrapped coded path must classify every frame as the
   plain one does. *)

module Scenario = Experiments.Scenario
module Soak = Sessions.Soak
module Coded = Sessions.Coded

let seeds = [ 1; 2; 3; 42 ]

let scenario_digests ~recorder cfg () =
  List.iter
    (fun seed ->
      let cfg = { cfg with Scenario.seed; n_frames = 500 } in
      let params = Scenario.default_lams_params cfg in
      let recorder () =
        if recorder then Some (Trace.Recorder.create ~name:"test" ()) else None
      in
      let lib = Scenario.run ?recorder:(recorder ()) cfg (Scenario.Lams params) in
      let traced = Sessions.run_scenario_traced ?recorder:(recorder ()) cfg params in
      Alcotest.(check string)
        (Printf.sprintf "seed %d digest" seed)
        (Sessions.scenario_digest lib) traced.Sessions.digest;
      Alcotest.(check bool) "completed" true traced.Sessions.completed)
    seeds

let soak_outcomes () =
  List.iter
    (fun root ->
      let schedules = 6 in
      let lib = Soak.library_digests ~root ~schedules in
      List.iteri
        (fun i d ->
          let seed = Soak.seed ~root i in
          List.iter
            (fun traced ->
              Alcotest.(check string)
                (Printf.sprintf "root %d %s traced=%b" root (Soak.label i) traced)
                d
                (Soak.digest (Soak.run ~traced ~seed (Soak.variant i))))
            [ false; true ])
        lib)
    [ 7; 42 ]

let coded_statuses () =
  let frames = Coded.frames () in
  for c = 0 to 2 do
    let seed = Coded.seed ~root:5 c in
    let plain = Coded.path ~traced:false ~seed c in
    let traced = Coded.path ~traced:true ~seed c in
    for i = 0 to 11 do
      let frame = frames.(i mod Array.length frames) in
      let a = Channel.Coded_path.transmit_status plain frame in
      let b = Coded.transmit_traced traced frame in
      Alcotest.(check string)
        (Printf.sprintf "%s frame %d" Coded.code_names.(c) i)
        (Coded.status_name a) (Coded.status_name b)
    done
  done

(* Nested spans split time and words into self figures, and the spans
   themselves allocate nothing. *)
let tracer_accounting () =
  Tracer.reset ();
  let outer = Tracer.layer "test.outer" and inner = Tracer.layer "test.inner" in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    Tracer.enter outer;
    Tracer.enter inner;
    Tracer.leave ();
    Tracer.leave ()
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "spans allocate nothing" 0. (w1 -. w0);
  Alcotest.(check int) "outer calls" 1000 Tracer.calls.(outer);
  Alcotest.(check int) "inner calls" 1000 Tracer.calls.(inner);
  Tracer.reset ();
  Tracer.enter outer;
  Tracer.enter inner;
  ignore (Sys.opaque_identity (Array.make 10 0) : int array);
  Tracer.leave ();
  Tracer.leave ();
  Alcotest.(check (float 0.)) "inner owns its words" 11. Tracer.self_words.(inner);
  Alcotest.(check (float 0.)) "outer excludes them" 0. Tracer.self_words.(outer);
  Alcotest.(check bool) "self ns non-negative" true
    (Tracer.self_ns.(outer) >= 0 && Tracer.self_ns.(inner) >= 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "wrappers",
        [
          Alcotest.test_case "headline digest equals Scenario.run" `Quick
            (scenario_digests ~recorder:true Scenario.default);
          Alcotest.test_case "small-burst digest equals Scenario.run" `Quick
            (scenario_digests ~recorder:false Sessions.small_burst_cfg);
          Alcotest.test_case "soak mirror equals E24 soak" `Quick soak_outcomes;
          Alcotest.test_case "wrapped coded path classifies alike" `Quick
            coded_statuses;
          Alcotest.test_case "tracer self accounting" `Quick tracer_accounting;
        ] );
    ]
