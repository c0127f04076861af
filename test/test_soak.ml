(* The shared adversarial-soak harness: the hard gates every soak command
   enforces, and the determinism contract of a soak across worker
   counts, for the matrix report and for the captured traces alike. The
   E21 blackout soak is checked here; the E22 corruption and E24
   lying-feedback suites run the same check on their own soaks. *)

module M = Bench_report.Matrix_report
module Soak = Experiments.Soak

(* --- gates on synthetic matrix points ---------------------------------- *)

let report points =
  let stat v =
    { M.count = 1; mean = v; stddev = 0.; ci95 = 0.; min = v; max = v }
  in
  {
    M.schema_version = M.schema_version;
    root_seed = 1;
    replicates = 1;
    experiments =
      [
        {
          M.id = "synthetic";
          name = "synthetic";
          points =
            List.map
              (fun (label, metrics) ->
                {
                  M.label;
                  metrics = List.map (fun (k, v) -> (k, stat v)) metrics;
                })
              points;
        };
      ];
    meta = None;
  }

let check_gate (spec : Soak.spec) ~expect metrics =
  Alcotest.(check (list string))
    (Printf.sprintf "%s gate on %s" spec.id
       (String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v) metrics)))
    expect
    (Soak.violations spec (report [ ("p", metrics) ]))

let test_gate_oracle_violations () =
  List.iter
    (fun spec ->
      check_gate spec ~expect:[ "p" ] [ ("oracle_violations", 1.) ];
      check_gate spec ~expect:[] [ ("oracle_violations", 0.) ])
    [
      Experiments.E21_handover.soak_suite; Experiments.E22_corruption.soak_suite;
    ]

let test_gate_feedback () =
  let spec = Experiments.E24_feedback.soak_suite in
  check_gate spec ~expect:[ "p" ]
    [ ("wrongful_releases", 1.); ("completed", 1.); ("failure_declared", 0.) ];
  check_gate spec ~expect:[ "p" ]
    [ ("wrongful_releases", 0.); ("completed", 0.); ("failure_declared", 0.) ];
  check_gate spec ~expect:[]
    [ ("wrongful_releases", 0.); ("completed", 0.); ("failure_declared", 1.) ];
  check_gate spec ~expect:[]
    [ ("wrongful_releases", 0.); ("completed", 1.); ("failure_declared", 0.) ]

let test_gate_reports_every_label () =
  let spec = Experiments.E21_handover.soak_suite in
  Alcotest.(check (list string))
    "violating labels in report order" [ "a"; "c" ]
    (Soak.violations spec
       (report
          [
            ("a", [ ("oracle_violations", 2.) ]);
            ("b", [ ("oracle_violations", 0.) ]);
            ("c", [ ("oracle_violations", 1.) ]);
          ]))

(* --- determinism across worker counts ---------------------------------- *)

let soak_traced (spec : Soak.spec) ~jobs ~dir =
  Trace.Config.set (Some { Trace.Config.dir; capacity = 128 });
  Fun.protect
    ~finally:(fun () -> Trace.Config.set None)
    (fun () -> Soak.run ~jobs ~root_seed:7 spec ~schedules:3)

(* [metric] must be reported for every schedule of [spec]. *)
let check_jobs_determinism (spec : Soak.spec) ~metric =
  let json r =
    Bench_report.Json.to_string ~indent:2 (M.to_json ~with_meta:false r)
  in
  let seq = Soak.run ~jobs:1 ~root_seed:7 spec ~schedules:3 in
  let par = Soak.run ~jobs:2 ~root_seed:7 spec ~schedules:3 in
  Alcotest.(check string)
    (spec.id ^ ": parallel soak is byte-identical to sequential")
    (json seq) (json par);
  List.iter
    (fun (e : M.experiment) ->
      Alcotest.(check int) (spec.id ^ ": one point per schedule") 3
        (List.length e.points);
      List.iter
        (fun (p : M.point) ->
          if not (List.mem_assoc metric p.metrics) then
            Alcotest.failf "%s %s: %s missing" spec.id p.label metric)
        e.points)
    seq.experiments;
  Alcotest.(check (list string)) (spec.id ^ ": gate passes") []
    (Soak.violations spec seq);
  let d1 = Test_trace.temp_dir "soak-j1"
  and d2 = Test_trace.temp_dir "soak-j2" in
  Fun.protect
    ~finally:(fun () -> Test_trace.rm_rf d1; Test_trace.rm_rf d2)
    (fun () ->
      let t1 = soak_traced spec ~jobs:1 ~dir:d1 in
      let t2 = soak_traced spec ~jobs:2 ~dir:d2 in
      Alcotest.(check string)
        (spec.id ^ ": tracing leaves the report unchanged")
        (json seq) (json t1);
      Alcotest.(check string) (spec.id ^ ": traced reports identical")
        (json t1) (json t2);
      let ls d = List.sort compare (Array.to_list (Sys.readdir d)) in
      let f1 = ls d1 in
      Alcotest.(check (list string)) (spec.id ^ ": same trace files") f1
        (ls d2);
      Alcotest.(check bool) (spec.id ^ ": traces were written") true
        (f1 <> []);
      List.iter
        (fun f ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s byte-identical" spec.id f)
            (Test_trace.read_file (Filename.concat d1 f))
            (Test_trace.read_file (Filename.concat d2 f)))
        f1)

let suite =
  [
    Alcotest.test_case "gate: oracle violations fail handover and corrupt"
      `Quick test_gate_oracle_violations;
    Alcotest.test_case "gate: feedback safety" `Quick test_gate_feedback;
    Alcotest.test_case "gate: every violating label, in order" `Quick
      test_gate_reports_every_label;
    Alcotest.test_case "handover soak: jobs-count determinism" `Quick
      (fun () ->
        check_jobs_determinism Experiments.E21_handover.soak_suite
          ~metric:"oracle_violations");
  ]
