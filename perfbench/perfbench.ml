(* The repo benchmark: four simulator workloads, host-time end-to-end
   metrics, and a traced per-layer breakdown.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   One process, one domain, closed loop: the next sample starts only
   when the previous one has ended. With [--trace 0] the run prints the
   end-to-end metrics; with [--trace 1] each sample runs twice, untraced
   and through the span-instrumented builders of {!Sessions}, and the
   run prints a per-layer table and the per-layer metrics. The last line
   of standard output is always one JSON object:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
   See README.md next to this file for the workloads and metrics. *)

module Scenario = Experiments.Scenario
module Soak = Sessions.Soak
module Coded = Sessions.Coded

(* --- workloads ------------------------------------------------------------- *)

(* What one sample left behind, computed after its timer stopped. *)
type summary = {
  frames : int;
  failure : string option;  (** the workload's correctness check *)
  digest : string;  (** simulated statistics, traced vs untraced *)
}

type instance = {
  first : int;  (** index of the first timed sample *)
  distinct : int option;
      (** [Some k]: the inputs repeat with period [k], so a run checks
          [k] operations; each later pass over them must reproduce the
          first pass's digests *)
  run : traced:bool -> int -> unit -> summary;
      (** run sample [i]; the returned thunk summarises it *)
}

type workload = {
  name : string;
  describe : string;
  make : seed:int -> seconds:float -> traced:bool -> instance;
      (** inputs, tables and warm-up (of the traced path too when
          [traced]) for a run of [seconds] *)
  check : seed:int -> instance -> string list;
      (** run-level checks after the timed loop; errors *)
}

let session_summary ~seed ~delivered ~loss ~completed ~digest =
  {
    frames = delivered;
    failure =
      (if completed && loss = 0 then None
       else
         Some
           (Printf.sprintf "session seed=%d loss=%d completed=%b" seed loss
              completed));
    digest;
  }

let scenario_workload ~name ~describe ~recorder (cfg : Scenario.config) =
  let make ~seed ~seconds:_ ~traced:_ =
    let params = Scenario.default_lams_params cfg in
    let cfg_of i =
      { cfg with Scenario.seed = Sim.Rng.derive_seed ~root:seed [ name; string_of_int i ] }
    in
    (* the warm-up session is the same for every --seed, so set-up time
       does not depend on which session a seed happens to draw first *)
    let warm_cfg =
      { cfg with Scenario.seed = Sim.Rng.derive_seed ~root:0 [ name; "warm-up" ] }
    in
    let recorder () =
      if recorder then Some (Trace.Recorder.create ~name:"perfbench" ()) else None
    in
    let run ~traced i =
      let cfg = cfg_of i in
      let seed = cfg.Scenario.seed in
      if traced then begin
        let o = Sessions.run_scenario_traced ?recorder:(recorder ()) cfg params in
        fun () ->
          session_summary ~seed ~delivered:o.Sessions.delivered ~loss:o.Sessions.loss
            ~completed:o.Sessions.completed ~digest:o.Sessions.digest
      end
      else begin
        let r = Scenario.run ?recorder:(recorder ()) cfg (Scenario.Lams params) in
        fun () ->
          session_summary ~seed
            ~delivered:(Dlc.Metrics.unique_delivered r.Scenario.metrics)
            ~loss:(Dlc.Metrics.loss r.Scenario.metrics)
            ~completed:r.Scenario.completed ~digest:(Sessions.scenario_digest r)
      end
    in
    ignore (Scenario.run ?recorder:(recorder ()) warm_cfg (Scenario.Lams params)
      : Scenario.result);
    { first = 0; distinct = None; run }
  in
  { name; describe; make; check = (fun ~seed:_ _ -> []) }

let headline =
  scenario_workload ~name:"headline" ~recorder:true
    ~describe:
      "LAMS-DLC, Scenario defaults (4000 km, 300 Mbit/s, 1 kB, BER 1e-5 both \
       ways, saturating, 2000-frame sessions), flight recorder subscribed"
    Scenario.default

let small_burst =
  scenario_workload ~name:"small-burst" ~recorder:false
    ~describe:
      "LAMS-DLC, 16 B payloads over a Gilbert-Elliott I-frame channel, \
       saturating, 10000-frame sessions, no recorder, no oracle"
    Sessions.small_burst_cfg

(* Schedules per lying-soak run, per second of the run: one pass over
   them takes about 60% of an untraced run on the reference host. A set
   fixed by the seed and the run length makes the gate failures of a run
   a function of those alone; 6,000 schedules (30 s runs) keep the
   seed-to-seed spread of the schedule mix small. *)
let soak_schedules_per_s = 200.

let lying_soak =
  let make ~seed ~seconds ~traced:_ =
    let schedules = max 1 (int_of_float (soak_schedules_per_s *. seconds)) in
    let run ~traced i =
      let i = i mod schedules in
      let variant = Soak.variant i in
      let o = Soak.run ~traced ~seed:(Soak.seed ~root:seed i) variant in
      fun () ->
        {
          frames = o.Soak.delivered;
          failure =
            (if Soak.gate_ok o then None
             else
               Some
                 (Printf.sprintf "%s variant=%s wrongful=%d %s" (Soak.label i)
                    (Experiments.E24_feedback.variant_tag variant)
                    o.Soak.wrongful
                    (if o.Soak.completed then "completed"
                     else if o.Soak.declared then "failure-declared"
                     else "neither-completed-nor-declared")));
          digest = Soak.digest o;
        }
    in
    (* a seed-independent warm-up schedule: schedule 0 of root 0 *)
    ignore (Soak.run ~traced:false ~seed:(Soak.seed ~root:0 0) (Soak.variant 0)
      : Soak.outcome);
    { first = 0; distinct = Some schedules; run }
  in
  (* the mirror must reproduce the library soak schedule for schedule *)
  let check ~seed inst =
    let lib = Soak.library_digests ~root:seed ~schedules:3 in
    List.concat
      (List.mapi
         (fun i d ->
           let mine = (inst.run ~traced:false i ()).digest in
           if String.equal mine d then []
           else [ Printf.sprintf "soak mirror differs from E24 on %s" (Soak.label i) ])
         lib)
  in
  {
    name = "lying-soak";
    describe =
      "E24 seed-pinned lying-feedback soak: 400-frame sessions rotating \
       LAMS-DLC / SR-HDLC / NBDT, guard on, forward drops, reverse lies, base \
       + feedback oracles; the first 200 x --seconds schedules of the soak \
       at root seed --seed, in passes";
    make;
    check;
  }

let coded =
  let make ~seed ~seconds:_ ~traced =
    let frames = Coded.frames () in
    let paths ~traced =
      Array.init 3 (fun c -> Coded.path ~traced ~seed:(Coded.seed ~root:seed c) c)
    in
    let main = paths ~traced:false in
    let twin = paths ~traced:false in
    let traced_paths = paths ~traced:true in
    (* sample [i] sends frame [3i + c] through the path of code [c], for
       each code in turn: a sample costs the mix, so its time does not
       depend on which code a percentile happens to fall in *)
    let frame i c = frames.(((3 * i) + c) mod Array.length frames) in
    let digest st = String.concat " " (Array.to_list (Array.map Coded.status_name st)) in
    let run ~traced i =
      if traced then begin
        let st = Array.init 3 (fun c -> Coded.transmit_traced traced_paths.(c) (frame i c)) in
        fun () -> { frames = 3; failure = None; digest = digest st }
      end
      else begin
        let st =
          Array.init 3 (fun c -> Channel.Coded_path.transmit_status main.(c) (frame i c))
        in
        fun () ->
          let failures =
            List.filter_map
              (fun c ->
                let o, _ = Channel.Coded_path.transmit twin.(c) (frame i c) in
                if o.Channel.Coded_path.status = st.(c) then None
                else
                  Some
                    (Printf.sprintf "frame %d (%s): transmit_status %s, twin transmit %s"
                       ((3 * i) + c) Coded.code_names.(c) (Coded.status_name st.(c))
                       (Coded.status_name o.Channel.Coded_path.status)))
              [ 0; 1; 2 ]
          in
          {
            frames = 3;
            failure = (if failures = [] then None else Some (String.concat "; " failures));
            digest = digest st;
          }
      end
    in
    (* one warm-up frame per code; the paths are stateful, so every
       path set that is timed later sees it *)
    let inst = { first = 1; distinct = None; run } in
    for i = 0 to inst.first - 1 do
      ignore (inst.run ~traced:false i () : summary);
      if traced then ignore (inst.run ~traced:true i () : summary)
    done;
    inst
  in
  {
    name = "coded";
    describe =
      "1 kB I-frames through Channel.Coded_path.transmit_status, one each \
       through RS(255,223) / Hamming(7,4) / conv k=7 paths per sample, over a \
       Gilbert-Elliott channel";
    make;
    check = (fun ~seed:_ _ -> []);
  }

let workloads = [ headline; small_burst; lying_soak; coded ]

(* --- statistics ----------------------------------------------------------- *)

(* Growable int vector for per-sample figures. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(* Linear interpolation between closest ranks. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let per_frame_sorted ns frames =
  let a =
    Array.init ns.Vec.n (fun i ->
        float_of_int ns.Vec.a.(i) /. float_of_int (max 1 frames.Vec.a.(i)))
  in
  Array.sort compare a;
  a

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  quantile a 0.5

let ratio a b = if b = 0. then 0. else a /. b

(* --- host-speed calibration ------------------------------------------------- *)

(* For stretches of seconds to minutes this host runs the same code up
   to ~1.8x faster (see README.md). Allocation- and table-heavy code
   moves most; a register-only loop barely moves. So the timed loop also
   times this kernel, the benchmark's own code that no change to the
   library touches, about every 100 ms between samples, and scales each
   sample's and set-up's time by [kernel_ref_ns] over the kernel's time
   around it (the mean of the measurements just before and after), so
   the end-to-end time metrics read as on the reference host in its
   usual state. The kernel allocates short-lived records, as the
   simulator does per frame, and updates a 2 MB table at scattered
   indices, as its buffers and tables do. Nothing it allocates survives
   a minor collection and the table lives outside the OCaml heap, so it
   leaves [heap_peak_mb] and [words_per_frame] alone. *)
type cell = { v : int; next : cell option }

let kernel_table_size = 1 lsl 18

let kernel_table =
  lazy
    (let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout kernel_table_size in
     Bigarray.Array1.fill t 0;
     t)

let kernel () =
  let t = Lazy.force kernel_table in
  let l = ref None and s = ref 0 in
  for i = 1 to 150_000 do
    l := Some { v = i; next = (if i land 63 = 0 then None else !l) }
  done;
  (match !l with Some c -> s := c.v | None -> ());
  for i = 1 to 200_000 do
    let k = ((i * 40503) lxor (i lsr 3)) land (kernel_table_size - 1) in
    let v = Bigarray.Array1.unsafe_get t k in
    Bigarray.Array1.unsafe_set t k (v + 1);
    s := !s + v
  done;
  !s

(* the kernel's median on the reference host (README.md) in its usual
   state *)
let kernel_ref_ns = 2_650_000.

let time_kernel () =
  let t0 = Tracer.cpu_ns () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  Tracer.cpu_ns () - t0

(* The speed factor for something that ran after the first [j >= 1]
   kernel measurements of [kernel]. *)
let local_speed (kernel : Vec.t) j =
  let k i = float_of_int kernel.Vec.a.(i) in
  let around = if j < kernel.Vec.n then (k (j - 1) +. k j) /. 2. else k (j - 1) in
  kernel_ref_ns /. around

(* --- the timed loop --------------------------------------------------------- *)

let min_samples = 100

(* The run's simulated-statistics digest covers this many samples, a
   count every run reaches, so it is comparable across runs and
   commits for one seed. *)
let sim_samples = 100

type tally = {
  ns : Vec.t;  (** per-sample thread CPU ns (untraced) *)
  frames : Vec.t;
  traced_ns : Vec.t;  (** per-sample thread CPU ns (traced) *)
  mutable traced_wall : int;
      (** monotonic ns of all traced samples, the clock spans use *)
  mutable words : float;
  mutable promoted : float;
  mutable majors : int;
  sim : Buffer.t;  (** digests of the first [sim_samples] samples *)
  mutable failures : string list;  (** newest first *)
  mutable mismatches : string list;
  mutable last : int;  (** index of the last sample run *)
  interval : Vec.t;
      (** per sample, the number of kernel measurements before it *)
}

(* Runs samples from [inst.first] until [seconds] have passed (and at
   least [min_samples], and every distinct input, ran, within three
   times the budget). Between samples, about once a second, it calls
   [resetup]. Only a sample's first pass counts its failure; a repeat
   must reproduce the first pass's digest. *)
let timed_loop ~traced ~seconds ~kernel ~resetup inst =
  let t =
    {
      ns = Vec.create ();
      frames = Vec.create ();
      traced_ns = Vec.create ();
      traced_wall = 0;
      words = 0.;
      promoted = 0.;
      majors = 0;
      sim = Buffer.create 16_384;
      failures = [];
      mismatches = [];
      last = inst.first - 1;
      interval = Vec.create ();
    }
  in
  let start = Tracer.now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let i = ref inst.first in
  let next_setup = ref (start + 1_000_000_000) in
  let next_kernel = ref (start + 100_000_000) in
  let period = Option.value inst.distinct ~default:max_int in
  let first_pass = Array.make (Option.value inst.distinct ~default:0) "" in
  let min_samples = max min_samples (Option.value inst.distinct ~default:0) in
  while
    let el = Tracer.now_ns () - start in
    (el < budget || t.ns.Vec.n < min_samples) && el < 3 * budget
  do
    let majors0 = if traced then (Gc.quick_stat ()).Gc.major_collections else 0 in
    let _, promoted0, _ = if traced then Gc.counters () else (0., 0., 0.) in
    let w0 = Gc.minor_words () in
    let t0 = Tracer.cpu_ns () in
    let k = inst.run ~traced:false !i in
    let t1 = Tracer.cpu_ns () in
    let w1 = Gc.minor_words () in
    if traced then begin
      let _, promoted1, _ = Gc.counters () in
      t.promoted <- t.promoted +. (promoted1 -. promoted0);
      t.majors <- t.majors + (Gc.quick_stat ()).Gc.major_collections - majors0
    end;
    let s = k () in
    Vec.push t.ns (t1 - t0);
    Vec.push t.interval kernel.Vec.n;
    Vec.push t.frames s.frames;
    t.words <- t.words +. (w1 -. w0);
    let j = t.ns.Vec.n - 1 in
    if j < period then begin
      if inst.distinct <> None then first_pass.(j) <- Digest.string s.digest;
      match s.failure with Some f -> t.failures <- f :: t.failures | None -> ()
    end
    else if not (String.equal first_pass.(j mod period) (Digest.string s.digest)) then
      t.mismatches <-
        Printf.sprintf "sample %d repeats sample %d but not its digest" !i
          (inst.first + (j mod period))
        :: t.mismatches;
    if t.ns.Vec.n <= sim_samples then begin
      Buffer.add_string t.sim s.digest;
      Buffer.add_char t.sim '\n'
    end;
    if traced then begin
      Tracer.logging := !i = inst.first;
      let t2 = Tracer.cpu_ns () and m2 = Tracer.now_ns () in
      let k = inst.run ~traced:true !i in
      let m3 = Tracer.now_ns () and t3 = Tracer.cpu_ns () in
      Tracer.logging := false;
      Vec.push t.traced_ns (t3 - t2);
      t.traced_wall <- t.traced_wall + (m3 - m2);
      let st = k () in
      if not (String.equal st.digest s.digest) then
        t.mismatches <-
          Printf.sprintf "sample %d: traced {%s} untraced {%s}" !i st.digest s.digest
          :: t.mismatches
    end;
    t.last <- !i;
    incr i;
    if Tracer.now_ns () >= !next_kernel then begin
      Vec.push kernel (time_kernel ());
      next_kernel := !next_kernel + 100_000_000
    end;
    if Tracer.now_ns () >= !next_setup then begin
      resetup ();
      next_setup := !next_setup + 1_000_000_000
    end
  done;
  t

(* --- output --------------------------------------------------------------- *)

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, unit_, _, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let print_metrics metrics =
  List.iter
    (fun (name, unit_, better, v) ->
      Printf.printf "  %-40s %16.4f %-6s (%s is better)\n" name v unit_ better)
    metrics

let print_failures t ~attempted =
  let failed = List.length t.failures in
  Printf.printf "  %-40s %16.6f        (%d of %d distinct samples)\n" "failed_frac"
    (ratio (float_of_int failed) (float_of_int attempted))
    failed attempted;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) (List.rev t.failures)

let spans_dir = ".perfbench_out"

(* Layer table and per-layer metrics of a traced run. *)
let traced_report (w : workload) ~seed t =
  let total_frames = ref 0 in
  for i = 0 to t.frames.Vec.n - 1 do
    total_frames := !total_frames + t.frames.Vec.a.(i)
  done;
  let frames = float_of_int (max 1 !total_frames) in
  let traced_total = t.traced_wall in
  let layer_sum = ref 0 in
  for l = 0 to !Tracer.n_layers - 1 do
    layer_sum := !layer_sum + Tracer.self_ns.(l)
  done;
  let residual = float_of_int (traced_total - !layer_sum) in
  let p50 v = quantile (per_frame_sorted v t.frames) 0.5 in
  let untraced_p50 = p50 t.ns and traced_p50 = p50 t.traced_ns in
  Printf.printf "layer table (%s, %d traced samples, %d frames):\n" w.name t.ns.Vec.n
    !total_frames;
  Printf.printf "  %-26s %12s %14s %14s %12s\n" "layer" "calls/frame" "self ns/frame"
    "words/frame" "ns/call";
  for l = 0 to !Tracer.n_layers - 1 do
    let c = Tracer.calls.(l) in
    if c > 0 then
      Printf.printf "  %-26s %12.4f %14.1f %14.2f %12.1f\n" (Tracer.name l)
        (float_of_int c /. frames)
        (float_of_int Tracer.self_ns.(l) /. frames)
        (Tracer.self_words.(l) /. frames)
        (float_of_int Tracer.self_ns.(l) /. float_of_int c)
  done;
  Printf.printf "  %-26s %12s %14.1f\n" "layer sum" "" (float_of_int !layer_sum /. frames);
  Printf.printf "  %-26s %12s %14.1f   (traced wall - layer sum)\n" "residual" ""
    (residual /. frames);
  Printf.printf "  %-26s %12s %14.1f\n" "traced wall" "" (float_of_int traced_total /. frames);
  Printf.printf "  tracing overhead: traced ns_per_frame_p50 %.1f vs untraced %.1f = %.3fx\n"
    traced_p50 untraced_p50 (ratio traced_p50 untraced_p50);
  let o = Sessions.obs in
  let layer n = Tracer.layer n in
  let self n = float_of_int Tracer.self_ns.(layer n) in
  let words n = Tracer.self_words.(layer n) in
  let calls n = float_of_int Tracer.calls.(layer n) in
  let per_call n = ratio (self n) (calls n) in
  (* a coded sample sends one frame through each code *)
  let code_frames = float_of_int t.ns.Vec.n in
  let fec =
    List.concat_map
      (fun n ->
        let l = "fec." ^ n in
        [
          (l ^ ".ns_per_frame", "ns", ratio (self l) code_frames);
          (l ^ ".words_per_frame", "words", ratio (words l) code_frames);
        ])
      (Array.to_list Coded.code_names)
  in
  let metrics =
    [
      ("sim.engine.events_per_frame", "count", float_of_int o.Sessions.events /. frames);
      ("sim.engine.self_ns_per_frame", "ns", residual /. frames);
      ("channel.model.calls_per_frame", "count", calls "channel.model" /. frames);
      ("channel.model.ns_per_frame", "ns", self "channel.model" /. frames);
      ("channel.model.words_per_frame", "words", words "channel.model" /. frames);
      ("channel.link.frames_sent_per_frame", "count", float_of_int o.Sessions.link_sent /. frames);
      ("channel.link.queue_peak", "count", float_of_int o.Sessions.queue_peak);
      ( "channel.link.lost_frac",
        "ratio",
        ratio (float_of_int o.Sessions.link_lost) (float_of_int o.Sessions.link_sent) );
      ("lams_dlc.sender.ns_per_rx", "ns", per_call "lams_dlc.sender.rx");
      ( "lams_dlc.sender.words_per_frame",
        "words",
        (words "lams_dlc.sender.rx" +. words "lams_dlc.sender.offer") /. frames );
      ( "lams_dlc.sender.offer_accept_ratio",
        "ratio",
        ratio (float_of_int o.Sessions.accepted) (float_of_int o.Sessions.offers) );
      ("lams_dlc.sender.span_peak", "count", float_of_int o.Sessions.span_peak);
      ("lams_dlc.receiver.ns_per_rx", "ns", per_call "lams_dlc.receiver.rx");
      ("lams_dlc.receiver.words_per_frame", "words", words "lams_dlc.receiver.rx" /. frames);
      ( "dlc.metrics.useful_tx_ratio",
        "ratio",
        ratio (float_of_int o.Sessions.unique) (float_of_int o.Sessions.iframes_sent) );
      ("trace.recorder.events_per_frame", "count", calls "trace.recorder" /. frames);
      ("trace.recorder.ns_per_event", "ns", per_call "trace.recorder");
      ("trace.recorder.words_per_frame", "words", words "trace.recorder" /. frames);
      ("oracle.ns_per_event", "ns", per_call "oracle");
      ("dlc.guard.ns_per_rx", "ns", per_call "dlc.guard");
      ("channel.fault.ns_per_decision", "ns", per_call "channel.fault");
      ("session.setup_ns", "ns", per_call "session.setup");
      ("nbdt.sender.ns_per_rx", "ns", per_call "nbdt.sender.rx");
      ("nbdt.receiver.ns_per_rx", "ns", per_call "nbdt.receiver.rx");
      ("hdlc.sender.ns_per_rx", "ns", per_call "hdlc.sender.rx");
      ("hdlc.receiver.ns_per_rx", "ns", per_call "hdlc.receiver.rx");
    ]
    @ fec
    @ [
        ("channel.coded_path.self_ns_per_frame", "ns", self "channel.coded_path" /. frames);
        ("gc.promoted_words_per_frame", "words", t.promoted /. frames);
        ("gc.major_collections_per_kframe", "count", 1000. *. float_of_int t.majors /. frames);
        ("bench.traced_ns_per_frame_p50", "ns", traced_p50);
        ("bench.untraced_ns_per_frame_p50", "ns", untraced_p50);
        ("bench.trace_overhead_ratio", "ratio", ratio traced_p50 untraced_p50);
      ]
  in
  (try
     if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
     let path =
       Filename.concat spans_dir (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed)
     in
     Tracer.write_log path;
     Printf.printf "  first traced sample's %d spans written to %s\n" !Tracer.log_n path
   with Sys_error e -> Printf.printf "  spans not written: %s\n" e);
  let better n =
    match n with
    | "lams_dlc.sender.offer_accept_ratio" | "dlc.metrics.useful_tx_ratio" -> "higher"
    | _ -> "lower"
  in
  List.map (fun (n, u, v) -> (n, u, better n, v)) metrics

let run (w : workload) ~seed ~seconds ~trace =
  Printf.printf "workload %s (seed %d, %gs, trace %d)\n  %s\n" w.name seed seconds
    (if trace then 1 else 0)
    w.describe;
  (* set-up (input generation, tables, one warm-up sample) once before
     the loop and again about once a second during it, between samples,
     so its median spans the same stretch of host time as the samples *)
  let kernel = Vec.create () in
  Vec.push kernel (time_kernel ());
  let setups = ref [] in
  let setup () =
    let t0 = Tracer.cpu_ns () in
    let inst = w.make ~seed ~seconds ~traced:trace in
    let s = float_of_int (Tracer.cpu_ns () - t0) /. 1e9 in
    setups := (s, kernel.Vec.n) :: !setups;
    inst
  in
  let inst = setup () in
  Tracer.reset ();
  Sessions.reset_observed ();
  let resetup () = if not trace then ignore (setup () : instance) in
  let t = timed_loop ~traced:trace ~seconds ~kernel ~resetup inst in
  let n = t.ns.Vec.n in
  let total_frames = ref 0 and total_ns = ref 0 in
  for i = 0 to n - 1 do
    total_frames := !total_frames + t.frames.Vec.a.(i);
    total_ns := !total_ns + t.ns.Vec.a.(i)
  done;
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  (* run-level checks: the workload's own, then determinism (a fresh
     set-up reproduces the first timed sample) *)
  let errors = w.check ~seed inst in
  let errors =
    let fresh = w.make ~seed ~seconds ~traced:false in
    let first = (fresh.run ~traced:false fresh.first ()).digest in
    let recorded = List.hd (String.split_on_char '\n' (Buffer.contents t.sim)) in
    if String.equal first recorded then errors
    else Printf.sprintf "sample %d is not deterministic" inst.first :: errors
  in
  let errors = errors @ List.rev t.mismatches in
  let attempted, errors =
    match inst.distinct with
    | None -> (n, errors)
    | Some k when n >= k -> (k, errors)
    | Some k ->
        (n, errors @ [ Printf.sprintf "only %d of %d distinct samples ran" n k ])
  in
  Printf.printf "  simulated-statistics digest of the first %d samples: %s\n"
    (min n sim_samples)
    (Digest.to_hex (Digest.string (Buffer.contents t.sim)));
  let sorted = per_frame_sorted t.ns t.frames in
  let beyond_p90 = n - int_of_float (Float.ceil (0.9 *. float_of_int n)) in
  Printf.printf
    "  samples %d (%d beyond p90), frames %d, last sample index %d, set-ups %d\n" n
    beyond_p90 !total_frames t.last (List.length !setups);
  let metrics =
    if trace then traced_report w ~seed t
    else begin
      let scaled =
        {
          Vec.a =
            Array.init n (fun i ->
                int_of_float
                  (float_of_int t.ns.Vec.a.(i) *. local_speed kernel t.interval.Vec.a.(i)));
          n;
        }
      in
      let scaled_ns = Array.fold_left ( + ) 0 (Array.sub scaled.Vec.a 0 n) in
      let scaled_sorted = per_frame_sorted scaled t.frames in
      let fps ns = float_of_int !total_frames /. (float_of_int ns /. 1e9) in
      let setup_s = median (List.map fst !setups) in
      Printf.printf
        "  calibration kernel median %.0f ns over %d runs (reference %.0f ns)\n\
        \  unscaled: frames_per_s %.1f, ns_per_frame_p50 %.1f, \
         ns_per_frame_p90 %.1f, setup_s %.6f\n"
        (median (List.init kernel.Vec.n (fun i -> float_of_int kernel.Vec.a.(i))))
        kernel.Vec.n kernel_ref_ns (fps !total_ns) (quantile sorted 0.5)
        (quantile sorted 0.9) setup_s;
      [
        ("frames_per_s", "1/s", "higher", fps scaled_ns);
        ("ns_per_frame_p50", "ns", "lower", quantile scaled_sorted 0.5);
        ("ns_per_frame_p90", "ns", "lower", quantile scaled_sorted 0.9);
        ("words_per_frame", "words", "lower", t.words /. float_of_int (max 1 !total_frames));
        ( "heap_peak_mb",
          "MB",
          "lower",
          float_of_int (heap_words * (Sys.word_size / 8)) /. 1e6 );
        ( "setup_s",
          "s",
          "lower",
          median (List.map (fun (s, j) -> s *. local_speed kernel j) !setups) );
      ]
    end
  in
  print_metrics metrics;
  print_failures t ~attempted;
  List.iter (fun e -> Printf.printf "  ERROR %s\n" e) errors;
  print_result ~correct:(errors = []) ~attempted ~failed:(List.length t.failures)
    metrics

(* --- command line --------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: perfbench --workload {"
    ^ String.concat "|" (List.map (fun w -> w.name) workloads)
    ^ "} --seed N --seconds S --trace 0|1");
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := List.find_opt (fun w -> w.name = v) workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with Some s -> seed := s | None -> usage ());
        parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0. -> seconds := s
        | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:!trace
