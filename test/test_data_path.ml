(* Differential tests for the allocation-lean session data path: the
   struct-of-arrays send buffer against the hash table and queues it
   replaced, the in-place default payload against its Printf form, the
   flat Stats.Online against its boxed-field original, and whole
   LAMS-DLC sessions against probe-stream digests recorded before the
   change. *)

module Ring = Dlc.Send_ring
module Fifo = Dlc.Send_ring.Fifo

(* --- send ring + FIFO vs Hashtbl + Queue --------------------------------- *)

(* The LAMS-DLC sender's former bookkeeping: outstanding entries by seq,
   their seqs in transmission order, and queues of pending records. *)
module Model = struct
  type pending = { payload : string; offer : float; mutable first_tx : float }

  type t = {
    outstanding : (int, pending * float) Hashtbl.t;  (* seq -> entry, arrival *)
    coverage : int Queue.t;
    fresh : pending Queue.t;
    retx : pending Queue.t;
  }

  let create () =
    {
      outstanding = Hashtbl.create 16;
      coverage = Queue.create ();
      fresh = Queue.create ();
      retx = Queue.create ();
    }

  let rec oldest m =
    match Queue.peek_opt m.coverage with
    | Some s when not (Hashtbl.mem m.outstanding s) ->
        ignore (Queue.pop m.coverage : int);
        oldest m
    | other -> other
end

type op =
  | Offer of float
  | Transmit of float * float  (* now, arrival *)
  | Nak of int  (* back from the newest seq *)
  | Cover of float * int  (* horizon, next_expected back from the newest *)
  | Duplicate
  | Scramble of int

let pp_op = function
  | Offer x -> Printf.sprintf "offer %g" x
  | Transmit (n, a) -> Printf.sprintf "tx now=%g arr=%g" n a
  | Nak k -> Printf.sprintf "nak -%d" k
  | Cover (h, k) -> Printf.sprintf "cover %g ne=-%d" h k
  | Duplicate -> "dup"
  | Scramble d -> Printf.sprintf "scramble %d" d

let gen_ops =
  let open QCheck2.Gen in
  let time = map (fun k -> float_of_int k /. 8.) (int_range 0 400) in
  list_size (int_range 0 400)
    (frequency
       [
         (6, map (fun x -> Offer x) time);
         (8, map2 (fun n a -> Transmit (n, a)) time time);
         (2, map (fun k -> Nak k) (int_range 0 40));
         (2, map2 (fun h k -> Cover (h, k)) time (int_range 0 40));
         (1, return Duplicate);
         (1, map (fun d -> Scramble d) (oneofl [ 1; 2; 7; 1 lsl 40 ]));
       ])

(* Drive the ring and the model through [ops], failing at the first
   observable difference. *)
let ring_agrees ops =
  let m = Model.create () in
  let ring = Ring.create () and fresh = Fifo.create () and retx = Fifo.create () in
  let next_seq = ref 0 and count = ref 0 in
  let fail i what =
    QCheck2.Test.fail_reportf "op %d (%s): %s" i (pp_op (List.nth ops i)) what
  in
  let check i =
    if Ring.length ring <> Hashtbl.length m.Model.outstanding then fail i "length";
    if Fifo.length fresh <> Queue.length m.Model.fresh then fail i "fresh length";
    if Fifo.length retx <> Queue.length m.Model.retx then fail i "retx length";
    (match (Model.oldest m, Ring.oldest ring) with
    | None, -1 -> ()
    | Some s, sl when sl >= 0 && Ring.seq ring sl = s -> ()
    | _ -> fail i "oldest");
    Hashtbl.iter
      (fun seq _ ->
        let sl = Ring.find ring seq in
        if sl < 0 || Ring.seq ring sl <> seq then
          fail i (Printf.sprintf "live %d not found" seq))
      m.Model.outstanding;
    for seq = !next_seq - 50 to !next_seq + 1 do
      let sl = Ring.find ring seq in
      match Hashtbl.find_opt m.Model.outstanding seq with
      | None -> if sl <> -1 then fail i (Printf.sprintf "find %d: stale" seq)
      | Some (p, _) ->
          if sl < 0 then fail i (Printf.sprintf "find %d: missing" seq)
          else if
            Ring.seq ring sl <> seq
            || Ring.payload ring sl <> p.Model.payload
            || Ring.offer_time ring sl <> p.Model.offer
          then fail i (Printf.sprintf "entry %d" seq)
    done
  in
  let transmit ~now ~arrival =
    let is_retx = not (Queue.is_empty m.Model.retx) in
    let q, mq = if is_retx then (retx, m.Model.retx) else (fresh, m.Model.fresh) in
    if not (Queue.is_empty mq) then begin
      let seq = !next_seq in
      incr next_seq;
      let p = Queue.pop mq in
      if Fifo.front_payload q <> p.Model.payload then failwith "front payload";
      if Float.is_nan p.Model.first_tx then p.Model.first_tx <- now;
      Hashtbl.replace m.Model.outstanding seq (p, arrival);
      Queue.add seq m.Model.coverage;
      Ring.transmit ring q ~seq ~now ~arrival
    end
  in
  let requeue seq sl =
    let p, _ = Hashtbl.find m.Model.outstanding seq in
    Hashtbl.remove m.Model.outstanding seq;
    Queue.add p m.Model.retx;
    Ring.requeue ring sl retx
  in
  List.iteri
    (fun i op ->
      (match op with
      | Offer x ->
          let payload = string_of_int !count in
          incr count;
          Queue.add { Model.payload; offer = x; first_tx = nan } m.Model.fresh;
          Fifo.push fresh ~payload ~offer:x ~first_tx:nan
      | Transmit (now, arrival) -> transmit ~now ~arrival
      | Nak k ->
          let seq = !next_seq - 1 - k in
          let sl = Ring.find ring seq in
          if Hashtbl.mem m.Model.outstanding seq then begin
            if sl < 0 then fail i "naked seq not found";
            requeue seq sl
          end
          else if sl >= 0 then fail i "naked seq found"
      | Cover (horizon, k) ->
          let next_expected = !next_seq - k in
          let now = horizon +. 1. in
          let rec scan () =
            match Model.oldest m with
            | Some seq ->
                let p, arrival = Hashtbl.find m.Model.outstanding seq in
                if arrival <= horizon then begin
                  let sl = Ring.oldest_covered ring ~horizon in
                  if sl < 0 || Ring.seq ring sl <> seq then fail i "covered";
                  ignore (Queue.pop m.Model.coverage : int);
                  if seq < next_expected then begin
                    if
                      Ring.holding_time ring sl ~now <> now -. p.Model.first_tx
                    then fail i "holding time";
                    Hashtbl.remove m.Model.outstanding seq;
                    Ring.remove ring sl
                  end
                  else requeue seq sl;
                  scan ()
                end
                else if Ring.oldest_covered ring ~horizon <> -1 then
                  fail i "not covered"
            | None ->
                if Ring.oldest_covered ring ~horizon <> -1 then fail i "empty"
          in
          scan ()
      | Duplicate -> (
          match Model.oldest m with
          | Some seq ->
              let p, _ = Hashtbl.find m.Model.outstanding seq in
              Queue.add p m.Model.retx;
              Ring.copy_to ring (Ring.oldest ring) retx
          | None -> ())
      | Scramble d ->
          let cap = Ring.capacity ring in
          next_seq := !next_seq + d;
          if Ring.capacity ring <> cap then fail i "scramble grew the ring");
      check i)
    ops;
  (* drain order: outstanding oldest first, then retx, then fresh *)
  let model_drain =
    let out = ref [] in
    Queue.iter
      (fun seq ->
        match Hashtbl.find_opt m.Model.outstanding seq with
        | Some (p, _) -> out := (`S, p.Model.payload, p.Model.offer) :: !out
        | None -> ())
      m.Model.coverage;
    Queue.iter (fun p -> out := (`N, p.Model.payload, p.Model.offer) :: !out) m.Model.retx;
    Queue.iter (fun p -> out := (`N, p.Model.payload, p.Model.offer) :: !out) m.Model.fresh;
    List.rev !out
  in
  let ring_drain =
    let out = ref [] in
    while Ring.oldest ring >= 0 do
      let sl = Ring.oldest ring in
      out := (`S, Ring.payload ring sl, Ring.offer_time ring sl) :: !out;
      Ring.remove ring sl
    done;
    List.iter
      (fun q ->
        while not (Fifo.is_empty q) do
          out := (`N, Fifo.front_payload q, Fifo.front_offer q) :: !out;
          Fifo.drop q
        done)
      [ retx; fresh ];
    List.rev !out
  in
  if model_drain <> ring_drain then QCheck2.Test.fail_report "drain order";
  true

let prop_ring_matches_model =
  QCheck2.Test.make ~name:"send ring + FIFO == Hashtbl + Queue reference"
    ~count:300 ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    gen_ops ring_agrees

(* Growth across wrap and a numbering jump of 2^40: the ring's memory
   follows the transmissions held, not the numbering span. *)
let test_ring_growth_and_jump () =
  let ring = Ring.create () and q = Fifo.create () in
  let seq = ref 0 in
  let tx () =
    Fifo.push q ~payload:(string_of_int !seq) ~offer:0. ~first_tx:nan;
    Ring.transmit ring q ~seq:!seq ~now:0. ~arrival:(float_of_int !seq);
    incr seq
  in
  (* wrap the head around a 16-slot ring, then grow it while wrapped *)
  for _ = 1 to 12 do tx () done;
  for _ = 1 to 10 do Ring.remove ring (Ring.oldest ring) done;
  for _ = 1 to 12 do tx () done;
  Alcotest.(check int) "no growth below capacity" 16 (Ring.capacity ring);
  for _ = 1 to 40 do tx () done;
  Alcotest.(check int) "doubled twice" 64 (Ring.capacity ring);
  Alcotest.(check int) "live" 54 (Ring.length ring);
  for s = 0 to !seq - 1 do
    Alcotest.(check int)
      (Printf.sprintf "find %d" s)
      (if s < 10 then -1 else s)
      (let sl = Ring.find ring s in
       if sl < 0 then -1 else Ring.seq ring sl)
  done;
  let cap = Ring.capacity ring in
  seq := !seq + (1 lsl 40);
  tx ();
  tx ();
  Alcotest.(check int) "jump leaves capacity" cap (Ring.capacity ring);
  List.iter
    (fun s ->
      let sl = Ring.find ring s in
      Alcotest.(check bool) (Printf.sprintf "find %d after jump" s) true
        (sl >= 0 && Ring.seq ring sl = s))
    [ 10; 40; 63; !seq - 2; !seq - 1 ];
  Alcotest.(check int) "gap seq absent" (-1) (Ring.find ring (!seq - 3));
  Alcotest.(check int) "beyond newest absent" (-1) (Ring.find ring !seq)

(* --- default payload vs its Printf form ---------------------------------- *)

let printf_payload ~size i =
  let header = Printf.sprintf "%010d|" i in
  if size <= String.length header then String.sub header 0 size
  else header ^ String.make (size - String.length header) 'x'

let prop_payload_matches_printf =
  let open QCheck2.Gen in
  let size = frequency [ (10, int_range 0 40); (1, return 1024) ] in
  let index =
    frequency
      [
        ( 3,
          oneofl
            [ 0; 9; 10; 9_999_999_999; 10_000_000_000; max_int; -1; -9; min_int ]
        );
        (3, int);
        (2, int_range (-100_000) 100_000);
      ]
  in
  QCheck2.Test.make ~name:"default_payload == Printf reference" ~count:2000
    ~print:(fun (s, i) -> Printf.sprintf "size %d, i %d" s i)
    (pair size index)
    (fun (size, i) ->
      String.equal (Workload.Arrivals.default_payload ~size i) (printf_payload ~size i))

(* --- Stats.Online vs its boxed-field original ---------------------------- *)

type stat_op = Add of int * float | Merge of int * int

(* bit-equal, except that any NaN equals any NaN: the sign and payload
   of a NaN depend on operand order inside the FPU, which the compiler
   may pick differently for the same source arithmetic *)
let same_float a b =
  (Float.is_nan a && Float.is_nan b)
  || Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let nan_unsigned s =
  String.concat "nan" (Astring.String.cuts ~sep:"-nan" s)

let prop_online_matches_reference =
  let open QCheck2.Gen in
  let value =
    frequency
      [
        (6, float_range (-1e3) 1e3);
        (2, float);
        (1, oneofl [ 0.; -0.; 1e-300; 1e300; infinity; neg_infinity; nan ]);
      ]
  in
  let op =
    frequency
      [
        (8, map2 (fun k x -> Add (k, x)) (int_range 0 50) value);
        (1, map2 (fun a b -> Merge (a, b)) (int_range 0 50) (int_range 0 50));
      ]
  in
  QCheck2.Test.make ~name:"Stats.Online == boxed-field reference" ~count:300
    ~print:(fun ops ->
      String.concat "; "
        (List.map
           (function
             | Add (k, x) -> Printf.sprintf "add %d %h" k x
             | Merge (a, b) -> Printf.sprintf "merge %d %d" a b)
           ops))
    (list_size (int_range 0 300) op)
    (fun ops ->
      (* parallel pools of accumulators; merges append a new one *)
      let flat = ref [| Stats.Online.create () |]
      and boxed = ref [| Online_reference.create () |] in
      let pick k = k mod Array.length !flat in
      List.iter
        (function
          | Add (k, x) ->
              Stats.Online.add !flat.(pick k) x;
              Online_reference.add !boxed.(pick k) x
          | Merge (a, b) ->
              let a = pick a and b = pick b in
              flat := Array.append !flat [| Stats.Online.merge !flat.(a) !flat.(b) |];
              boxed :=
                Array.append !boxed [| Online_reference.merge !boxed.(a) !boxed.(b) |])
        ops;
      Array.for_all2
        (fun f r ->
          Stats.Online.count f = Online_reference.count r
          && same_float (Stats.Online.mean f) (Online_reference.mean r)
          && same_float (Stats.Online.variance f) (Online_reference.variance r)
          && same_float (Stats.Online.min f) (Online_reference.min r)
          && same_float (Stats.Online.max f) (Online_reference.max r)
          && same_float (Stats.Online.sum f) (Online_reference.sum r)
          && String.equal
               (Stats.Online.to_json_string f)
               (Online_reference.to_json_string r)
          && String.equal
               (nan_unsigned (Format.asprintf "%a" Stats.Online.pp f))
               (nan_unsigned (Format.asprintf "%a" Online_reference.pp r)))
        !flat !boxed)

(* --- whole sessions vs digests recorded before the change ---------------- *)

let payload_of = function
  | Dlc.Probe.Offered { payload }
  | Tx { payload; _ }
  | Released { payload; _ }
  | Requeued { payload; _ }
  | Delivered { payload; _ } ->
      Some payload
  | _ -> None

let online_line name o =
  Printf.sprintf "%s n=%d mean=%h var=%h min=%h max=%h sum=%h\n" name
    (Stats.Online.count o) (Stats.Online.mean o) (Stats.Online.variance o)
    (Stats.Online.min o) (Stats.Online.max o) (Stats.Online.sum o)

(* MD5 of every probe event (its trace line plus a digest of the full
   payload), the metrics block, the four accumulators bit for bit and
   the scenario result. *)
let session_digest cfg seed =
  let cfg = { cfg with Experiments.Scenario.seed } in
  let proto =
    Experiments.Scenario.Lams (Experiments.Scenario.default_lams_params cfg)
  in
  let buf = Buffer.create (1 lsl 20) in
  let recorder = Trace.Recorder.create ~name:"s" () in
  Trace.Recorder.set_sink recorder (fun (e : Trace.Event.t) ->
      Buffer.add_string buf (Trace.Event.to_line e);
      (match e.Trace.Event.kind with
      | Trace.Event.Probe ev -> (
          match payload_of ev with
          | Some p -> Buffer.add_string buf (" " ^ Digest.to_hex (Digest.string p))
          | None -> ())
      | _ -> ());
      Buffer.add_char buf '\n');
  let r = Experiments.Scenario.run ~recorder cfg proto in
  let m = r.Experiments.Scenario.metrics in
  Buffer.add_string buf (Format.asprintf "%a\n" Dlc.Metrics.pp m);
  List.iter
    (fun (n, o) -> Buffer.add_string buf (online_line n o))
    [
      ("holding", m.Dlc.Metrics.holding_time);
      ("delay", m.Dlc.Metrics.delivery_delay);
      ("sendbuf", m.Dlc.Metrics.send_buffer);
      ("recvbuf", m.Dlc.Metrics.recv_buffer);
    ];
  Buffer.add_string buf
    (Printf.sprintf "sim_time=%h completed=%b backlog=%d span_peak=%d efficiency=%h\n"
       r.Experiments.Scenario.sim_time r.Experiments.Scenario.completed
       r.Experiments.Scenario.sender_backlog r.Experiments.Scenario.span_peak
       r.Experiments.Scenario.efficiency);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_session_digests () =
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
  List.iter
    (fun (label, cfg, expected) ->
      List.iteri
        (fun i digest ->
          let seed = i + 1 in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d" label seed)
            digest (session_digest cfg seed))
        expected)
    [
      ( "ber 1e-5",
        { Experiments.Scenario.default with ber = 1e-5 },
        [
          "39e5bc137ff71021a4d9497fb0fd1006";
          "bf50b1d56a61cf1f2aa2fcfcd707af18";
          "6185de2704c807c5cd313dc0a5838ca4";
        ] );
      ( "ber 1e-4",
        { Experiments.Scenario.default with ber = 1e-4 },
        [
          "7ebd959811e4c59f8cdd52d0a63a8065";
          "a153f4e6453c209fad613bccf8576de8";
          "4e1d8fab9db051c062ff806e671ff267";
        ] );
      ( "small-burst",
        small_burst,
        [
          "c67f48552f3ae4c73a07f7bedc9dda3e";
          "ceadd38686e19b6f5219d575c23aea20";
          "9327ae2006947e3d1ea242a1953e7413";
        ] );
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_ring_matches_model;
    Alcotest.test_case "ring growth across wrap, 2^40 jump" `Quick
      test_ring_growth_and_jump;
    QCheck_alcotest.to_alcotest prop_payload_matches_printf;
    QCheck_alcotest.to_alcotest prop_online_matches_reference;
    Alcotest.test_case "session probe digests unchanged" `Quick
      test_session_digests;
  ]
