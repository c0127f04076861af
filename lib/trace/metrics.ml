module Json = Bench_report.Json

(* Dense event tags: the counters are an [int array] indexed by tag, and
   this table is the one place that names them. Its names must equal
   {!Event.name} for every event of the tag. *)
let tag_names =
  [|
    "offered";
    "tx";
    "retx";
    "released";
    "requeued";
    "delivered";
    "recovery-started";
    "recovery-completed";
    "failure-declared";
    "link-up";
    "link-retargeting";
    "link-down";
    "link-failed";
    "cp";
    "cp-nak";
    "state-corrupted";
    "converged";
    "cp-quarantined";
    "resync-forced";
    "fault";
    "violation";
  |]

let tag_fault = 19

let tag_violation = 20

let probe_tag : Dlc.Probe.event -> int = function
  | Offered _ -> 0
  | Tx { retx = false; _ } -> 1
  | Tx { retx = true; _ } -> 2
  | Released _ -> 3
  | Requeued _ -> 4
  | Delivered _ -> 5
  | Recovery_started -> 6
  | Recovery_completed -> 7
  | Failure_declared -> 8
  | Link_transition { state = Link_up } -> 9
  | Link_transition { state = Link_retargeting } -> 10
  | Link_transition { state = Link_down } -> 11
  | Link_transition { state = Link_failed } -> 12
  | Cp_emitted { naks = []; _ } -> 13
  | Cp_emitted _ -> 14
  | State_corrupted _ -> 15
  | Converged _ -> 16
  | Cp_quarantined _ -> 17
  | Resync_forced _ -> 18

(* Wire seq -> (last Tx time, first NAK-advert time), the two times the
   holding and NAK-latency distributions subtract from. One flat
   open-addressing table with unboxed times: linear probing from a
   Fibonacci hash, backward-shift deletion (no tombstones), load at most
   1/2. The hash must scatter: a sliding window of ~1,000 consecutive
   live seqs hashed by [seq land mask] forms one probe run, and every
   deletion would walk all of it. A slot is occupied iff its [has] bits
   are nonzero: bit 0 = Tx time set, bit 1 = NAK time set. Every
   removal clears both. *)
module Seq_times = struct
  type t = {
    mutable keys : int array;
    mutable tx : float array;
    mutable nak : float array;
    mutable has : Bytes.t;
    mutable mask : int;
    mutable shift : int;  (* [Sys.int_size - log2 slots] *)
    mutable size : int;
  }

  let has_tx = 1

  let has_nak = 2

  let make slots =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
    {
      keys = Array.make slots 0;
      tx = Array.make slots 0.;
      nak = Array.make slots 0.;
      has = Bytes.make slots '\000';
      mask = slots - 1;
      shift = Sys.int_size - log2 slots;
      size = 0;
    }

  let[@inline] bits t i = Char.code (Bytes.unsafe_get t.has i)

  let[@inline] set_bits t i b = Bytes.unsafe_set t.has i (Char.unsafe_chr b)

  (* top bits of [seq] times 2^63 / golden ratio *)
  let[@inline] home t seq = (seq * 0x4F1BBCDCBFA53E0B) lsr t.shift

  (* slot holding [seq], or the empty slot ending its probe run *)
  let rec slot t seq i =
    if bits t i = 0 || Array.unsafe_get t.keys i = seq then i
    else slot t seq ((i + 1) land t.mask)

  let find t seq =
    let i = slot t seq (home t seq) in
    if bits t i = 0 then -1 else i

  let rec grow t =
    let { keys; tx; nak; has; _ } = t in
    let bigger = make (2 * Array.length keys) in
    t.keys <- bigger.keys;
    t.tx <- bigger.tx;
    t.nak <- bigger.nak;
    t.has <- bigger.has;
    t.mask <- bigger.mask;
    t.shift <- bigger.shift;
    t.size <- 0;
    for j = 0 to Array.length keys - 1 do
      let b = Char.code (Bytes.get has j) in
      if b <> 0 then begin
        let i = add t keys.(j) in
        set_bits t i b;
        t.tx.(i) <- tx.(j);
        t.nak.(i) <- nak.(j)
      end
    done

  (* slot of [seq], claimed (with no bits set) when absent *)
  and add t seq =
    let i = slot t seq (home t seq) in
    if bits t i <> 0 then i
    else if 2 * (t.size + 1) > Array.length t.keys then begin
      grow t;
      add t seq
    end
    else begin
      Array.unsafe_set t.keys i seq;
      t.size <- t.size + 1;
      i
    end

  let set_tx t seq now =
    let i = add t seq in
    set_bits t i (bits t i lor has_tx);
    t.tx.(i) <- now

  (* the first advertisement of [seq] is the one that counts *)
  let note_nak t seq now =
    let i = add t seq in
    let b = bits t i in
    if b land has_nak = 0 then begin
      set_bits t i (b lor has_nak);
      t.nak.(i) <- now
    end

  (* Empty slot [hole]: pull later members of its probe run back over it
     while their home slot allows, then clear the last hole. *)
  let rec shift t hole j =
    let j = (j + 1) land t.mask in
    if bits t j = 0 then set_bits t hole 0
    else
      let h = home t t.keys.(j) in
      if (j - h) land t.mask >= (j - hole) land t.mask then begin
        t.keys.(hole) <- t.keys.(j);
        t.tx.(hole) <- t.tx.(j);
        t.nak.(hole) <- t.nak.(j);
        set_bits t hole (bits t j);
        shift t j j
      end
      else shift t hole j

  let remove t i =
    shift t i i;
    t.size <- t.size - 1
end

(* A histogram fed through an unboxed buffer: a float handed to another
   module is boxed, so samples collect here and reach
   {!Stats.Histogram.add_floats} in batches. Bin counts do not depend on
   the order of additions, so the batching is invisible once flushed. *)
type hist = { h : Stats.Histogram.t; pending : float array; mutable n : int }

let hist ~lo ~hi ~bins =
  { h = Stats.Histogram.create ~lo ~hi ~bins; pending = Array.make 128 0.; n = 0 }

let flush d =
  Stats.Histogram.add_floats d.h d.pending d.n;
  d.n <- 0

let[@inline] push d x =
  Array.unsafe_set d.pending d.n x;
  d.n <- d.n + 1;
  if d.n = Array.length d.pending then flush d

let flushed d =
  flush d;
  d.h

type t = {
  mutable events : int;
  counts : int array;  (* by tag *)
  holding : hist;
  nak_latency : hist;
  cp_occupancy : hist;
  seqs : Seq_times.t;
}

(* Time histograms: 1 ms bins to 0.5 s. The paper's link (4,000 km,
   300 Mbit/s) has a 27 ms RTT and resolving periods of tens of ms, so
   the range covers every sane configuration; pathological holds land in
   the overflow counter rather than vanishing. *)
let create () =
  {
    events = 0;
    counts = Array.make (Array.length tag_names) 0;
    holding = hist ~lo:0. ~hi:0.5 ~bins:500;
    nak_latency = hist ~lo:0. ~hi:0.5 ~bins:500;
    cp_occupancy = hist ~lo:0. ~hi:64. ~bins:64;
    seqs = Seq_times.make 1024;
  }

let[@inline] bump t tag =
  t.events <- t.events + 1;
  Array.unsafe_set t.counts tag (Array.unsafe_get t.counts tag + 1)

(* a named loop rather than [List.iter (fun seq -> ...)]: no closure per
   checkpoint *)
let rec note_naks s now = function
  | [] -> ()
  | seq :: rest ->
      Seq_times.note_nak s seq now;
      note_naks s now rest

let observe_probe t ~now (ev : Dlc.Probe.event) =
  bump t (probe_tag ev);
  let s = t.seqs in
  match ev with
  | Tx { seq; _ } -> Seq_times.set_tx s seq now
  | Released { seq; _ } ->
      let i = Seq_times.find s seq in
      if i >= 0 then begin
        if Seq_times.bits s i land Seq_times.has_tx <> 0 then
          push t.holding (now -. s.tx.(i));
        Seq_times.remove s i
      end
  | Requeued { seq; _ } ->
      let i = Seq_times.find s seq in
      if i >= 0 then begin
        if Seq_times.bits s i land Seq_times.has_nak <> 0 then
          push t.nak_latency (now -. s.nak.(i));
        Seq_times.remove s i
      end
  | Cp_emitted { naks; _ } ->
      push t.cp_occupancy (float_of_int (List.length naks));
      note_naks s now naks
  | _ -> ()

let observe t (e : Event.t) =
  match e.kind with
  | Probe ev -> observe_probe t ~now:e.time ev
  | Fault _ -> bump t tag_fault
  | Violation _ -> bump t tag_violation

let events t = t.events

let count t name =
  let rec go i =
    if i = Array.length tag_names then 0
    else if String.equal tag_names.(i) name then t.counts.(i)
    else go (i + 1)
  in
  go 0

let holding t = flushed t.holding

let nak_latency t = flushed t.nak_latency

let cp_occupancy t = flushed t.cp_occupancy

let sorted_counts t =
  List.init (Array.length tag_names) (fun i -> (tag_names.(i), t.counts.(i)))
  |> List.filter (fun (_, v) -> v > 0)
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
  @ hist_fields "holding" (holding t)
  @ hist_fields "nak_latency" (nak_latency t)
  @ hist_fields "cp_occupancy" (cp_occupancy t)

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
        ("holding_bins", hist_bins (holding t));
        ("nak_latency_bins", hist_bins (nak_latency t));
        ("cp_occupancy_bins", hist_bins (cp_occupancy t));
      ])
