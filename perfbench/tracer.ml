(* In-memory layer spans for the traced benchmark mode.

   A span is opened with [enter layer] and closed with [leave ()] around
   one call into a layer's public entry point. Spans nest: each records
   its own wall time and Gc.minor_words delta, and hands both to its
   parent, so a layer's {e self} figures exclude the layers it called.
   All state lives in preallocated arrays and both reads (the monotonic
   clock and Gc.minor_words) are unboxed and allocation-free, so a span
   adds no words to the layer it measures.

   Per-layer totals accumulate for every span. The raw span log (layer,
   start, end, parent) keeps the first [log_capacity] spans recorded
   while [logging] is set and is written out by [write_log]. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

external thread_cpu_ns : unit -> (int64[@unboxed])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
[@@noalloc]

(* CPU time of the calling thread, in ns: the per-sample timer. Unlike
   the monotonic clock it does not run while the thread is descheduled,
   so other load on the host does not inflate a sample. *)
let cpu_ns () = Int64.to_int (thread_cpu_ns ())

(* --- layer registry ------------------------------------------------------ *)

let max_layers = 64

let names = Array.make max_layers ""

let n_layers = ref 0

let layer name =
  let rec find i =
    if i = !n_layers then begin
      if i = max_layers then invalid_arg "Tracer.layer: too many layers";
      names.(i) <- name;
      incr n_layers;
      i
    end
    else if String.equal names.(i) name then i
    else find (i + 1)
  in
  find 0

let name l = names.(l)

let calls = Array.make max_layers 0

let self_ns = Array.make max_layers 0

let self_words = Array.make max_layers 0.

let reset () =
  Array.fill calls 0 max_layers 0;
  Array.fill self_ns 0 max_layers 0;
  Array.fill self_words 0 max_layers 0.

(* --- span stack ---------------------------------------------------------- *)

let max_depth = 64

let st_layer = Array.make max_depth 0

let st_t0 = Array.make max_depth 0

let st_w0 = Array.make max_depth 0.

let st_child_ns = Array.make max_depth 0

let st_child_w = Array.make max_depth 0.

let st_log = Array.make max_depth (-1)

let depth = ref 0

(* --- raw span log -------------------------------------------------------- *)

let log_capacity = 1 lsl 17

let log_layer = Array.make log_capacity 0

let log_start = Array.make log_capacity 0

let log_stop = Array.make log_capacity 0

let log_parent = Array.make log_capacity (-1)

let log_n = ref 0

let logging = ref false

let enter l =
  let d = !depth in
  if d = max_depth then failwith "Tracer.enter: spans nested too deep";
  st_layer.(d) <- l;
  st_child_ns.(d) <- 0;
  st_child_w.(d) <- 0.;
  (if !logging && !log_n < log_capacity then begin
     let i = !log_n in
     log_n := i + 1;
     log_layer.(i) <- l;
     log_parent.(i) <- (if d > 0 then st_log.(d - 1) else -1);
     st_log.(d) <- i
   end
   else st_log.(d) <- -1);
  depth := d + 1;
  st_w0.(d) <- Gc.minor_words ();
  st_t0.(d) <- now_ns ()

let leave () =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = !depth - 1 in
  depth := d;
  let dt = t1 - st_t0.(d) in
  let dw = w1 -. st_w0.(d) in
  let l = st_layer.(d) in
  calls.(l) <- calls.(l) + 1;
  self_ns.(l) <- self_ns.(l) + dt - st_child_ns.(d);
  self_words.(l) <- self_words.(l) +. dw -. st_child_w.(d);
  if d > 0 then begin
    st_child_ns.(d - 1) <- st_child_ns.(d - 1) + dt;
    st_child_w.(d - 1) <- st_child_w.(d - 1) +. dw
  end;
  let s = st_log.(d) in
  if s >= 0 then begin
    log_start.(s) <- st_t0.(d);
    log_stop.(s) <- t1
  end

(* JSONL, one span per line; times are ns relative to the first logged
   span, [parent] indexes the line of the enclosing span (-1 at top). *)
let write_log path =
  let oc = open_out path in
  let base = if !log_n > 0 then log_start.(0) else 0 in
  for i = 0 to !log_n - 1 do
    Printf.fprintf oc
      "{\"i\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d}\n" i
      names.(log_layer.(i))
      (log_start.(i) - base)
      (log_stop.(i) - base)
      log_parent.(i)
  done;
  close_out oc

(* --- wrapping a channel model --------------------------------------------- *)

(* Every per-frame closure of a [Channel.Model.t] runs inside a span of
   layer [l]; [m_copy] returns a wrapped copy, so the per-direction
   copies a [Channel.Duplex] makes stay instrumented. The wrapped model
   draws exactly the stream the inner one does. *)
let rec wrap_model l (m : Channel.Model.t) : Channel.Model.t =
  {
    m with
    Channel.Model.m_fate =
      (fun rng ~header_bits ~payload_bits ->
        enter l;
        let f = m.Channel.Model.m_fate rng ~header_bits ~payload_bits in
        leave ();
        f);
    m_fates_into =
      (fun rng ~header_bits ~payload_bits dst ~n ->
        enter l;
        m.Channel.Model.m_fates_into rng ~header_bits ~payload_bits dst ~n;
        leave ());
    m_advance =
      (fun rng ~bits ->
        enter l;
        m.Channel.Model.m_advance rng ~bits;
        leave ());
    m_error_positions_into =
      (fun rng ~bits dst ->
        enter l;
        m.Channel.Model.m_error_positions_into rng ~bits dst;
        leave ());
    m_copy = (fun () -> wrap_model l (m.Channel.Model.m_copy ()));
  }

(* --- wrapping an FEC code ------------------------------------------------- *)

let wrap_code l (c : Fec.Code.t) : Fec.Code.t =
  {
    c with
    Fec.Code.encode =
      (fun b ->
        enter l;
        let r = c.Fec.Code.encode b in
        leave ();
        r);
    decode =
      (fun b ~data_bits ->
        enter l;
        let r = c.Fec.Code.decode b ~data_bits in
        leave ();
        r);
    encode_into =
      Option.map
        (fun f src dst ->
          enter l;
          f src dst;
          leave ())
        c.Fec.Code.encode_into;
    decode_into =
      Option.map
        (fun f coded ~data_bits dst ->
          enter l;
          f coded ~data_bits dst;
          leave ())
        c.Fec.Code.decode_into;
  }
