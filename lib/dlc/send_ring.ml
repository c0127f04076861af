(* Columns are rings of a power-of-two capacity; slot [(head + k) land
   mask] holds the k-th oldest entry. [regrow] unrolls a full ring into a
   column twice as long, oldest entry at slot 0. *)

let initial_capacity = 16

let regrow a ~head ~len ~fill =
  let b = Array.make (2 * Array.length a) fill in
  let first = Stdlib.min len (Array.length a - head) in
  Array.blit a head b 0 first;
  Array.blit a 0 b first (len - first);
  b

module Fifo = struct
  type t = {
    mutable payload : string array;
    mutable offer : float array;
    mutable first_tx : float array;
    mutable head : int;
    mutable len : int;
  }

  let create () =
    {
      payload = Array.make initial_capacity "";
      offer = Array.make initial_capacity 0.;
      first_tx = Array.make initial_capacity 0.;
      head = 0;
      len = 0;
    }

  let length q = q.len

  let is_empty q = q.len = 0

  let grow q =
    let head = q.head and len = q.len in
    q.payload <- regrow q.payload ~head ~len ~fill:"";
    q.offer <- regrow q.offer ~head ~len ~fill:0.;
    q.first_tx <- regrow q.first_tx ~head ~len ~fill:0.;
    q.head <- 0

  (* Slot for a new back entry. Callers write all three columns, from
     unboxed floats where they have them. *)
  let reserve q =
    if q.len = Array.length q.payload then grow q;
    let s = (q.head + q.len) land (Array.length q.payload - 1) in
    q.len <- q.len + 1;
    s

  let push q ~payload ~offer ~first_tx =
    let s = reserve q in
    Array.unsafe_set q.payload s payload;
    Array.unsafe_set q.offer s offer;
    Array.unsafe_set q.first_tx s first_tx

  let front_payload q =
    if q.len = 0 then invalid_arg "Send_ring.Fifo.front_payload: empty";
    q.payload.(q.head)

  let front_offer q =
    if q.len = 0 then invalid_arg "Send_ring.Fifo.front_offer: empty";
    q.offer.(q.head)

  let drop q =
    if q.len = 0 then invalid_arg "Send_ring.Fifo.drop: empty";
    q.payload.(q.head) <- "";
    q.head <- (q.head + 1) land (Array.length q.payload - 1);
    q.len <- q.len - 1
end

type t = {
  mutable seq : int array;  (* ascending from [head] *)
  mutable payload : string array;
  mutable offer : float array;
  mutable first_tx : float array;
  mutable arrival : float array;
  mutable live : Bytes.t;  (* '\001' live, '\000' resolved *)
  mutable head : int;  (* slot of the oldest entry; live whenever [len > 0] *)
  mutable len : int;  (* entries held from [head], live or resolved *)
  mutable live_count : int;
}

let create () =
  {
    seq = Array.make initial_capacity 0;
    payload = Array.make initial_capacity "";
    offer = Array.make initial_capacity 0.;
    first_tx = Array.make initial_capacity 0.;
    arrival = Array.make initial_capacity 0.;
    live = Bytes.make initial_capacity '\000';
    head = 0;
    len = 0;
    live_count = 0;
  }

let length t = t.live_count

let capacity t = Array.length t.seq

let[@inline] mask t = Array.length t.seq - 1

let[@inline] slot t k = (t.head + k) land mask t

let grow t =
  let head = t.head and len = t.len in
  t.seq <- regrow t.seq ~head ~len ~fill:0;
  t.payload <- regrow t.payload ~head ~len ~fill:"";
  t.offer <- regrow t.offer ~head ~len ~fill:0.;
  t.first_tx <- regrow t.first_tx ~head ~len ~fill:0.;
  t.arrival <- regrow t.arrival ~head ~len ~fill:0.;
  let live = Bytes.make (2 * Bytes.length t.live) '\000' in
  let first = Stdlib.min len (Bytes.length t.live - head) in
  Bytes.blit t.live head live 0 first;
  Bytes.blit t.live 0 live first (len - first);
  t.live <- live;
  t.head <- 0

let transmit t q ~seq ~now ~arrival =
  if Fifo.is_empty q then invalid_arg "Send_ring.transmit: empty queue";
  if t.len > 0 && seq <= t.seq.(slot t (t.len - 1)) then
    invalid_arg "Send_ring.transmit: seq not ascending";
  if t.len = Array.length t.seq then grow t;
  let s = slot t t.len and f = q.Fifo.head in
  Array.unsafe_set t.seq s seq;
  Array.unsafe_set t.payload s (Array.unsafe_get q.Fifo.payload f);
  Array.unsafe_set t.offer s (Array.unsafe_get q.Fifo.offer f);
  let first_tx = Array.unsafe_get q.Fifo.first_tx f in
  Array.unsafe_set t.first_tx s (if Float.is_nan first_tx then now else first_tx);
  Array.unsafe_set t.arrival s arrival;
  Bytes.unsafe_set t.live s '\001';
  t.len <- t.len + 1;
  t.live_count <- t.live_count + 1;
  Fifo.drop q

(* Entry k holds a seq of at least [seq(0) + k], so [s] can only sit at
   k <= s - seq(0): the direct probe is exact while numbering is
   contiguous, and after a gap a binary search bounded by it finds [s]
   in the ascending column. *)
let find t s =
  if t.len = 0 then -1
  else begin
    let k = s - Array.unsafe_get t.seq t.head in
    if k < 0 then -1
    else begin
      let hi = if k < t.len then k else t.len - 1 in
      let j =
        if Array.unsafe_get t.seq (slot t hi) = s then hi
        else begin
          (* invariant: seq(lo) <= s < seq(hi) *)
          let lo = ref 0 and hi = ref hi in
          while !hi - !lo > 1 do
            let mid = (!lo + !hi) lsr 1 in
            if Array.unsafe_get t.seq (slot t mid) <= s then lo := mid
            else hi := mid
          done;
          !lo
        end
      in
      let sl = slot t j in
      if Array.unsafe_get t.seq sl = s && Bytes.unsafe_get t.live sl = '\001'
      then sl
      else -1
    end
  end

let oldest t = if t.len = 0 then -1 else t.head

let oldest_covered t ~horizon =
  if t.len > 0 && Array.unsafe_get t.arrival t.head <= horizon then t.head
  else -1

let check t s =
  if s < 0 || s >= Array.length t.seq || Bytes.get t.live s <> '\001' then
    invalid_arg "Send_ring: not a live slot"

let seq t s =
  check t s;
  Array.unsafe_get t.seq s

let payload t s =
  check t s;
  Array.unsafe_get t.payload s

let offer_time t s =
  check t s;
  Array.unsafe_get t.offer s

let holding_time t s ~now =
  check t s;
  now -. Array.unsafe_get t.first_tx s

let remove t s =
  check t s;
  Bytes.unsafe_set t.live s '\000';
  Array.unsafe_set t.payload s "";
  t.live_count <- t.live_count - 1;
  (* keep the head live: drop the resolved prefix *)
  while t.len > 0 && Bytes.unsafe_get t.live t.head = '\000' do
    t.head <- (t.head + 1) land mask t;
    t.len <- t.len - 1
  done

let copy_to t s q =
  check t s;
  let f = Fifo.reserve q in
  Array.unsafe_set q.Fifo.payload f (Array.unsafe_get t.payload s);
  Array.unsafe_set q.Fifo.offer f (Array.unsafe_get t.offer s);
  Array.unsafe_set q.Fifo.first_tx f (Array.unsafe_get t.first_tx s)

let requeue t s q =
  copy_to t s q;
  remove t s
