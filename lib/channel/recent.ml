type 'a t = {
  capacity : int;
  mutable items : 'a array;  (* empty until the first push *)
  mutable next : int;  (* slot the next push writes *)
  mutable length : int;
}

let create capacity =
  if capacity < 1 then invalid_arg "Recent.create: capacity must be >= 1";
  { capacity; items = [||]; next = 0; length = 0 }

let push t x =
  if t.length = 0 then t.items <- Array.make t.capacity x;
  t.items.(t.next) <- x;
  t.next <- (t.next + 1) mod t.capacity;
  if t.length < t.capacity then t.length <- t.length + 1

let stale t ~back =
  if t.length = 0 then None
  else begin
    let age = min (max back 0) (t.length - 1) in
    let slot = (t.next - 1 - age + t.capacity) mod t.capacity in
    Some (age, t.items.(slot))
  end
