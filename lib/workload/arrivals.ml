type t = { mutable offered : int; total : int }

let count_offered t = t.offered

let finished t = t.offered >= t.total

(* The first [size] bytes of [Printf.sprintf "%010d|" i] followed by
   'x' padding, written straight into one buffer: the Printf form built
   three strings per frame. Negative [i] (a sign in the header) keeps
   the Printf form. *)
let rec decimal_digits n = if n < 10 then 1 else 1 + decimal_digits (n / 10)

let default_payload ~size i =
  if i < 0 then begin
    let header = Printf.sprintf "%010d|" i in
    if size <= String.length header then String.sub header 0 size
    else header ^ String.make (size - String.length header) 'x'
  end
  else begin
    let width = max 10 (decimal_digits i) in
    let b = Bytes.make size 'x' in
    let n = ref i in
    for k = width - 1 downto 0 do
      if k < size then Bytes.unsafe_set b k (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    done;
    if width < size then Bytes.unsafe_set b width '|';
    Bytes.unsafe_to_string b
  end

let deterministic engine ~session ~rate ~count ~payload =
  if rate <= 0. then invalid_arg "Arrivals.deterministic: rate must be > 0";
  let t = { offered = 0; total = count } in
  let interval = 1. /. rate in
  let rec tick () =
    if t.offered < t.total then begin
      if session.Dlc.Session.offer (payload t.offered) then
        t.offered <- t.offered + 1;
      if t.offered < t.total then
        ignore (Sim.Engine.schedule engine ~delay:interval tick : Sim.Engine.event_id)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:0. tick : Sim.Engine.event_id);
  t

let poisson engine ~rng ~session ~rate ~count ~payload =
  if rate <= 0. then invalid_arg "Arrivals.poisson: rate must be > 0";
  let t = { offered = 0; total = count } in
  let rec tick () =
    if t.offered < t.total then begin
      if session.Dlc.Session.offer (payload t.offered) then
        t.offered <- t.offered + 1;
      if t.offered < t.total then begin
        let delay = Sim.Rng.exponential rng ~mean:(1. /. rate) in
        ignore (Sim.Engine.schedule engine ~delay tick : Sim.Engine.event_id)
      end
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:0. tick : Sim.Engine.event_id);
  t

let on_off engine ~rng ~session ~burst_rate ~mean_on ~mean_off ~count ~payload =
  if burst_rate <= 0. || mean_on <= 0. || mean_off <= 0. then
    invalid_arg "Arrivals.on_off: rates and means must be > 0";
  let t = { offered = 0; total = count } in
  let interval = 1. /. burst_rate in
  let rec on_tick until =
    if t.offered < t.total then begin
      if Sim.Engine.now engine >= until then begin
        let off = Sim.Rng.exponential rng ~mean:mean_off in
        ignore
          (Sim.Engine.schedule engine ~delay:off (fun () -> start_burst ())
            : Sim.Engine.event_id)
      end
      else begin
        if session.Dlc.Session.offer (payload t.offered) then
          t.offered <- t.offered + 1;
        ignore
          (Sim.Engine.schedule engine ~delay:interval (fun () -> on_tick until)
            : Sim.Engine.event_id)
      end
    end
  and start_burst () =
    if t.offered < t.total then begin
      let dur = Sim.Rng.exponential rng ~mean:mean_on in
      on_tick (Sim.Engine.now engine +. dur)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:0. start_burst : Sim.Engine.event_id);
  t

let saturating engine ~session ~count ~payload =
  let t = { offered = 0; total = count } in
  (* Offer in bursts until refused; poll for free space at a fine
     interval so the buffer is effectively never idle. *)
  let rec fill () =
    if t.offered < t.total then begin
      let continue = ref true in
      while !continue && t.offered < t.total do
        if session.Dlc.Session.offer (payload t.offered) then
          t.offered <- t.offered + 1
        else continue := false
      done;
      if t.offered < t.total then
        ignore
          (Sim.Engine.schedule engine ~delay:1e-4 fill : Sim.Engine.event_id)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:0. fill : Sim.Engine.event_id);
  t
