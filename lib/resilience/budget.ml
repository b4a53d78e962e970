type t = {
  clock : unit -> float;
  started : float;
  deadline : float;
  poll_every : int;
  countdown : int Atomic.t;
}

exception Deadline_exceeded of { elapsed_s : float; budget_s : float }

let create ?(clock = Unix.gettimeofday) ?(poll_every = 32) ~deadline () =
  if poll_every < 1 then invalid_arg "Budget.create: poll_every < 1";
  { clock; started = clock (); deadline; poll_every;
    countdown = Atomic.make poll_every }

let of_deadline_ms ?clock ~received ms =
  let deadline = received +. (ms /. 1000.0) in
  let b =
    match clock with
    | Some clock -> create ~clock ~deadline ()
    | None -> create ~deadline ()
  in
  (* anchor at receipt: elapsed/budget in [Deadline_exceeded] then
     mean "since the request arrived" and "what the request asked
     for", queue wait included *)
  { b with started = received }

let raise_expired b now =
  raise
    (Deadline_exceeded
       { elapsed_s = now -. b.started; budget_s = b.deadline -. b.started })

let read_clock b =
  let now = b.clock () in
  if now > b.deadline then raise_expired b now

let check = function
  | None -> ()
  | Some b ->
    (* decrement races between domains only make clock reads more
       frequent, never less than one read per [poll_every] polls *)
    let left = Atomic.fetch_and_add b.countdown (-1) in
    if left <= 1 then begin
      Atomic.set b.countdown b.poll_every;
      read_clock b
    end

let check_now = function None -> () | Some b -> read_clock b

let expired = function
  | None -> false
  | Some b -> b.clock () > b.deadline

let deadline b = b.deadline
