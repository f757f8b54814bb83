let prio_tick = 0
let prio_transfer = 20
let prio_stop = 1000

(* Stop events carry the generation they were armed in; [run] bumps the
   generation when it returns, so stops left over from a finished run are
   drained as no-ops instead of truncating a later run. *)
type action = Run of (unit -> unit) | Stop of int

type t = {
  events : action Event_heap.t;
  mutable time : int;
  mutable processed : int;
  mutable stop_gen : int;
  mutable cur_prio : int;
}

let create () =
  { events = Event_heap.create (); time = 0; processed = 0; stop_gen = 0;
    cur_prio = prio_tick }

let now t = t.time
let current_prio t = t.cur_prio

let schedule_at t ?(prio = prio_tick) ~time f =
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule_at: time %d is in the past (now %d)"
         time t.time);
  Event_heap.add t.events ~time ~prio (Run f)

let schedule t ?prio ~delay f =
  if delay < 0 then invalid_arg "Scheduler.schedule: negative delay";
  schedule_at t ?prio ~time:(t.time + delay) f

let stop t ?time () =
  let time = match time with Some x -> x | None -> t.time in
  if time < t.time then
    invalid_arg
      (Printf.sprintf "Scheduler.stop: time %d is in the past (now %d)" time
         t.time);
  Event_heap.add t.events ~time ~prio:prio_stop (Stop t.stop_gen)

type outcome = Stopped | Drained

let run t =
  let rec loop () =
    if Event_heap.is_empty t.events then Drained
    else begin
      let time, prio, action = Event_heap.pop t.events in
      t.time <- time;
      t.cur_prio <- prio;
      t.processed <- t.processed + 1;
      match action with
      | Stop g when g = t.stop_gen -> Stopped
      | Stop _ -> loop () (* stale: armed for a run that already returned *)
      | Run f ->
        f ();
        loop ()
    end
  in
  let outcome = loop () in
  t.stop_gen <- t.stop_gen + 1;
  outcome

let events_processed t = t.processed
