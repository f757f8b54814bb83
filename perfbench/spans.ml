(** Spans around the benchmark's calls into each layer (traced runs
    only).  Spans stay in memory and are written out once, at the end,
    as a Chrome trace-event array.  Recording is domain-safe: the
    sweep's job spans close on the campaign pool's worker domains. *)

type span = {
  id : int;
  parent : int;  (** 0 = no parent *)
  layer : string;
  name : string;
  op : int;  (** operation id shared by the spans of one operation; 0 = none *)
  tid : int;  (** recording domain *)
  t0 : float;  (** monotonic seconds *)
  t1 : float;
}

type t = {
  mutable on : bool;
  mutable spans : span list;
  mutable next_id : int;
  lock : Mutex.t;
}

let create () = { on = false; spans = []; next_id = 0; lock = Mutex.create () }

(* the innermost open span of the calling domain *)
let current = Domain.DLS.new_key (fun () -> 0)

let fresh_id t =
  Mutex.protect t.lock (fun () ->
      t.next_id <- t.next_id + 1;
      t.next_id)

let record t s = Mutex.protect t.lock (fun () -> t.spans <- s :: t.spans)

(** Record a finished interval as a span. *)
let add t ~parent ~layer ~name ~op ~t0 ~t1 =
  if t.on then
    record t
      { id = fresh_id t; parent; layer; name; op; tid = (Domain.self () :> int); t0; t1 }

(** [within t ~layer ~name f] runs [f] inside a span that is the parent
    of every span [f] opens on this domain. *)
let within t ~layer ~name ?(op = 0) f =
  if not t.on then f ()
  else begin
    let parent = Domain.DLS.get current in
    let id = fresh_id t in
    Domain.DLS.set current id;
    let t0 = Obs.Clock.now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Obs.Clock.now () in
        Domain.DLS.set current parent;
        record t
          { id; parent; layer; name; op; tid = (Domain.self () :> int); t0; t1 })
  end

(** The innermost open span of the calling domain (0 = none). *)
let current_id () = Domain.DLS.get current

let count t = List.length t.spans

(** Self time per layer, in seconds: each span's duration minus the
    part of it covered by the union of its children's intervals. *)
let self_times t =
  let children = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.add children s.parent s) t.spans;
  let totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) kids
      in
      let self = s.t1 -. s.t0 -. covered in
      let prev = Option.value (Hashtbl.find_opt totals s.layer) ~default:0.0 in
      Hashtbl.replace totals s.layer (prev +. self))
    t.spans;
  totals

(** Chrome trace-event JSON: one complete ("X") event per span, in
    microseconds from the first span's start. *)
let to_json t =
  let spans = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) t.spans in
  let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let us x = Obs.Json.Float (Float.round ((x -. origin) *. 1e7) /. 10.0) in
  Obs.Json.List
    (List.map
       (fun s ->
         Obs.Json.Obj
           [
             ("ph", Obs.Json.Str "X");
             ("name", Obs.Json.Str s.name);
             ("cat", Obs.Json.Str s.layer);
             ("ts", us s.t0);
             ("dur", Obs.Json.Float (Float.round ((s.t1 -. s.t0) *. 1e7) /. 10.0));
             ("pid", Obs.Json.Int 1);
             ("tid", Obs.Json.Int s.tid);
             ( "args",
               Obs.Json.Obj
                 [
                   ("id", Obs.Json.Int s.id);
                   ("parent", Obs.Json.Int s.parent);
                   ("op", Obs.Json.Int s.op);
                 ] );
           ])
       spans)
