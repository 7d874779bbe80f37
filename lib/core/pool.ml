module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Key_set = Request.Key_set
module Simtime = Sof_sim.Simtime

(* Arrival in nanoseconds, or [unstamped]: after every real instant, as a
   missing arrival sorts in Batch.take_oldest. *)
let unstamped = max_int

type entry = { req : Request.t; since : int }

module Age_map = Map.Make (struct
  type t = int * Request.key

  let compare (a, ka) (b, kb) =
    let c = Int.compare a b in
    if c <> 0 then c else Request.compare_key ka kb
end)

type t = {
  mutable held : entry Key_map.t;
  mutable size : int;
  mutable ordered : Key_set.t;
  (* The held entries whose key is not ordered, by key and by (arrival,
     key).  Each index is built by the first query that needs it and kept
     up to date from then on, so a process that never batches or watches
     (most SC replicas) never pays for it. *)
  mutable keyed : bool;
  mutable by_key : entry Key_map.t;
  mutable aged : bool;
  mutable by_age : entry Age_map.t;
}

let create () =
  {
    held = Key_map.empty;
    size = 0;
    ordered = Key_set.empty;
    keyed = false;
    by_key = Key_map.empty;
    aged = false;
    by_age = Age_map.empty;
  }

let size t = t.size
let mem t k = Key_map.mem k t.held
let find t k = Option.map (fun e -> e.req) (Key_map.find_opt k t.held)
let is_ordered t k = Key_set.mem k t.ordered

let index t k e =
  if t.keyed then t.by_key <- Key_map.add k e t.by_key;
  if t.aged then t.by_age <- Age_map.add (e.since, k) e t.by_age

(* Called before [k] stops being held-and-unordered. *)
let unindex t k =
  if (t.keyed || t.aged) && not (Key_set.mem k t.ordered) then
    match Key_map.find_opt k t.held with
    | Some e ->
      if t.keyed then t.by_key <- Key_map.remove k t.by_key;
      if t.aged then t.by_age <- Age_map.remove (e.since, k) t.by_age
    | None -> ()

let unordered t = Key_map.filter (fun k _ -> not (Key_set.mem k t.ordered)) t.held

let by_key t =
  if not t.keyed then begin
    t.keyed <- true;
    t.by_key <- unordered t
  end;
  t.by_key

let by_age t =
  if not t.aged then begin
    t.aged <- true;
    t.by_age <-
      Key_map.fold (fun k e acc -> Age_map.add (e.since, k) e acc) (unordered t) Age_map.empty
  end;
  t.by_age

let add ?arrival t (req : Request.t) =
  let k = req.Request.key in
  if Key_map.mem k t.held then unindex t k else t.size <- t.size + 1;
  let since = match arrival with Some at -> Simtime.to_ns at | None -> unstamped in
  let e = { req; since } in
  t.held <- Key_map.add k e t.held;
  if not (Key_set.mem k t.ordered) then index t k e

let mark_ordered t k =
  unindex t k;
  t.ordered <- Key_set.add k t.ordered

let unmark t k =
  if Key_set.mem k t.ordered then begin
    t.ordered <- Key_set.remove k t.ordered;
    match Key_map.find_opt k t.held with Some e -> index t k e | None -> ()
  end

let remove t k =
  if Key_map.mem k t.held then begin
    unindex t k;
    t.held <- Key_map.remove k t.held;
    t.size <- t.size - 1
  end

let restamp t now =
  let ns = Simtime.to_ns now in
  t.held <-
    Key_map.map (fun e -> if Int.equal e.since unstamped then e else { e with since = ns }) t.held;
  (* Every unordered entry moved; the next queries rebuild the indices. *)
  t.keyed <- false;
  t.by_key <- Key_map.empty;
  t.aged <- false;
  t.by_age <- Age_map.empty

let has_unordered t = not (Age_map.is_empty (by_age t))

(* Greedy under the byte cap, always at least one. *)
let take entries ~limit =
  let rec go entries size acc =
    match entries () with
    | Seq.Nil -> List.rev acc
    | Seq.Cons ((_, e), rest) ->
      let s = Request.encoded_size e.req in
      if size + s > limit && acc <> [] then List.rev acc else go rest (size + s) (e.req :: acc)
  in
  go entries 0 []

let take_oldest t ~limit = take (Age_map.to_seq (by_age t)) ~limit
let take_by_key t ~limit = take (Key_map.to_seq (by_key t)) ~limit

let lowest_unordered_arrival t =
  let rec first entries =
    match entries () with
    | Seq.Nil -> None
    | Seq.Cons ((_, e), rest) ->
      if Int.equal e.since unstamped then first rest else Some (Simtime.ns e.since)
  in
  first (Key_map.to_seq (by_key t))

let oldest_unordered_arrival t =
  match Age_map.min_binding_opt (by_age t) with
  | Some ((since, _), _) when not (Int.equal since unstamped) -> Some (Simtime.ns since)
  | Some _ | None -> None

let overdue t ~budget ~now =
  match oldest_unordered_arrival t with
  | Some since -> Simtime.compare (Simtime.add since budget) now <= 0
  | None -> false
