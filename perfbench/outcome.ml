(* What a finished run delivered to its clients, and whether it was right.

   Everything here reads the cluster after the drain: the event log, the
   replicas' state machines and the reply certificates.  Nothing is timed. *)

module Simtime = Sof_sim.Simtime
module Statistics = Sof_util.Statistics
module Request = Sof_smr.Request
module H = Sof_harness
module P = Sof_protocol

type request_times = {
  arrival : Simtime.t;
  seq : int;  (** Sequence number of the first batch delivered with it. *)
  batched : Simtime.t option;
  committed : Simtime.t option;  (** (f+1)-th replica's [Committed]. *)
  answered : Simtime.t;  (** (f+1)-th replica's [Delivered]. *)
}

type t = {
  episode : int;
  offered : int;
  answered : int;
  reply_ms : Statistics.t;  (** Arrival to reply certificate, answered requests. *)
  batch_wait_ms : Statistics.t;  (** Arrival to [Batched] of its batch. *)
  order : H.Metrics.point;  (** The paper's order latency over the load period. *)
  goodput_rps : float;
  outage_ms : float;
  catchup_ms : float option;
  batches : int;  (** Distinct non-empty sequence numbers delivered. *)
  delivered_requests : int;
  batch_log : (int * Simtime.t option * Request.key list) list;
      (** Each delivered sequence number with its [Batched] instant and
          keys, in sequence order. *)
  requests : (Request.key * request_times) list;  (** Answered, by arrival. *)
  violations : string list;
  fingerprint : string;
      (** Virtual outcome in brief; repetitions of one seed must agree. *)
}

let ms_between later earlier = Simtime.to_ms (Simtime.diff later earlier)

(* Count distinct processes per key, remembering when the (f+1)-th one
   arrived. *)
let quorum_clock ~quorum tbl key who at record =
  let seen = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
  if not (List.mem who seen) then begin
    let seen = who :: seen in
    Hashtbl.replace tbl key seen;
    if List.compare_length_with seen quorum = 0 then record at
  end

let keys_equal a b = List.equal (fun x y -> Request.compare_key x y = 0) a b

let fingerprint cluster =
  let n = H.Cluster.process_count cluster in
  let stats = Sof_net.Network.stats (H.Cluster.network cluster) in
  let digests =
    List.init n (fun i ->
        match H.Cluster.machine cluster i with
        | Some m -> Sof_util.Hex.encode (Sof_smr.State_machine.state_digest m)
        | None -> "-")
  in
  Printf.sprintf "msgs=%d bytes=%d delivered=%s digests=%s"
    stats.Sof_net.Network.messages_sent stats.Sof_net.Network.bytes_sent
    (String.concat "," (List.init n (fun i -> string_of_int (H.Cluster.delivered_seq cluster i))))
    (String.concat "," digests)

let analyze cluster (w : Load.t) (episode : Load.episode) =
  let inputs = Lazy.force episode.Load.inputs in
  let quorum = Load.f + 1 in
  let n = H.Cluster.process_count cluster in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let batched_at : (int, Simtime.t) Hashtbl.t = Hashtbl.create 1024 in
  let committers : (int, int list) Hashtbl.t = Hashtbl.create 1024 in
  let committed_at : (int, Simtime.t) Hashtbl.t = Hashtbl.create 1024 in
  let deliverers : (Request.key, int list) Hashtbl.t = Hashtbl.create 8192 in
  let answered_at : (Request.key, Simtime.t) Hashtbl.t = Hashtbl.create 8192 in
  let seq_of_key : (Request.key, int) Hashtbl.t = Hashtbl.create 8192 in
  let batch_of_seq : (int, Request.key list) Hashtbl.t = Hashtbl.create 1024 in
  (* At-most-once delivery holds per incarnation: a restarted replica
     replays its log into a fresh state machine. *)
  let incarnation_keys = Array.init n (fun _ -> Hashtbl.create 8192) in
  let restarts = ref [] in
  let deliveries = ref [] in
  List.iter
    (fun (at, who, ev) ->
      match ev with
      | P.Context.Batched { seq; _ } ->
        if not (Hashtbl.mem batched_at seq) then Hashtbl.replace batched_at seq at
      | P.Context.Committed { seq; _ } ->
        quorum_clock ~quorum committers seq who at (fun t ->
            Hashtbl.replace committed_at seq t)
      | P.Context.Delivered { seq; batch } ->
        let keys = P.Batch.keys batch in
        deliveries := (at, who, seq) :: !deliveries;
        (match Hashtbl.find_opt batch_of_seq seq with
        | None -> Hashtbl.replace batch_of_seq seq keys
        | Some first ->
          if not (keys_equal first keys) then
            violation "replica %d delivered a different batch at seq %d" who seq);
        List.iter
          (fun k ->
            if Hashtbl.mem incarnation_keys.(who) k then
              violation "replica %d delivered request %d.%d twice" who k.Request.client
                k.Request.client_seq
            else Hashtbl.replace incarnation_keys.(who) k ();
            if not (Hashtbl.mem seq_of_key k) then Hashtbl.replace seq_of_key k seq;
            quorum_clock ~quorum deliverers k who at (fun t -> Hashtbl.replace answered_at k t))
          keys
      | P.Context.Node_restarted ->
        Hashtbl.reset incarnation_keys.(who);
        restarts := (who, at) :: !restarts
      | _ -> ())
    (H.Cluster.events cluster);
  (* Every answered request must carry a reply a correct client accepts. *)
  Hashtbl.iter
    (fun k _ ->
      if Option.is_none (H.Cluster.reply_certificate cluster k) then
        violation "request %d.%d answered without a reply certificate" k.Request.client
          k.Request.client_seq)
    answered_at;
  (* Correct replicas, restarted ones included, converge after the drain. *)
  let correct = List.filter (fun i -> not (List.mem i (Load.faulty w))) (List.init n Fun.id) in
  let final i =
    ( H.Cluster.delivered_seq cluster i,
      Option.map Sof_smr.State_machine.state_digest (H.Cluster.machine cluster i) )
  in
  (match correct with
  | [] -> ()
  | r :: rest ->
    let seq0, digest0 = final r in
    List.iter
      (fun i ->
        let seq, digest = final i in
        if seq <> seq0 then
          violation "replica %d ends at seq %d, replica %d at %d" i seq r seq0;
        if not (Option.equal String.equal digest digest0) then
          violation "replica %d's state digest differs from replica %d's" i r)
      rest);
  let arrivals = Load.arrivals inputs in
  Array.sort (fun a b -> Simtime.compare a.Load.at b.Load.at) arrivals;
  let reply_ms = Statistics.create () in
  let batch_wait_ms = Statistics.create () in
  let requests = ref [] in
  let last_answer = ref Simtime.zero in
  Array.iter
    (fun { Load.at; req } ->
      let k = req.Request.key in
      match Hashtbl.find_opt answered_at k with
      | None -> ()
      | Some answered ->
        Statistics.add reply_ms (ms_between answered at);
        last_answer := Simtime.max !last_answer answered;
        let seq = Option.value (Hashtbl.find_opt seq_of_key k) ~default:0 in
        let batched = Hashtbl.find_opt batched_at seq in
        (match batched with
        | Some b when Simtime.compare b at >= 0 -> Statistics.add batch_wait_ms (ms_between b at)
        | _ -> ());
        requests :=
          ( k,
            { arrival = at; seq; batched; committed = Hashtbl.find_opt committed_at seq; answered }
          )
          :: !requests)
    arrivals;
  let answered = Statistics.count reply_ms in
  (* The longest stretch of the load period with no reply certificate. *)
  let outage_ms =
    let times =
      Hashtbl.fold
        (fun _ at acc -> if Simtime.compare at w.Load.load <= 0 then Simtime.to_ns at :: acc else acc)
        answered_at []
      |> List.sort_uniq Int.compare
    in
    let rec widest best = function
      | a :: (b :: _ as rest) -> widest (max best (b - a)) rest
      | _ -> best
    in
    float_of_int (widest 0 times) /. 1e6
  in
  let catchup_ms =
    match !restarts with
    | [] -> None
    | (who, restarted) :: _ ->
      let first_new_seq =
        Hashtbl.fold
          (fun seq at acc -> if Simtime.compare at restarted >= 0 then min acc seq else acc)
          batched_at max_int
      in
      List.filter_map
        (fun (at, w', seq) ->
          if w' = who && seq >= first_new_seq && Simtime.compare at restarted >= 0 then
            Some (ms_between at restarted)
          else None)
        !deliveries
      |> List.fold_left (fun acc ms -> Some (Float.min ms (Option.value acc ~default:ms))) None
  in
  let batches, delivered_requests =
    Hashtbl.fold
      (fun _ keys (b, r) -> match keys with [] -> (b, r) | _ -> (b + 1, r + List.length keys))
      batch_of_seq (0, 0)
  in
  let order =
    let warmup = Simtime.sec 1 in
    H.Metrics.analyze cluster ~warmup ~window:(Simtime.diff w.Load.load warmup)
  in
  {
    episode = episode.Load.index;
    offered = inputs.Load.offered;
    answered;
    reply_ms;
    batch_wait_ms;
    order;
    goodput_rps =
      (if answered = 0 then 0.0 else float_of_int answered /. Simtime.to_sec !last_answer);
    outage_ms;
    catchup_ms;
    batches;
    delivered_requests;
    batch_log =
      Hashtbl.fold (fun seq keys acc -> (seq, Hashtbl.find_opt batched_at seq, keys) :: acc)
        batch_of_seq []
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b);
    requests = List.rev !requests;
    violations = List.rev !violations;
    fingerprint = fingerprint cluster;
  }

(* ------------------------------------------------------------ pooling *)

(* The run's virtual results over all its episodes: latency samples are
   pooled, per-episode figures averaged. *)
type pooled = {
  p_offered : int;
  p_answered : int;
  p_reply_ms : Statistics.t;
  p_order_p50_ms : float;
  p_order_p95_ms : float;
  p_order_batches : int;
  p_goodput_rps : float;
  p_outage_ms : float;
  p_failover_ms : float option;
  p_catchup_ms : float option;
  p_violations : string list;
}

let pool (outcomes : t list) =
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  let mean f = Metric.mean (List.map f outcomes) in
  let mean_opt f =
    match List.filter_map f outcomes with [] -> None | xs -> Some (Metric.mean xs)
  in
  let merge f =
    let s = Statistics.create () in
    List.iter (fun o -> List.iter (Statistics.add s) (Statistics.to_list (f o))) outcomes;
    s
  in
  let order_pct f o =
    match o.order.H.Metrics.latency with Some s -> Some (f s) | None -> None
  in
  {
    p_offered = sum (fun o -> o.offered);
    p_answered = sum (fun o -> o.answered);
    p_reply_ms = merge (fun o -> o.reply_ms);
    p_order_p50_ms =
      Option.value (mean_opt (order_pct (fun s -> s.Statistics.p50))) ~default:0.0;
    p_order_p95_ms =
      Option.value (mean_opt (order_pct (fun s -> s.Statistics.p95))) ~default:0.0;
    p_order_batches = sum (fun o -> o.order.H.Metrics.batches);
    p_goodput_rps = mean (fun o -> o.goodput_rps);
    p_outage_ms = mean (fun o -> o.outage_ms);
    p_failover_ms = mean_opt (fun o -> o.order.H.Metrics.failover_ms);
    p_catchup_ms = mean_opt (fun o -> o.catchup_ms);
    p_violations =
      List.concat_map
        (fun o -> List.map (fun v -> Printf.sprintf "episode %d: %s" o.episode v) o.violations)
        outcomes;
  }
