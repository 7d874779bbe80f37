module Simtime = Sof_sim.Simtime
module Estimator = Sof_net.Delay_estimator
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Key_set = Request.Key_set
module Int_set = Set.Make (Int)

type status = Up | Down | Permanently_down

(* Votes for one sequence number, keyed by digest: a vote is either being a
   signatory of the doubly-signed order or having sent a matching ack.  The
   proof tuples back a backlog's "proof of commitment". *)
type votes = {
  mutable sources : Int_set.t;
  mutable proof : (int * string) list;
}

type order_state = {
  o : int;
  mutable digest : string;
  mutable keys : Request.key list;
  mutable have_order : bool;
  mutable vote_era : int;
  mutable acked : bool;
  mutable committed : bool;
  mutable null : bool;
  votes_by_digest : (string, votes) Hashtbl.t;
  (* trace spans currently open at this process for this order *)
  mutable sp_batch : bool;
  mutable sp_endorse : bool;
  mutable sp_order : bool;
  mutable sp_ack : bool;
}

type claim = {
  committed_upto : int;
  uncommitted : Message.order_info list;
}

type seam = {
  era : unit -> int;
  rank_of : int -> int;
  replacing : unit -> bool;
  quorum : unit -> int;
  dumb : unit -> bool;
  pair_failed : rank:int -> value_domain:bool -> unit;
  recover : unit -> unit;
}

type t = {
  ctx : Context.t;
  config : Config.t;
  fault : Fault.t;
  counterpart_fail_signal : string option;
  pair_rank : int option;
  counterpart : int option;
  all_ids : int list;
  mutable seam : seam;
  (* own pair *)
  mutable status : status;
  mutable fail_signalled : bool;
  mutable last_heard : Simtime.t;
  mutable heartbeat_timer : Context.timer option;
  mutable beat : int;
  (* request pool *)
  pool : Pool.t;
  mutable delivered_keys : Key_set.t;
  mutable view_ordered_keys : Key_set.t;
  mutable executed : Request.t Key_map.t;
  (* order log *)
  orders : (int, order_state) Hashtbl.t;
  mutable max_committed : int;
  mutable committed_digest : string;
  mutable committed_era : int;
  mutable committed_proof : (int * string) list;
  mutable delivered : int;
  (* coordinator primary *)
  mutable next_seq : int;
  mutable batch_timer : Context.timer option;
  mutable endorsement_watches : (int * Context.timer) list;
  (* coordinator shadow *)
  mutable expected_seq : int;
  mutable last_progress : Simtime.t;
  mutable stashed_endorsements : (Simtime.t * Message.envelope * Message.order_info) list;
  mutable watch_timer : Context.timer option;
  (* coordinator replacement *)
  mutable start_covers : Message.order_info list;
  mutable anchor_seen : int;
  mutable stash_future : (int * Message.envelope) list;
  mutable failover_span : int option;
  (* checkpointing and state transfer *)
  rcv : Recovery.state;
  mutable ckpt_proposals : (Message.envelope * int * string) list;
  mutable ckpt_certs : Checkpoint.cert list;
  (* adaptive timing *)
  rtt : Sof_net.Peer_rtt.t;
  mutable shadow_watch_level : int;
  mutable hb_level : int;
  mutable stash_retry_armed : bool;
}

(* ------------------------------------------------------------ accessors *)

let id p = p.ctx.Context.id
let era p = p.seam.era ()
let rank p = p.seam.rank_of (p.seam.era ())
let coordinator_is_pair p = Config.candidate_is_pair p.config (rank p)

let is_primary p =
  (not (p.seam.replacing ()))
  && Int.equal (id p) (Config.primary_of_pair p.config (rank p))
  && p.status = Up

let is_shadow p =
  (not (p.seam.replacing ()))
  && coordinator_is_pair p
  && Int.equal (id p) (Config.shadow_of_pair p.config (rank p))
  && p.status = Up

let cancel_timer = function Some h -> h.Context.cancel () | None -> ()

(* --------------------------------------------------------- transmission *)

let can_transmit p =
  (not (p.seam.dumb ())) && not (Fault.is_mute p.fault ~now:(p.ctx.Context.now ()))

let send p ~dst env = if can_transmit p then p.ctx.Context.send ~dst env
let multicast p ~dsts env = if can_transmit p then p.ctx.Context.multicast ~dsts env
let others p = List.filter (fun q -> not (Int.equal q (id p))) p.all_ids

(* Accountable bodies (orders, fail-signals, checkpoints) are signed with
   the transferable mechanism; everything else uses the wire mode, which
   may be a cheap MAC authenticator vector. *)
let signer_for p body =
  if Message.accountable_body body then p.ctx.Context.sign_acc else p.ctx.Context.sign

let verifier_for p body =
  if Message.accountable_body body then p.ctx.Context.verify_acc else p.ctx.Context.verify

let make_signed p body =
  let payload = Message.encode_body body in
  { Message.sender = id p; body; signature = signer_for p body payload; endorsement = None }

let endorse p (env : Message.envelope) =
  let payload = Message.endorsement_payload env.Message.body env.Message.signature in
  { env with Message.endorsement = Some (id p, signer_for p env.Message.body payload) }

(* Verify every signature an envelope carries. *)
let authentic p (env : Message.envelope) =
  let payload = Message.encode_body env.Message.body in
  let verify = verifier_for p env.Message.body in
  verify ~signer:env.Message.sender ~msg:payload ~signature:env.Message.signature
  && begin
       match env.Message.endorsement with
       | None -> true
       | Some (who, s) ->
         (not (Int.equal who env.Message.sender))
         && verify ~signer:who
              ~msg:(Message.endorsement_payload env.Message.body env.Message.signature)
              ~signature:s
     end

(* An envelope this process signed first and its counterpart endorsed,
   arriving back from the network: the primary forwards it to everyone. *)
let own_endorsed_return p ~src (env : Message.envelope) =
  Int.equal env.Message.sender (id p) && not (Int.equal src (id p))

let body_digest p (env : Message.envelope) =
  let payload = Message.encode_body env.Message.body in
  p.ctx.Context.digest_charge (String.length payload);
  Sof_crypto.Digest_alg.digest p.config.Config.digest payload

(* An order from candidate [rank] is acceptable when doubly-signed by the
   pair, or singly-signed when the candidate is SC's final unpaired
   process (which, by SC2 and the ranking argument, must be non-faulty when
   it coordinates). *)
let valid_coordinator_message p ~rank (env : Message.envelope) =
  if Config.candidate_is_pair p.config rank then
    match env.Message.endorsement with
    | None -> false
    | Some (who, _) ->
      let members = Config.candidate_members p.config rank in
      List.mem env.Message.sender members && List.mem who members
  else
    Option.is_none env.Message.endorsement
    && Int.equal env.Message.sender (Config.primary_of_pair p.config rank)

let fail_signal_authentic p ~pair (env : Message.envelope) =
  let members = Config.candidate_members p.config pair in
  List.length members = 2
  && List.mem env.Message.sender members
  && begin
       match env.Message.endorsement with
       | Some (who, _) -> List.mem who members && not (Int.equal who env.Message.sender)
       | None -> false
     end
  && authentic p env

(* ------------------------------------------------------ adaptive timing *)

let adaptive p =
  match p.config.Config.timing with Config.Adaptive -> true | Config.Static -> false

(* The deadline standing in for the static differential-delay bound.  In
   adaptive mode it is the counterpart link's Jacobson deadline; a round
   trip upper-bounds the one-way differential, so the substitution is
   conservative — it can only delay a time-domain fail-signal, never forge
   evidence (timers gate accusations, not safety). *)
let pair_estimate p =
  match (p.config.Config.timing, p.counterpart) with
  | Config.Static, _ | _, None -> p.config.Config.pair_delay_estimate
  | Config.Adaptive, Some cp -> Estimator.timeout (Sof_net.Peer_rtt.estimator p.rtt cp)

(* Hard cap on any backed-off retry timer: 64x the configured estimate
   keeps degraded-mode detection latency finite. *)
let timer_cap p = Simtime.ns (64 * Simtime.to_ns p.config.Config.pair_delay_estimate)

(* Adaptive suspicion discipline.  An expired adaptive deadline is first
   evidence of a wrong estimate, not of a failed counterpart: the Jacobson
   estimate lags a delay that is still growing (each measurement is a full
   round trip stale), so a merely-slow peer routinely overshoots it.  Each
   watch therefore doubles its own budget and re-waits, and accuses only
   once the backed-off budget has saturated the hard cap and the counterpart
   still missed it.  Static mode keeps the paper's Sync reading — one
   configured estimate, lateness is failure — untouched.  The trade is
   explicit: adaptive detection of a genuinely dead counterpart takes up to
   ~2x the cap (the doubling sum), bounded and documented, in exchange for
   emitting no premature signal against a straggler. *)
let budget_at p ~level = Estimator.backed_off (pair_estimate p) ~level ~cap:(timer_cap p)

(* True while backing off further is allowed; once the budget has walked to
   the cap the next miss is an accusation. *)
let can_back_off p ~level =
  adaptive p && Simtime.compare (budget_at p ~level) (timer_cap p) < 0

let send_probe p dst =
  let nonce = Sof_net.Peer_rtt.next_nonce p.rtt in
  let at = Simtime.to_ns (p.ctx.Context.now ()) in
  send p ~dst (make_signed p (Message.Probe { nonce; at }))

(* ----------------------------------------------------------- order log *)

let get_order p o =
  match Hashtbl.find_opt p.orders o with
  | Some st -> st
  | None ->
    let st =
      {
        o;
        digest = "";
        keys = [];
        have_order = false;
        vote_era = 0;
        acked = false;
        committed = false;
        null = false;
        votes_by_digest = Hashtbl.create 4;
        sp_batch = false;
        sp_endorse = false;
        sp_order = false;
        sp_ack = false;
      }
    in
    Hashtbl.replace p.orders o st;
    st

let votes_for st digest =
  match Hashtbl.find_opt st.votes_by_digest digest with
  | Some v -> v
  | None ->
    let v = { sources = Int_set.empty; proof = [] } in
    Hashtbl.replace st.votes_by_digest digest v;
    v

let add_vote st ~digest ~source ~signature =
  let v = votes_for st digest in
  if not (Int_set.mem source v.sources) then begin
    v.sources <- Int_set.add source v.sources;
    v.proof <- (source, signature) :: v.proof
  end

(* Both signatories of a coordinator message vote for its digest. *)
let add_envelope_votes st ~digest (env : Message.envelope) =
  add_vote st ~digest ~source:env.Message.sender ~signature:env.Message.signature;
  match env.Message.endorsement with
  | Some (who, s) -> add_vote st ~digest ~source:who ~signature:s
  | None -> ()

(* ---------------------------------------------------------- trace spans *)
(* [Context.emit] costs no simulated CPU, so span instrumentation cannot
   perturb seeded trajectories.  Each sp_* flag means "open at this
   process"; a close is only ever emitted when the flag is set, so spans
   balance whenever the order commits locally. *)

let span_open p phase seq = p.ctx.Context.emit (Context.Span_open { phase; seq })
let span_close p phase seq = p.ctx.Context.emit (Context.Span_close { phase; seq })

let open_batch_span p st =
  if (not st.sp_batch) && not st.committed then begin
    st.sp_batch <- true;
    span_open p Context.Batch_phase st.o
  end

let open_endorse_span p st =
  if st.sp_batch && not st.sp_endorse then begin
    st.sp_endorse <- true;
    span_open p Context.Endorse_phase st.o
  end

let close_endorse_span p st =
  if st.sp_endorse then begin
    st.sp_endorse <- false;
    span_close p Context.Endorse_phase st.o
  end

let open_order_span p st =
  if st.sp_batch && not st.sp_order then begin
    st.sp_order <- true;
    span_open p Context.Order_phase st.o
  end

let close_order_span p st =
  if st.sp_order then begin
    st.sp_order <- false;
    span_close p Context.Order_phase st.o
  end

let ack_span_transition p st =
  close_order_span p st;
  if st.sp_batch && not st.sp_ack then begin
    st.sp_ack <- true;
    span_open p Context.Ack_phase st.o
  end

let close_batch_spans p st =
  close_endorse_span p st;
  close_order_span p st;
  if st.sp_ack then begin
    st.sp_ack <- false;
    span_close p Context.Ack_phase st.o
  end;
  if st.sp_batch then begin
    st.sp_batch <- false;
    span_close p Context.Batch_phase st.o
  end

let open_failover_span p rank =
  if Option.is_none p.failover_span then begin
    p.failover_span <- Some rank;
    span_open p Context.Failover_phase rank
  end

let close_failover_span p =
  match p.failover_span with
  | Some r ->
    p.failover_span <- None;
    span_close p Context.Failover_phase r
  | None -> ()

(* ------------------------------------------------------- checkpointing *)
(* Pair-endorsed stable checkpoints: the coordinator primary signs its state
   digest at each boundary and its shadow endorses after comparing against
   its own boundary image — at most one pair member is faulty, so the double
   signature carries at least one correct process's word for the digest.
   SC's unpaired last candidate certifies with a single signature: by the
   sequential-failure assumption it is correct whenever it coordinates. *)

let log_length p = Hashtbl.length p.orders
let stable_checkpoint_seq p = Recovery.stable_seq p.rcv
let latest_stable p = Recovery.latest_stable p.rcv
let client_marks p = Recovery.marks p.rcv

let ckpt_pair_ok p ~primary ~endorser =
  let ranks = List.init (Config.candidate_count p.config) (fun i -> i + 1) in
  match endorser with
  | Some s ->
    List.exists
      (fun r ->
        Config.candidate_is_pair p.config r
        &&
        let members = Config.candidate_members p.config r in
        List.mem primary members && List.mem s members && not (Int.equal primary s))
      ranks
  | None ->
    List.exists
      (fun r ->
        (not (Config.candidate_is_pair p.config r))
        && Int.equal primary (Config.primary_of_pair p.config r))
      ranks

let ckpt_scheme p = Recovery.Pair_endorsed { pair_ok = ckpt_pair_ok p }

let cert_of_ckpt_env (env : Message.envelope) ~seq ~digest =
  {
    Checkpoint.cp_seq = seq;
    cp_digest = digest;
    cp_proof = [ (env.Message.sender, env.Message.signature) ];
    cp_endorsement = env.Message.endorsement;
  }

let truncate p upto =
  let stale = Hashtbl.fold (fun o _ acc -> if o <= upto then o :: acc else acc) p.orders [] in
  List.iter (Hashtbl.remove p.orders) stale;
  (* Keep one extra interval of delivered keys so a coordinator installed
     late that re-orders a just-delivered request is still deduplicated. *)
  List.iter
    (fun (req : Request.t) ->
      p.delivered_keys <- Key_set.remove req.Request.key p.delivered_keys;
      Pool.unmark p.pool req.Request.key;
      p.executed <- Key_map.remove req.Request.key p.executed)
    (Recovery.prune_delivered p.rcv ~upto:(upto - p.config.Config.checkpoint_interval));
  p.ctx.Context.emit (Context.Log_truncated { upto; retained = Hashtbl.length p.orders })

(* A verified certificate becomes stable here once our own boundary image
   for that seq exists and matches; a cert running ahead of our delivery
   waits in [ckpt_certs] for the boundary to catch up. *)
let ckpt_adopt_cert p (cert : Checkpoint.cert) =
  let seq = cert.Checkpoint.cp_seq in
  if seq > Recovery.stable_seq p.rcv then begin
    match Recovery.image_at p.rcv ~seq with
    | Some image
      when String.equal
             (Checkpoint.image_digest p.config.Config.digest image)
             cert.Checkpoint.cp_digest ->
      if Recovery.note_stable p.rcv ~cert ~image then begin
        p.ctx.Context.emit (Context.Checkpoint_stable { seq; digest = cert.Checkpoint.cp_digest });
        span_close p Context.Checkpoint_phase seq;
        truncate p seq
      end
    | Some _ ->
      (* A certified digest that disagrees with our own image: not a state we
         can serve; ignore (a lagging or diverged replica recovers through
         state transfer instead). *)
      ()
    | None ->
      if not (List.exists (fun c -> Checkpoint.equal_cert c cert) p.ckpt_certs) then
        p.ckpt_certs <- cert :: p.ckpt_certs
  end

(* Shadow side of a phase-1 checkpoint proposal: endorse only when the
   primary's digest matches our own image for that boundary.  A mismatch is
   refused rather than fail-signalled — checkpoint certification is a
   liveness aid, and refusing keeps a diverged digest from being certified. *)
let shadow_handle_checkpoint p (env : Message.envelope) ~seq ~digest =
  match Recovery.image_at p.rcv ~seq with
  | Some image ->
    if String.equal (Checkpoint.image_digest p.config.Config.digest image) digest then begin
      let endorsed = endorse p env in
      multicast p ~dsts:(others p) endorsed;
      ckpt_adopt_cert p (cert_of_ckpt_env endorsed ~seq ~digest)
    end
  | None -> if seq > p.delivered then p.ckpt_proposals <- (env, seq, digest) :: p.ckpt_proposals

let retry_ckpt_stash p =
  let proposals = p.ckpt_proposals in
  p.ckpt_proposals <- [];
  List.iter
    (fun (env, seq, digest) ->
      if seq > Recovery.stable_seq p.rcv then begin
        match Recovery.image_at p.rcv ~seq with
        | Some _ -> shadow_handle_checkpoint p env ~seq ~digest
        | None -> p.ckpt_proposals <- (env, seq, digest) :: p.ckpt_proposals
      end)
    proposals;
  let certs = p.ckpt_certs in
  p.ckpt_certs <- [];
  List.iter (fun cert -> ckpt_adopt_cert p cert) certs

let checkpoint_boundary p o =
  let image =
    Checkpoint.wrap_image ~state:(p.ctx.Context.snapshot ()) ~marks:(Recovery.marks p.rcv)
  in
  p.ctx.Context.digest_charge (String.length image);
  let digest = Checkpoint.image_digest p.config.Config.digest image in
  Recovery.note_image p.rcv ~seq:o ~image;
  span_open p Context.Checkpoint_phase o;
  if is_primary p then begin
    let env = make_signed p (Message.Checkpoint { seq = o; digest }) in
    if coordinator_is_pair p then
      (* Phase 1: 1-to-1 to the shadow for endorsement. *)
      send p ~dst:(Config.shadow_of_pair p.config (rank p)) env
    else begin
      (* Unpaired coordinator: singleton certificate straight to everyone. *)
      multicast p ~dsts:(others p) env;
      ckpt_adopt_cert p (cert_of_ckpt_env env ~seq:o ~digest)
    end
  end;
  retry_ckpt_stash p

(* ------------------------------------------------------------- delivery *)

let rec advance_delivery p =
  match Hashtbl.find_opt p.orders (p.delivered + 1) with
  | None -> ()
  | Some st when not st.committed -> ()
  | Some st ->
    (* At-most-once: a coordinator installed after a replacement may
       re-order requests an earlier coordinator already committed.  Honest
       processes agree on the committed prefix, so they prune the same
       already-delivered keys and execute identical sub-batches.  A null
       order delivers an empty batch whatever keys it names. *)
    let keys = if st.null then [] else st.keys in
    let fresh =
      List.filter
        (fun k ->
          (not (Key_set.mem k p.delivered_keys))
          && (p.config.Config.checkpoint_interval = 0 || Recovery.fresh_key p.rcv k))
        keys
    in
    let requests = List.filter_map (Pool.find p.pool) fresh in
    (* Some bodies not here yet: clients broadcast to all over a reliable
       network, so they will arrive and retrigger delivery. *)
    if Int.equal (List.length requests) (List.length fresh) then begin
      p.delivered <- st.o;
      List.iter
        (fun k ->
          p.delivered_keys <- Key_set.add k p.delivered_keys;
          if p.config.Config.checkpoint_interval > 0 then Recovery.mark_delivered p.rcv k;
          (match Pool.find p.pool k with
          | Some r -> p.executed <- Key_map.add k r p.executed
          | None -> ());
          Pool.remove p.pool k)
        keys;
      let batch = Batch.make requests in
      p.ctx.Context.deliver ~seq:st.o batch;
      p.ctx.Context.emit (Context.Delivered { seq = st.o; batch });
      if p.config.Config.checkpoint_interval > 0 then begin
        Recovery.note_delivered p.rcv ~seq:st.o requests;
        if Checkpoint.is_boundary ~interval:p.config.Config.checkpoint_interval st.o then
          checkpoint_boundary p st.o
      end;
      advance_delivery p
    end

let record_commit p st =
  if not st.committed then begin
    close_batch_spans p st;
    st.committed <- true;
    if st.o > p.max_committed then begin
      p.max_committed <- st.o;
      p.committed_digest <- st.digest;
      p.committed_era <- st.vote_era;
      p.committed_proof <-
        (match Hashtbl.find_opt st.votes_by_digest st.digest with
        | Some v -> v.proof
        | None -> [])
    end;
    p.ctx.Context.emit (Context.Committed { seq = st.o; digest = st.digest; keys = st.keys });
    advance_delivery p
  end

let try_commit p st =
  if st.have_order && not st.committed then begin
    let v = votes_for st st.digest in
    if Int_set.cardinal v.sources >= p.seam.quorum () then begin
      record_commit p st;
      (* Committing the start placeholder commits everything it covers. *)
      if st.null && p.start_covers <> [] then begin
        let covered = p.start_covers in
        p.start_covers <- [];
        List.iter
          (fun (info : Message.order_info) ->
            let cst = get_order p info.Message.o in
            if not cst.committed then begin
              cst.have_order <- true;
              cst.digest <- info.Message.digest;
              cst.keys <- info.Message.keys;
              record_commit p cst
            end)
          covered
      end;
      advance_delivery p
    end
  end

let send_ack p st =
  if st.have_order && not st.acked then begin
    st.acked <- true;
    ack_span_transition p st;
    let body = Message.Ack { c = st.vote_era; o = st.o; digest = st.digest } in
    multicast p ~dsts:p.all_ids (make_signed p body)
  end

(* Process an authentic order from the coordinator of [era] (doubly-signed
   for pairs, singly-signed for the unpaired last candidate). *)
let accept_order p (env : Message.envelope) ~era ~(info : Message.order_info) =
  let st = get_order p info.Message.o in
  if st.have_order then begin
    (* Duplicate (the 2-to-n phase delivers two copies); votes still count.
       Conflicting doubly-signed orders would mean both pair members failed
       — outside the fault model; first writer wins. *)
    if String.equal st.digest info.Message.digest then begin
      add_envelope_votes st ~digest:st.digest env;
      send_ack p st;
      try_commit p st
    end
  end
  else begin
    st.have_order <- true;
    st.digest <- info.Message.digest;
    st.keys <- info.Message.keys;
    st.vote_era <- era;
    open_batch_span p st;
    close_endorse_span p st;
    open_order_span p st;
    if info.Message.keys = [] then st.null <- true;
    List.iter (Pool.mark_ordered p.pool) info.Message.keys;
    add_envelope_votes st ~digest:st.digest env;
    send_ack p st;
    try_commit p st
  end

(* ------------------------------------------------------ state transfer *)

module Lifecycle = Recovery.Lifecycle (struct
  type nonrec t = t

  let ctx p = p.ctx
  let rcv p = p.rcv
  let f p = p.config.Config.f
  let digest p = p.config.Config.digest
  let fault p = p.fault
  let scheme = ckpt_scheme
  let envelope = make_signed
  let send = send
  let multicast = multicast
  let others = others
  let adaptive = adaptive
  let timer_cap = timer_cap
  let fetch_retry_base p = Simtime.add p.config.Config.heartbeat_interval (pair_estimate p)
  let delivered p = p.delivered

  let committed_tail p ~base =
    Hashtbl.fold
      (fun o st acc ->
        if o <= p.delivered || o <= base || not st.committed then acc
        else
          let requests = List.filter_map (Pool.find p.pool) st.keys in
          if Int.equal (List.length requests) (List.length st.keys) then
            Recovery.batch_entry p.ctx p.config.Config.digest ~o requests :: acc
          else acc)
      p.orders []

  let adopt_entry p (e : Checkpoint.entry) =
    let st = get_order p e.Checkpoint.e_o in
    if not st.committed then begin
      st.have_order <- true;
      st.digest <- e.Checkpoint.e_digest;
      st.keys <- List.map (fun (r : Request.t) -> r.Request.key) e.Checkpoint.e_requests;
      if e.Checkpoint.e_requests = [] then st.null <- true;
      st.committed <- true;
      List.iter
        (fun (r : Request.t) ->
          Pool.mark_ordered p.pool r.Request.key;
          if
            (not (Pool.mem p.pool r.Request.key))
            && not (Key_set.mem r.Request.key p.delivered_keys)
          then Pool.add p.pool r)
        e.Checkpoint.e_requests;
      if st.o > p.max_committed then p.max_committed <- st.o
    end

  let move_to_image p ~seq =
    p.delivered <- seq;
    if p.max_committed < seq then p.max_committed <- seq;
    truncate p seq

  let advance_delivery = advance_delivery
  let fence_minting p = if p.next_seq <= p.max_committed then p.next_seq <- p.max_committed + 1
end)

let request_recovery = Lifecycle.request_recovery
let recover_local = Lifecycle.recover_local

(* --------------------------------------------------------- fail-signals *)

(* Stop acting as the coordinator primary or shadow: no more batches, no
   more stall watch. *)
let stand_down p =
  cancel_timer p.watch_timer;
  p.watch_timer <- None;
  cancel_timer p.batch_timer;
  p.batch_timer <- None

let emit_fail_signal p ~value_domain =
  match (p.pair_rank, p.counterpart_fail_signal, p.counterpart) with
  | _ when p.fault = Fault.Withhold_fail_signal ->
    (* Saboteur: sit on the evidence.  Detection must come from the other
       member's signal or from the receivers' own timeouts. *)
    ()
  | Some rank, Some presig, Some cp when p.status = Up && not p.fail_signalled ->
    p.fail_signalled <- true;
    stand_down p;
    List.iter (fun (_, h) -> h.Context.cancel ()) p.endorsement_watches;
    p.endorsement_watches <- [];
    let body = Message.Fail_signal { pair = rank } in
    let env = endorse p { Message.sender = cp; body; signature = presig; endorsement = None } in
    p.ctx.Context.emit (Context.Fail_signal_emitted { pair = rank; value_domain });
    if value_domain then p.ctx.Context.emit (Context.Value_fault_detected { pair = rank });
    multicast p ~dsts:(others p) env;
    p.seam.pair_failed ~rank ~value_domain
  | _ -> ()

(* ---------------------------------------------- replacing the coordinator *)

(* The new backlog out of a quorum of claims.  Anchor: the highest proven
   committed sequence number.  Above it, candidate orders are grouped by
   (o, digest) with their support counts.  The paper's principle: an order
   possibly committed by a correct process appears in at least f+1 of any
   n-f claims, so the best-supported digest is the only safe choice.  Holes
   are filled with null orders so delivery never stalls. *)
let new_back_log p claims =
  let anchor = List.fold_left (fun acc c -> max acc c.committed_upto) 0 claims in
  let support : (int * string, int * Message.order_info) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun c ->
      List.iter
        (fun (info : Message.order_info) ->
          if info.Message.o > anchor then begin
            let key = (info.Message.o, info.Message.digest) in
            match Hashtbl.find_opt support key with
            | Some (n, i) -> Hashtbl.replace support key (n + 1, i)
            | None -> Hashtbl.replace support key (1, info)
          end)
        c.uncommitted)
    claims;
  let by_o : (int, (int * Message.order_info) list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (o, _) (n, info) ->
      let cur = Option.value (Hashtbl.find_opt by_o o) ~default:[] in
      Hashtbl.replace by_o o ((n, info) :: cur))
    support;
  let chosen =
    Hashtbl.fold
      (fun _o cands acc ->
        let best =
          List.sort
            (fun (n1, i1) (n2, i2) ->
              let c = Int.compare n2 n1 in
              if c <> 0 then c else String.compare i1.Message.digest i2.Message.digest)
            cands
        in
        match best with [] -> acc | (_, info) :: _ -> info :: acc)
      by_o []
    |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
  in
  let start_o =
    1 + List.fold_left (fun acc (i : Message.order_info) -> max acc i.Message.o) anchor chosen
  in
  let nd = Batch.digest p.config.Config.digest (Batch.make []) in
  let filled =
    List.init (start_o - anchor - 1) (fun idx ->
        let o = anchor + 1 + idx in
        match List.find_opt (fun (i : Message.order_info) -> Int.equal i.Message.o o) chosen with
        | Some info -> info
        | None -> { Message.o; digest = nd; keys = [] })
  in
  (start_o, anchor, filled)

(* The new shadow checks its primary's proposed backlog against the claims
   it received itself (the paper's p'c verification).  The primary may have
   seen commits we did not (its quorum of claims need not include ours), so
   the anchor may legitimately sit below our own max_committed; what the
   proposal must never do is contradict an order we know committed or
   conflict with an (f+1)-supported digest.  A plausible proposal is
   endorsed and multicast; an implausible one is a value-domain failure. *)
let vet_proposal p (env : Message.envelope) claims ~start_o ~anchor ~new_back_log =
  let commits_preserved =
    let rec check o =
      o > p.max_committed
      || begin
           (match Hashtbl.find_opt p.orders o with
           | Some st when st.committed ->
             List.exists
               (fun (i : Message.order_info) ->
                 Int.equal i.Message.o o && String.equal i.Message.digest st.digest)
               new_back_log
           | Some _ | None -> true)
           && check (o + 1)
         end
    in
    check (anchor + 1)
  in
  let plausible =
    start_o > anchor && commits_preserved
    && List.for_all
         (fun (info : Message.order_info) ->
           let competing =
             List.filter
               (fun c ->
                 List.exists
                   (fun (i : Message.order_info) ->
                     Int.equal i.Message.o info.Message.o
                     && not (String.equal i.Message.digest info.Message.digest))
                   c.uncommitted)
               claims
           in
           List.length competing < p.config.Config.f + 1)
         new_back_log
  in
  if plausible then begin
    let endorsed = endorse p env in
    multicast p ~dsts:(others p) endorsed;
    Some endorsed
  end
  else begin
    emit_fail_signal p ~value_domain:true;
    None
  end

let defer p ~src env = p.stash_future <- (src, env) :: p.stash_future

let take_future p =
  let stash = List.rev p.stash_future in
  p.stash_future <- [];
  stash

(* ------------------------------------------------------ normal batching *)

let flip_first_byte s =
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  Bytes.to_string b

let rec arm_batch_timer p =
  p.batch_timer <-
    Some (p.ctx.Context.set_timer ~delay:p.config.Config.batching_interval (fun () -> batch_tick p))

and batch_tick p =
  if is_primary p then begin
    if Pool.has_unordered p.pool then issue_batch p;
    arm_batch_timer p
  end

and issue_batch p =
  let requests = Pool.take_oldest p.pool ~limit:p.config.Config.batch_size_limit in
  let batch = Batch.make requests in
  let o = p.next_seq in
  p.next_seq <- o + 1;
  p.ctx.Context.digest_charge (Batch.encoded_size batch);
  let digest = Batch.digest p.config.Config.digest batch in
  let digest =
    match p.fault with
    | Fault.Corrupt_digest_at at when Int.equal at o ->
      (* Value-domain fault: lie about the batch's contents. *)
      flip_first_byte digest
    | _ -> digest
  in
  let keys = Batch.keys batch in
  List.iter (Pool.mark_ordered p.pool) keys;
  let info = { Message.o; digest; keys } in
  p.ctx.Context.emit
    (Context.Batched
       { seq = o; requests = Batch.request_count batch; bytes = Batch.encoded_size batch });
  open_batch_span p (get_order p o);
  let env = make_signed p (Message.Order { c = era p; info }) in
  if coordinator_is_pair p then begin
    let shadow = Config.shadow_of_pair p.config (rank p) in
    match p.fault with
    | Fault.Equivocate_at at when Int.equal at o ->
      (* Equivocation: two conflicting orders for the same sequence number.
         The shadow is asked to endorse a corrupted digest — a value-domain
         failure it must detect and fail-signal — while the rest of the
         cohort receives the honest digest without the pair's double
         signature, which they reject as unendorsed.  Either way no honest
         receiver can assemble a doubly-signed order for this [o]. *)
      let conflicting = { info with Message.digest = flip_first_byte digest } in
      send p ~dst:shadow (make_signed p (Message.Order { c = era p; info = conflicting }));
      multicast p ~dsts:(List.filter (fun q -> not (Int.equal q shadow)) (others p)) env
    | _ ->
      (* Phase 1: 1-to-1 to the shadow for endorsement. *)
      open_endorse_span p (get_order p o);
      send p ~dst:shadow env;
      arm_endorsement_watch p o ~level:0
  end
  else begin
    (* Unpaired coordinator: singly-signed order straight to everyone. *)
    multicast p ~dsts:(others p) env;
    accept_order p env ~era:(era p) ~info
  end

and arm_endorsement_watch p o ~level =
  let watch =
    p.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(budget_at p ~level) (fun () ->
        endorsement_overdue p o ~level)
  in
  p.endorsement_watches <- (o, watch) :: p.endorsement_watches

and endorsement_overdue p o ~level =
  p.endorsement_watches <- List.remove_assoc o p.endorsement_watches;
  let endorsed =
    match Hashtbl.find_opt p.orders o with Some st -> st.have_order | None -> false
  in
  if not endorsed then
    if can_back_off p ~level then arm_endorsement_watch p o ~level:(level + 1)
    else
      (* Time-domain failure of the shadow (assumption 3(a)(i): the estimate
         is accurate, so lateness means failure; in adaptive mode the budget
         already walked to the hard cap first). *)
      emit_fail_signal p ~value_domain:false

(* ------------------------------------- shadow checking and endorsement *)

let shadow_validate_order p ~(info : Message.order_info) =
  if not (Int.equal info.Message.o p.expected_seq) then
    if info.Message.o < p.expected_seq then `Duplicate
    else
      (* A gap is not evidence: the network is non-FIFO, so a later order can
         overtake an earlier one we are still deferring on.  Stash it until
         the gap fills. *)
      `Defer
  else if
    (* Double-ordering is only evidence of misbehaviour within the current
       era: a primary installed after a replacement may not know which keys
       earlier coordinators already ordered, and re-proposing them is
       benign now that delivery is at-most-once. *)
    List.exists (fun k -> Key_set.mem k p.view_ordered_keys) info.Message.keys
  then `Invalid
  else if info.Message.keys = [] then `Invalid
  else begin
    let lookup k =
      match Pool.find p.pool k with Some r -> Some r | None -> Key_map.find_opt k p.executed
    in
    let requests = List.filter_map lookup info.Message.keys in
    if not (Int.equal (List.length requests) (List.length info.Message.keys)) then `Defer
    else begin
      let batch = Batch.make requests in
      p.ctx.Context.digest_charge (Batch.encoded_size batch);
      if String.equal (Batch.digest p.config.Config.digest batch) info.Message.digest then `Valid
      else `Invalid
    end
  end

let shadow_budget p =
  Simtime.add p.config.Config.batching_interval (budget_at p ~level:p.shadow_watch_level)

let rec shadow_handle_order p (env : Message.envelope) ~(info : Message.order_info) =
  match p.fault with
  | Fault.Drop_endorsements -> ()
  | _ -> begin
    match shadow_validate_order p ~info with
    | `Duplicate -> ()
    | `Defer ->
      let st = get_order p info.Message.o in
      open_batch_span p st;
      open_endorse_span p st;
      p.stashed_endorsements <- (p.ctx.Context.now (), env, info) :: p.stashed_endorsements;
      retry_stashed_later p
    | `Invalid -> begin
      match p.fault with
      | Fault.Endorse_corrupt_at at when Int.equal at info.Message.o ->
        shadow_endorse p env ~info
      | _ -> emit_fail_signal p ~value_domain:true
    end
    | `Valid ->
      let st = get_order p info.Message.o in
      open_batch_span p st;
      open_endorse_span p st;
      shadow_endorse p env ~info
  end

and shadow_endorse p (env : Message.envelope) ~(info : Message.order_info) =
  p.expected_seq <- info.Message.o + 1;
  p.last_progress <- p.ctx.Context.now ();
  p.shadow_watch_level <- 0;
  List.iter
    (fun k ->
      Pool.mark_ordered p.pool k;
      p.view_ordered_keys <- Key_set.add k p.view_ordered_keys)
    info.Message.keys;
  let endorsed = endorse p env in
  (* Phase 2: 2-to-n — the shadow multicasts the endorsed order... *)
  multicast p ~dsts:(others p) endorsed;
  accept_order p endorsed ~era:(era p) ~info;
  rearm_shadow_watch p

and retry_stashed_later p =
  (* Requests the primary referenced should arrive shortly (clients
     broadcast); recheck after the pair delay estimate.  A still-unresolvable
     order is a timeout, not proof of misbehaviour — a slow wire is
     indistinguishable from an inventing primary. *)
  if not p.stash_retry_armed then begin
    p.stash_retry_armed <- true;
    ignore
      (p.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(pair_estimate p) (fun () ->
           p.stash_retry_armed <- false;
           retry_stashed p))
  end

and retry_stashed p =
  let stashed = p.stashed_endorsements in
  p.stashed_endorsements <- [];
  (* Ascending sequence order so that endorsing a gap-filler immediately
     unblocks the overtaking orders stashed behind it. *)
  let stashed =
    List.sort
      (fun (_, _, (a : Message.order_info)) (_, _, (b : Message.order_info)) ->
        Int.compare a.Message.o b.Message.o)
      stashed
  in
  List.iter
    (fun (since, env, (info : Message.order_info)) ->
      match shadow_validate_order p ~info with
      | `Valid -> shadow_endorse p env ~info
      | `Duplicate -> ()
      | `Invalid -> emit_fail_signal p ~value_domain:true
      | `Defer ->
        let age = Simtime.diff (p.ctx.Context.now ()) since in
        (* In adaptive mode the wire may legitimately hold a gap open for as
           long as the hard cap — only a gap older than that is evidence. *)
        let limit = if adaptive p then timer_cap p else pair_estimate p in
        if Simtime.compare age limit >= 0 then
          (* Timeout, not proof: the referenced requests (or the gap
             predecessor) never showed up.  Time-domain. *)
          emit_fail_signal p ~value_domain:false
        else begin
          p.stashed_endorsements <- (since, env, info) :: p.stashed_endorsements;
          if adaptive p then retry_stashed_later p
        end)
    stashed

(* Shadow watches the primary: every known request must be ordered within
   batching_interval + pair_delay_estimate of its arrival (time-domain check,
   Section 3.1 (ii)). *)
and rearm_shadow_watch p =
  cancel_timer p.watch_timer;
  p.watch_timer <- None;
  if is_shadow p then begin
    (* Armed from the lowest unordered key's arrival, not the oldest: safe,
       because the oldest is no later, so the watch can only fire late, and
       the fire-time check below uses the true oldest arrival (see
       Pool.lowest_unordered_arrival). *)
    match Pool.lowest_unordered_arrival p.pool with
    | None -> ()
    | Some since ->
      (* The primary is timely as long as it keeps ordering: it must produce
         an endorsable order within [budget] of max(last endorsement, oldest
         unordered arrival) — per-request age alone would falsely accuse a
         merely backlogged primary. *)
      let deadline = Simtime.add (Simtime.max since p.last_progress) (shadow_budget p) in
      let now = p.ctx.Context.now () in
      let delay =
        if Simtime.compare deadline now <= 0 then Simtime.ns 1 else Simtime.diff deadline now
      in
      p.watch_timer <-
        Some
          (p.ctx.Context.set_timer ~kind:Context.Watchdog ~delay (fun () ->
               shadow_watch_fired p))
  end

and shadow_watch_fired p =
  p.watch_timer <- None;
  if is_shadow p then begin
    let budget = shadow_budget p in
    let now = p.ctx.Context.now () in
    let stalled =
      Simtime.compare (Simtime.add p.last_progress budget) now <= 0
      && Pool.overdue p.pool ~budget ~now
    in
    if not stalled then rearm_shadow_watch p
    else if can_back_off p ~level:p.shadow_watch_level then begin
      p.shadow_watch_level <- p.shadow_watch_level + 1;
      rearm_shadow_watch p
    end
    else emit_fail_signal p ~value_domain:false
  end

(* ------------------------------------------------- entering a new era *)

(* A new coordinator's backlog and start message are in: adopt the backlog
   (above the stable checkpoint, where the log is truncated and settled),
   enter the start itself as the null order at [start_o], and take up the
   primary or shadow role in the new era.  Returns the start's order for
   the caller to ack once it has announced the install. *)
let adopt_new_back_log p (start_env : Message.envelope) ~era ~start_o ~anchor ~new_back_log =
  p.start_covers <-
    List.filter (fun (i : Message.order_info) -> i.Message.o > p.max_committed) new_back_log;
  List.iter
    (fun (info : Message.order_info) ->
      if info.Message.o > Recovery.stable_seq p.rcv then begin
        let st = get_order p info.Message.o in
        if not st.committed then begin
          st.have_order <- true;
          st.digest <- info.Message.digest;
          st.keys <- info.Message.keys;
          st.vote_era <- era;
          if info.Message.keys = [] then st.null <- true;
          List.iter (Pool.mark_ordered p.pool) info.Message.keys
        end
      end)
    new_back_log;
  if anchor > p.anchor_seen then p.anchor_seen <- anchor;
  let digest = body_digest p start_env in
  let st = get_order p start_o in
  if not st.committed then begin
    st.have_order <- true;
    st.digest <- digest;
    st.keys <- [];
    st.null <- true;
    st.vote_era <- era;
    add_envelope_votes st ~digest start_env
  end;
  let rank = p.seam.rank_of era in
  if
    Int.equal (id p) (Config.primary_of_pair p.config rank)
    && (not (p.seam.dumb ()))
    && p.status = Up
  then begin
    p.next_seq <- start_o + 1;
    arm_batch_timer p
  end;
  if Config.candidate_is_pair p.config rank && Int.equal (id p) (Config.shadow_of_pair p.config rank)
  then begin
    p.expected_seq <- start_o + 1;
    p.last_progress <- p.ctx.Context.now ()
  end;
  p.view_ordered_keys <- Key_set.empty;
  (* Stashed endorsements are from the superseded era; anything still
     legitimate is covered by the new backlog. *)
  p.stashed_endorsements <- [];
  st

(* ------------------------------------------------------------ heartbeat *)

let rec arm_heartbeat p =
  match (p.pair_rank, p.counterpart) with
  | Some rank, Some cp when p.status <> Permanently_down ->
    p.heartbeat_timer <-
      Some
        (p.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:p.config.Config.heartbeat_interval
           (fun () -> heartbeat_tick p rank cp))
  | _ -> ()

(* Mutual checking inside the pair: each member beats to its counterpart
   and measures the silence since it last heard from it. *)
and heartbeat_tick p rank cp =
  if p.status <> Permanently_down then begin
    p.beat <- p.beat + 1;
    send p ~dst:cp (make_signed p (Message.Heartbeat { pair = rank; beat = p.beat }));
    if adaptive p then send_probe p cp;
    let silence = Simtime.diff (p.ctx.Context.now ()) p.last_heard in
    let tolerance =
      Simtime.add
        (Simtime.add p.config.Config.heartbeat_interval p.config.Config.heartbeat_interval)
        (budget_at p ~level:p.hb_level)
    in
    let timely = Simtime.compare silence tolerance <= 0 in
    (match p.status with
    | Up ->
      if timely then p.hb_level <- 0
      else if can_back_off p ~level:p.hb_level then p.hb_level <- p.hb_level + 1
      else emit_fail_signal p ~value_domain:false
    | Down -> if timely then p.seam.recover ()
    | Permanently_down -> ());
    arm_heartbeat p
  end

(* -------------------------------------------------------------- inbound *)

let note_heard p ~src =
  match p.counterpart with
  | Some cp when Int.equal cp src -> p.last_heard <- p.ctx.Context.now ()
  | Some _ | None -> ()

let on_message p ~src (env : Message.envelope) =
  match env.Message.body with
  | Message.Heartbeat _ -> () (* the core's liveness note is all they carry *)
  | Message.Order { c = e; info } ->
    (* Sequence numbers at or below the stable checkpoint are settled and
       truncated — stragglers must not resurrect them in the log. *)
    if info.Message.o <= Recovery.stable_seq p.rcv then ()
    else if Int.equal e (era p) && not (p.seam.replacing ()) then begin
      let rank = rank p in
      if Option.is_none env.Message.endorsement && coordinator_is_pair p then begin
        (* Phase-1 unendorsed order: only meaningful at the shadow. *)
        if
          is_shadow p
          && Int.equal src (Config.primary_of_pair p.config rank)
          && Int.equal env.Message.sender src
          && authentic p env
        then shadow_handle_order p env ~info
      end
      else if valid_coordinator_message p ~rank env && authentic p env then begin
        (* The primary forwards the endorsed order to everyone (phase 2). *)
        if is_primary p && own_endorsed_return p ~src env then begin
          (match List.assoc_opt info.Message.o p.endorsement_watches with
          | Some h ->
            h.Context.cancel ();
            p.endorsement_watches <- List.remove_assoc info.Message.o p.endorsement_watches
          | None -> ());
          multicast p ~dsts:(others p) env
        end;
        accept_order p env ~era:e ~info
      end
    end
    else if e > era p || p.seam.replacing () then defer p ~src env
    else if
      (* Catch-up: a late order from a superseded era.  Sequences at or
         below an installed start's anchor are proven committed, and under
         the pair fault model the valid coordinator message for a given
         sequence is unique, so adopting its content is safe — this is how a
         replica partitioned across the replacement recovers the orders
         whose acks it already holds.  Fresh sequences from a deposed
         coordinator (above the anchor, where the replacement may have
         decided differently) stay dropped. *)
      info.Message.o <= p.anchor_seen
      && valid_coordinator_message p ~rank:(p.seam.rank_of e) env
      && authentic p env
    then accept_order p env ~era:e ~info
  | Message.Ack { o; digest; _ } ->
    if o > Recovery.stable_seq p.rcv && authentic p env then begin
      let st = get_order p o in
      add_vote st ~digest ~source:env.Message.sender ~signature:env.Message.signature;
      if st.have_order && String.equal st.digest digest then try_commit p st
    end
  | Message.Checkpoint { seq; digest } ->
    if
      p.config.Config.checkpoint_interval > 0
      && seq > Recovery.stable_seq p.rcv
      && authentic p env
    then begin
      (match env.Message.endorsement with
      | None -> begin
        (* Either a phase-1 proposal addressed to this pair's shadow, or the
           unpaired candidate's complete singleton certificate. *)
        match (p.pair_rank, p.counterpart) with
        | Some r, Some cp
          when Int.equal env.Message.sender cp
               && Int.equal cp (Config.primary_of_pair p.config r)
               && p.status = Up ->
          shadow_handle_checkpoint p env ~seq ~digest
        | _ ->
          if ckpt_pair_ok p ~primary:env.Message.sender ~endorser:None then
            ckpt_adopt_cert p (cert_of_ckpt_env env ~seq ~digest)
      end
      | Some (who, _) ->
        if ckpt_pair_ok p ~primary:env.Message.sender ~endorser:(Some who) then
          ckpt_adopt_cert p (cert_of_ckpt_env env ~seq ~digest));
      (* A checkpoint a full interval ahead of our delivery point means we
         missed traffic that has since been truncated at our peers: catch up
         through state transfer rather than waiting for retransmissions that
         will never come. *)
      if seq > p.delivered + p.config.Config.checkpoint_interval then request_recovery p
    end
  | Message.State_request { have } ->
    if authentic p env then Lifecycle.serve_state_request p ~src ~have
  | Message.State_response { cert; image; entries } ->
    if authentic p env then Lifecycle.handle_state_response p ~src ~cert ~image ~entries
  | Message.Probe { nonce; at } ->
    (* Echo the sender's timestamp back; replies are liveness-only input so
       they need no verification beyond the estimator's nonce filter. *)
    if adaptive p then send p ~dst:src (make_signed p (Message.Probe_reply { nonce; at }))
  | Message.Probe_reply { nonce; at } ->
    if adaptive p then
      Sof_net.Peer_rtt.note_reply p.rtt ~src ~nonce
        ~rtt:(Simtime.diff (p.ctx.Context.now ()) (Simtime.ns at))
  | Message.Fail_signal _ | Message.Back_log _ | Message.Start _ | Message.Start_ack _
  | Message.Start_tuples _ | Message.View_change _ | Message.New_view _ | Message.Unwilling _
  | Message.Pre_prepare _ | Message.Prepare _ | Message.Commit _ | Message.Bft_view_change _
  | Message.Bft_new_view _ ->
    () (* the core's coordinator replacement, or another protocol's traffic *)

(* ------------------------------------------------------------- requests *)

let on_request p (req : Request.t) =
  let key = req.Request.key in
  if (not (Pool.is_ordered p.pool key)) && not (Pool.mem p.pool key) then begin
    Pool.add p.pool ~arrival:(p.ctx.Context.now ()) req;
    (* A newly known request lets stashed endorsements re-validate and
       (re)arms the shadow's timeliness watch. *)
    if p.stashed_endorsements <> [] then retry_stashed p;
    if is_shadow p && Option.is_none p.watch_timer then rearm_shadow_watch p;
    advance_delivery p
  end
  else if not (Pool.mem p.pool key) then begin
    (* Already ordered: the body may be what a committed order waits on. *)
    Pool.add p.pool req;
    advance_delivery p
  end

let start p =
  if Option.is_some p.pair_rank then arm_heartbeat p;
  if is_primary p then arm_batch_timer p;
  match p.fault with
  | Fault.Spurious_fail_signal_at at when Option.is_some p.pair_rank ->
    (* Fail-signal abuse: accuse the innocent counterpart at the given
       instant (processes start at simulated time zero, so the instant and
       the timer delay coincide). *)
    ignore (p.ctx.Context.set_timer ~delay:at (fun () -> emit_fail_signal p ~value_domain:false))
  | _ -> ()

(* ------------------------------------------------------------- creation *)

(* Stands in between [create] and [attach]: the core's closures need the
   core's record, which holds this one. *)
let detached =
  {
    era = (fun () -> 1);
    rank_of = Fun.id;
    replacing = (fun () -> false);
    quorum = (fun () -> 0);
    dumb = (fun () -> false);
    pair_failed = (fun ~rank:_ ~value_domain:_ -> ());
    recover = ignore;
  }

let create ~caller ~variant ~ctx ~config ~fault ~counterpart_fail_signal =
  Config.require_variant config variant ~caller;
  let pid = ctx.Context.id in
  let pair_rank = Config.pair_rank_of config pid in
  (match (pair_rank, counterpart_fail_signal) with
  | Some _, None ->
    raise (Config.Invalid_config (caller ^ ": paired process needs counterpart_fail_signal"))
  | None, Some _ ->
    raise (Config.Invalid_config (caller ^ ": unpaired process cannot hold a fail-signal"))
  | _ -> ());
  {
    ctx;
    config;
    fault;
    counterpart_fail_signal;
    pair_rank;
    counterpart = Config.counterpart config pid;
    all_ids = Config.all_processes config;
    seam = detached;
    status = Up;
    fail_signalled = false;
    last_heard = Simtime.zero;
    heartbeat_timer = None;
    beat = 0;
    pool = Pool.create ();
    delivered_keys = Key_set.empty;
    view_ordered_keys = Key_set.empty;
    executed = Key_map.empty;
    orders = Hashtbl.create 64;
    max_committed = 0;
    committed_digest = "";
    committed_era = 0;
    committed_proof = [];
    delivered = 0;
    next_seq = 1;
    batch_timer = None;
    endorsement_watches = [];
    expected_seq = 1;
    last_progress = Simtime.zero;
    stashed_endorsements = [];
    watch_timer = None;
    start_covers = [];
    anchor_seen = 0;
    stash_future = [];
    failover_span = None;
    rcv = Recovery.create ();
    ckpt_proposals = [];
    ckpt_certs = [];
    rtt =
      Sof_net.Peer_rtt.create ~peers:(Config.process_count config)
        ~initial:config.Config.pair_delay_estimate;
    shadow_watch_level = 0;
    hb_level = 0;
    stash_retry_armed = false;
  }

let attach p seam = p.seam <- seam
