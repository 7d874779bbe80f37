module Simtime = Sof_sim.Simtime
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Key_set = Request.Key_set
module Int_set = Set.Make (Int)
module Estimator = Sof_net.Delay_estimator

(* Votes for one sequence number, keyed by digest: a vote is either being a
   signatory of the doubly-signed order or having sent a matching ack.  The
   proof tuples back the BackLog's "proof of commitment". *)
type votes = {
  mutable sources : Int_set.t;
  mutable proof : (int * string) list;
}

type order_state = {
  o : int;
  mutable digest : string;  (* authoritative once [have_order] *)
  mutable keys : Request.key list;
  mutable have_order : bool;
  mutable vote_c : int;  (* coordinator rank that produced the order *)
  mutable acked : bool;
  mutable committed : bool;
  mutable null : bool;  (* gap filler or Start placeholder: delivers nothing *)
  votes_by_digest : (string, votes) Hashtbl.t;
  (* trace spans currently open at this process for this order *)
  mutable sp_batch : bool;
  mutable sp_endorse : bool;
  mutable sp_order : bool;
  mutable sp_ack : bool;
}

type backlog_rec = {
  bl_failed_pair : int;
  bl_max_committed : int;
  bl_committed_digest : string;
  bl_proof_c : int;
  bl_proof : (int * string) list;
  bl_stable : Checkpoint.cert option;
  bl_uncommitted : Message.order_info list;
}

type t = {
  ctx : Context.t;
  config : Config.t;
  fault : Fault.t;
  counterpart_fail_signal : string option;
  pair_rank : int option;
  counterpart : int option;
  all_ids : int list;
  (* coordinator tracking *)
  mutable coord : int;
  mutable failed_pairs : Int_set.t;
  mutable dumbed_pairs : Int_set.t;
  mutable installing : bool;
  (* request pool *)
  pool : Pool.t;
  mutable delivered_keys : Key_set.t;
  mutable view_ordered_keys : Key_set.t;
      (* keys ordered under the current coordinator, for the shadow's
         double-ordering check; reset at each install *)
  mutable executed : Request.t Key_map.t;
      (* delivered request bodies, kept so the shadow can still verify a
         digest over re-proposed requests *)
  (* order log *)
  orders : (int, order_state) Hashtbl.t;
  mutable max_committed : int;
  mutable committed_digest : string;
  mutable committed_proof_c : int;
  mutable committed_proof : (int * string) list;
  mutable delivered : int;
  (* coordinator primary *)
  mutable next_seq : int;
  mutable batch_timer : Context.timer option;
  mutable endorsement_watches : (int * Context.timer) list;
  (* coordinator shadow *)
  mutable expected_seq : int;
  mutable last_progress : Simtime.t;  (* last endorsement made as shadow *)
  mutable stashed_endorsements : (Simtime.t * Message.envelope * Message.order_info) list;
      (* deferred Orders, kept with their decoded info so replay needs no
         re-dispatch *)
  mutable watch_timer : Context.timer option;
  (* pair liveness *)
  mutable pair_active : bool;
  mutable fail_signalled : bool;
  mutable last_heard : Simtime.t;
  mutable heartbeat_timer : Context.timer option;
  mutable beat : int;
  (* install *)
  backlogs_by_c : (int, (int * backlog_rec) list ref) Hashtbl.t;
  mutable start_env : Message.envelope option;
  mutable start_acks : (int * string) list;
  mutable have_tuples : bool;
  mutable sent_tuples : bool;
  mutable start_sent : bool;
  mutable start_covers : Message.order_info list;
  mutable anchor_seen : int;
      (* highest Start anchor installed: every sequence at or below it is
         proven committed somewhere, so late orders from superseded
         coordinators may still be adopted for those sequences (catch-up for
         a replica that lagged across the install) *)
  mutable stash_future : (int * Message.envelope) list;
  (* trace spans open at this process for fail-over accounting *)
  mutable failover_span : int option;
  mutable install_span : int option;
  (* checkpointing and state transfer *)
  rcv : Recovery.state;
  mutable ckpt_proposals : (Message.envelope * int * string) list;
      (* phase-1 checkpoint proposals from this pair's primary, stashed by
         the shadow until its own boundary image for that seq exists *)
  mutable ckpt_certs : Checkpoint.cert list;
      (* verified certificates awaiting this process's own boundary image *)
  (* adaptive timing (Config.Adaptive only; untouched in Static mode so
     seeded static runs keep the exact stream layout) *)
  rtt : Sof_net.Peer_rtt.t;
  mutable shadow_watch_level : int;  (* doublings on the shadow's stall budget *)
  mutable hb_level : int;  (* doublings on the heartbeat silence tolerance *)
  mutable stash_retry_armed : bool;
}

(* ------------------------------------------------------------ accessors *)

let id t = t.ctx.Context.id
let coordinator_rank t = t.coord
let max_committed t = t.max_committed
let delivered_seq t = t.delivered
let is_installing t = t.installing
let has_fail_signalled t = t.fail_signalled
let pending_requests t = Pool.size t.pool

let live_f t = t.config.Config.f - Int_set.cardinal t.dumbed_pairs

let quorum t =
  Config.process_count t.config - t.config.Config.f - Int_set.cardinal t.dumbed_pairs

let dumb_ids t =
  Int_set.fold
    (fun r acc ->
      List.fold_left (fun acc m -> Int_set.add m acc) acc (Config.candidate_members t.config r))
    t.dumbed_pairs Int_set.empty

let is_dumb t = Int_set.mem (id t) (dumb_ids t)

let i_am_coordinator_primary t =
  (not t.installing) && Int.equal (id t) (Config.primary_of_pair t.config t.coord)

let coordinator_is_pair t = Config.candidate_is_pair t.config t.coord

let i_am_coordinator_shadow t =
  (not t.installing) && coordinator_is_pair t
  && Int.equal (id t) (Config.shadow_of_pair t.config t.coord)

let null_digest t = Batch.digest t.config.Config.digest (Batch.make [])

(* --------------------------------------------------------- transmission *)

let can_transmit t =
  (not (is_dumb t)) && not (Fault.is_mute t.fault ~now:(t.ctx.Context.now ()))

let send t ~dst env = if can_transmit t then t.ctx.Context.send ~dst env

let multicast t ~dsts env = if can_transmit t then t.ctx.Context.multicast ~dsts env

let others t = List.filter (fun p -> not (Int.equal p (id t))) t.all_ids

(* Accountable bodies (orders, fail-signals, checkpoints) are signed with
   the transferable mechanism; everything else uses the wire mode, which
   may be a cheap MAC authenticator vector. *)
let signer_for t body =
  if Message.accountable_body body then t.ctx.Context.sign_acc
  else t.ctx.Context.sign

let verifier_for t body =
  if Message.accountable_body body then t.ctx.Context.verify_acc
  else t.ctx.Context.verify

let make_signed t body =
  let payload = Message.encode_body body in
  {
    Message.sender = id t;
    body;
    signature = signer_for t body payload;
    endorsement = None;
  }

(* ------------------------------------------------------ adaptive timing *)

let adaptive t =
  match t.config.Config.timing with Config.Adaptive -> true | Config.Static -> false

(* The deadline standing in for the static differential-delay bound.  In
   adaptive mode it is the counterpart link's Jacobson deadline; a round
   trip upper-bounds the one-way differential, so the substitution is
   conservative — it can only delay a time-domain fail-signal, never forge
   evidence (timers gate accusations, not safety). *)
let pair_estimate t =
  match (t.config.Config.timing, t.counterpart) with
  | Config.Static, _ | _, None -> t.config.Config.pair_delay_estimate
  | Config.Adaptive, Some cp -> Estimator.timeout (Sof_net.Peer_rtt.estimator t.rtt cp)

(* Hard cap on any backed-off retry timer: 64x the configured estimate
   keeps degraded-mode detection latency finite. *)
let timer_cap t = Simtime.ns (64 * Simtime.to_ns t.config.Config.pair_delay_estimate)

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
let budget_at t ~level =
  Estimator.backed_off (pair_estimate t) ~level ~cap:(timer_cap t)

(* True while backing off further is allowed; once the budget has walked to
   the cap the next miss is an accusation. *)
let can_back_off t ~level =
  adaptive t && Simtime.compare (budget_at t ~level) (timer_cap t) < 0

let send_probe t dst =
  let nonce = Sof_net.Peer_rtt.next_nonce t.rtt in
  let at = Simtime.to_ns (t.ctx.Context.now ()) in
  send t ~dst (make_signed t (Message.Probe { nonce; at }))

let endorse t (env : Message.envelope) =
  let payload = Message.endorsement_payload env.Message.body env.Message.signature in
  { env with Message.endorsement = Some (id t, signer_for t env.Message.body payload) }

(* Verify every signature an envelope carries. *)
let authentic t (env : Message.envelope) =
  let payload = Message.encode_body env.Message.body in
  let verify = verifier_for t env.Message.body in
  verify ~signer:env.Message.sender ~msg:payload
    ~signature:env.Message.signature
  && begin
       match env.Message.endorsement with
       | None -> true
       | Some (who, s) ->
         not (Int.equal who env.Message.sender)
         && verify ~signer:who
              ~msg:(Message.endorsement_payload env.Message.body env.Message.signature)
              ~signature:s
     end

(* Is this envelope doubly-signed by exactly the members of pair [rank]? *)
let doubly_signed_by_pair t ~rank (env : Message.envelope) =
  Config.candidate_is_pair t.config rank
  && begin
       match env.Message.endorsement with
       | None -> false
       | Some (who, _) ->
         let members = Config.candidate_members t.config rank in
         List.mem env.Message.sender members && List.mem who members
     end

(* An order from candidate [rank] is acceptable when doubly-signed by the
   pair, or singly-signed when the candidate is SC's final unpaired
   process (which, by SC2 and the ranking argument, must be non-faulty when
   it coordinates). *)
let valid_coordinator_message t ~rank (env : Message.envelope) =
  if Config.candidate_is_pair t.config rank then doubly_signed_by_pair t ~rank env
  else
    env.Message.endorsement = None
    && Int.equal env.Message.sender (Config.primary_of_pair t.config rank)

(* ----------------------------------------------------------- order log *)

let get_order t o =
  match Hashtbl.find_opt t.orders o with
  | Some st -> st
  | None ->
    let st =
      {
        o;
        digest = "";
        keys = [];
        have_order = false;
        vote_c = 0;
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
    Hashtbl.replace t.orders o st;
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

(* ---------------------------------------------------------- trace spans *)
(* [Context.emit] costs no simulated CPU, so span instrumentation cannot
   perturb seeded trajectories.  Each sp_* flag means "open at this
   process"; a close is only ever emitted when the flag is set, so spans
   balance whenever the order commits locally. *)

let span_open t phase seq = t.ctx.Context.emit (Context.Span_open { phase; seq })
let span_close t phase seq = t.ctx.Context.emit (Context.Span_close { phase; seq })

let open_batch_span t st =
  if (not st.sp_batch) && not st.committed then begin
    st.sp_batch <- true;
    span_open t Context.Batch_phase st.o
  end

let open_endorse_span t st =
  if st.sp_batch && not st.sp_endorse then begin
    st.sp_endorse <- true;
    span_open t Context.Endorse_phase st.o
  end

let close_endorse_span t st =
  if st.sp_endorse then begin
    st.sp_endorse <- false;
    span_close t Context.Endorse_phase st.o
  end

let open_order_span t st =
  if st.sp_batch && not st.sp_order then begin
    st.sp_order <- true;
    span_open t Context.Order_phase st.o
  end

let ack_span_transition t st =
  if st.sp_order then begin
    st.sp_order <- false;
    span_close t Context.Order_phase st.o
  end;
  if st.sp_batch && not st.sp_ack then begin
    st.sp_ack <- true;
    span_open t Context.Ack_phase st.o
  end

let close_batch_spans t st =
  close_endorse_span t st;
  if st.sp_order then begin
    st.sp_order <- false;
    span_close t Context.Order_phase st.o
  end;
  if st.sp_ack then begin
    st.sp_ack <- false;
    span_close t Context.Ack_phase st.o
  end;
  if st.sp_batch then begin
    st.sp_batch <- false;
    span_close t Context.Batch_phase st.o
  end

(* ------------------------------------------------- checkpointing (SC) *)
(* Pair-endorsed stable checkpoints: the coordinator primary signs its state
   digest at each boundary and its shadow endorses after comparing against
   its own boundary image — at most one pair member is faulty, so the double
   signature carries at least one correct process's word for the digest.
   SC's unpaired last candidate certifies with a single signature: by the
   sequential-failure assumption it is correct whenever it coordinates. *)

let log_length t = Hashtbl.length t.orders

let stable_checkpoint_seq t = Recovery.stable_seq t.rcv
let latest_stable t = Recovery.latest_stable t.rcv
let client_marks t = Recovery.marks t.rcv

let ckpt_pair_ok t ~primary ~endorser =
  let ranks = List.init (Config.candidate_count t.config) (fun i -> i + 1) in
  match endorser with
  | Some s ->
    List.exists
      (fun r ->
        Config.candidate_is_pair t.config r
        &&
        let members = Config.candidate_members t.config r in
        List.mem primary members && List.mem s members && not (Int.equal primary s))
      ranks
  | None ->
    List.exists
      (fun r ->
        (not (Config.candidate_is_pair t.config r))
        && Int.equal primary (Config.primary_of_pair t.config r))
      ranks

let ckpt_scheme t = Recovery.Pair_endorsed { pair_ok = ckpt_pair_ok t }

let cert_of_ckpt_env (env : Message.envelope) ~seq ~digest =
  {
    Checkpoint.cp_seq = seq;
    cp_digest = digest;
    cp_proof = [ (env.Message.sender, env.Message.signature) ];
    cp_endorsement = env.Message.endorsement;
  }

let truncate t upto =
  let stale = Hashtbl.fold (fun o _ acc -> if o <= upto then o :: acc else acc) t.orders [] in
  List.iter (Hashtbl.remove t.orders) stale;
  (* Keep one extra interval of delivered keys so a coordinator installed
     late that re-orders a just-delivered request is still deduplicated. *)
  List.iter
    (fun (req : Request.t) ->
      t.delivered_keys <- Key_set.remove req.Request.key t.delivered_keys;
      Pool.unmark t.pool req.Request.key;
      t.executed <- Key_map.remove req.Request.key t.executed)
    (Recovery.prune_delivered t.rcv ~upto:(upto - t.config.Config.checkpoint_interval));
  t.ctx.Context.emit (Context.Log_truncated { upto; retained = Hashtbl.length t.orders })

(* A verified certificate becomes stable here once our own boundary image
   for that seq exists and matches; a cert running ahead of our delivery
   waits in [ckpt_certs] for the boundary to catch up. *)
let ckpt_adopt_cert t (cert : Checkpoint.cert) =
  let seq = cert.Checkpoint.cp_seq in
  if seq > Recovery.stable_seq t.rcv then begin
    match Recovery.image_at t.rcv ~seq with
    | Some image
      when String.equal
             (Checkpoint.image_digest t.config.Config.digest image)
             cert.Checkpoint.cp_digest ->
      if Recovery.note_stable t.rcv ~cert ~image then begin
        t.ctx.Context.emit
          (Context.Checkpoint_stable { seq; digest = cert.Checkpoint.cp_digest });
        span_close t Context.Checkpoint_phase seq;
        truncate t seq
      end
    | Some _ ->
      (* A certified digest that disagrees with our own image: not a state we
         can serve; ignore (a lagging or diverged replica recovers through
         state transfer instead). *)
      ()
    | None ->
      if not (List.exists (fun c -> Checkpoint.equal_cert c cert) t.ckpt_certs) then
        t.ckpt_certs <- cert :: t.ckpt_certs
  end

(* Shadow side of a phase-1 checkpoint proposal: endorse only when the
   primary's digest matches our own image for that boundary.  A mismatch is
   refused rather than fail-signalled — checkpoint certification is a
   liveness aid, and refusing keeps a diverged digest from being certified. *)
let shadow_handle_checkpoint t (env : Message.envelope) ~seq ~digest =
  match Recovery.image_at t.rcv ~seq with
  | Some image ->
    if String.equal (Checkpoint.image_digest t.config.Config.digest image) digest
    then begin
      let endorsed = endorse t env in
      multicast t ~dsts:(others t) endorsed;
      ckpt_adopt_cert t (cert_of_ckpt_env endorsed ~seq ~digest)
    end
  | None ->
    if seq > t.delivered then
      t.ckpt_proposals <- (env, seq, digest) :: t.ckpt_proposals

let retry_ckpt_stash t =
  let proposals = t.ckpt_proposals in
  t.ckpt_proposals <- [];
  List.iter
    (fun (env, seq, digest) ->
      if seq > Recovery.stable_seq t.rcv then begin
        match Recovery.image_at t.rcv ~seq with
        | Some _ -> shadow_handle_checkpoint t env ~seq ~digest
        | None -> t.ckpt_proposals <- (env, seq, digest) :: t.ckpt_proposals
      end)
    proposals;
  let certs = t.ckpt_certs in
  t.ckpt_certs <- [];
  List.iter (fun cert -> ckpt_adopt_cert t cert) certs

let checkpoint_boundary t o =
  let image =
    Checkpoint.wrap_image ~state:(t.ctx.Context.snapshot ()) ~marks:(Recovery.marks t.rcv)
  in
  t.ctx.Context.digest_charge (String.length image);
  let digest = Checkpoint.image_digest t.config.Config.digest image in
  Recovery.note_image t.rcv ~seq:o ~image;
  span_open t Context.Checkpoint_phase o;
  if i_am_coordinator_primary t then begin
    let env = make_signed t (Message.Checkpoint { seq = o; digest }) in
    if coordinator_is_pair t then
      (* Phase 1: 1-to-1 to the shadow for endorsement. *)
      send t ~dst:(Config.shadow_of_pair t.config t.coord) env
    else begin
      (* Unpaired coordinator: singleton certificate straight to everyone. *)
      multicast t ~dsts:(others t) env;
      ckpt_adopt_cert t (cert_of_ckpt_env env ~seq:o ~digest)
    end
  end;
  retry_ckpt_stash t

(* ------------------------------------------------------------- delivery *)

let rec advance_delivery t =
  match Hashtbl.find_opt t.orders (t.delivered + 1) with
  | None -> ()
  | Some st when not st.committed -> ()
  | Some st ->
    if st.null || st.keys = [] then begin
      t.delivered <- st.o;
      let batch = Batch.make [] in
      t.ctx.Context.deliver ~seq:st.o batch;
      t.ctx.Context.emit (Context.Delivered { seq = st.o; batch });
      if t.config.Config.checkpoint_interval > 0 then begin
        Recovery.note_delivered t.rcv ~seq:st.o [];
        if Checkpoint.is_boundary ~interval:t.config.Config.checkpoint_interval st.o then
          checkpoint_boundary t st.o
      end;
      advance_delivery t
    end
    else begin
      (* At-most-once: a coordinator that lagged across an install may
         re-order requests an earlier coordinator already committed.  Honest
         processes agree on the committed prefix, so they prune the same
         already-delivered keys and execute identical sub-batches. *)
      let fresh =
        List.filter
          (fun k ->
            (not (Key_set.mem k t.delivered_keys))
            && (t.config.Config.checkpoint_interval = 0 || Recovery.fresh_key t.rcv k))
          st.keys
      in
      let requests = List.filter_map (Pool.find t.pool) fresh in
      if Int.equal (List.length requests) (List.length fresh) then begin
        t.delivered <- st.o;
        List.iter
          (fun k ->
            t.delivered_keys <- Key_set.add k t.delivered_keys;
            if t.config.Config.checkpoint_interval > 0 then
              Recovery.mark_delivered t.rcv k;
            (match Pool.find t.pool k with
            | Some r -> t.executed <- Key_map.add k r t.executed
            | None -> ());
            Pool.remove t.pool k)
          st.keys;
        let batch = Batch.make requests in
        t.ctx.Context.deliver ~seq:st.o batch;
        t.ctx.Context.emit (Context.Delivered { seq = st.o; batch });
        if t.config.Config.checkpoint_interval > 0 then begin
          Recovery.note_delivered t.rcv ~seq:st.o requests;
          if Checkpoint.is_boundary ~interval:t.config.Config.checkpoint_interval st.o then
            checkpoint_boundary t st.o
        end;
        advance_delivery t
      end
      (* else: some requests not here yet; clients broadcast to all over a
         reliable network, so they will arrive and retrigger delivery. *)
    end

let record_commit t st =
  if not st.committed then begin
    close_batch_spans t st;
    st.committed <- true;
    if st.o > t.max_committed then begin
      t.max_committed <- st.o;
      t.committed_digest <- st.digest;
      t.committed_proof_c <- st.vote_c;
      t.committed_proof <-
        (match Hashtbl.find_opt st.votes_by_digest st.digest with
        | Some v -> v.proof
        | None -> [])
    end;
    t.ctx.Context.emit (Context.Committed { seq = st.o; digest = st.digest; keys = st.keys });
    advance_delivery t
  end

let try_commit t st =
  if st.have_order && not st.committed then begin
    let v = votes_for st st.digest in
    if Int_set.cardinal v.sources >= quorum t then begin
      record_commit t st;
      (* Committing the Start placeholder commits everything it covers. *)
      if st.null && t.start_covers <> [] then begin
        let covered = t.start_covers in
        t.start_covers <- [];
        List.iter
          (fun (info : Message.order_info) ->
            let cst = get_order t info.Message.o in
            if not cst.committed then begin
              cst.have_order <- true;
              cst.digest <- info.Message.digest;
              cst.keys <- info.Message.keys;
              record_commit t cst
            end)
          covered
      end;
      advance_delivery t
    end
  end

(* --------------------------------------------------------------- acking *)

let send_ack t st =
  if st.have_order && not st.acked then begin
    st.acked <- true;
    ack_span_transition t st;
    let body = Message.Ack { c = st.vote_c; o = st.o; digest = st.digest } in
    let env = make_signed t body in
    multicast t ~dsts:t.all_ids env
  end

(* Process an authentic order from the current coordinator (doubly-signed
   for pairs, singly-signed for the unpaired last candidate). *)
let accept_order t (env : Message.envelope) ~c ~(info : Message.order_info) =
  let st = get_order t info.Message.o in
  if st.have_order then begin
    (* Duplicate (the 2-to-n phase delivers two copies); votes still count. *)
    if String.equal st.digest info.Message.digest then begin
      add_vote st ~digest:st.digest ~source:env.Message.sender
        ~signature:env.Message.signature;
      (match env.Message.endorsement with
      | Some (who, s) -> add_vote st ~digest:st.digest ~source:who ~signature:s
      | None -> ());
      send_ack t st;
      try_commit t st
    end
    (* Conflicting doubly-signed orders would mean both pair members failed
       — outside the fault model; first writer wins. *)
  end
  else begin
    st.have_order <- true;
    st.digest <- info.Message.digest;
    st.keys <- info.Message.keys;
    st.vote_c <- c;
    open_batch_span t st;
    close_endorse_span t st;
    open_order_span t st;
    if info.Message.keys = [] then st.null <- true;
    List.iter (Pool.mark_ordered t.pool) info.Message.keys;
    add_vote st ~digest:st.digest ~source:env.Message.sender
      ~signature:env.Message.signature;
    (match env.Message.endorsement with
    | Some (who, s) -> add_vote st ~digest:st.digest ~source:who ~signature:s
    | None -> ());
    send_ack t st;
    try_commit t st
  end

(* ---------------------------------------------- state transfer (SC) *)

module Lifecycle = Recovery.Lifecycle (struct
  type nonrec t = t

  let ctx t = t.ctx
  let rcv t = t.rcv
  let f t = t.config.Config.f
  let digest t = t.config.Config.digest
  let fault t = t.fault
  let scheme = ckpt_scheme
  let envelope = make_signed
  let send = send
  let multicast = multicast
  let others = others
  let adaptive = adaptive
  let timer_cap = timer_cap
  let fetch_retry_base t = Simtime.add t.config.Config.heartbeat_interval (pair_estimate t)
  let delivered t = t.delivered

  let committed_tail t ~base =
    Hashtbl.fold
      (fun o st acc ->
        if o <= t.delivered || o <= base || not st.committed then acc
        else
          let requests = List.filter_map (Pool.find t.pool) st.keys in
          if Int.equal (List.length requests) (List.length st.keys) then
            Recovery.batch_entry t.ctx t.config.Config.digest ~o requests :: acc
          else acc)
      t.orders []

  let adopt_entry t (e : Checkpoint.entry) =
    let st = get_order t e.Checkpoint.e_o in
    if not st.committed then begin
      st.have_order <- true;
      st.digest <- e.Checkpoint.e_digest;
      st.keys <- List.map (fun (r : Request.t) -> r.Request.key) e.Checkpoint.e_requests;
      if e.Checkpoint.e_requests = [] then st.null <- true;
      st.committed <- true;
      List.iter
        (fun (r : Request.t) ->
          Pool.mark_ordered t.pool r.Request.key;
          if
            (not (Pool.mem t.pool r.Request.key))
            && not (Key_set.mem r.Request.key t.delivered_keys)
          then Pool.add t.pool r)
        e.Checkpoint.e_requests;
      if st.o > t.max_committed then t.max_committed <- st.o
    end

  let move_to_image t ~seq =
    t.delivered <- seq;
    if t.max_committed < seq then t.max_committed <- seq;
    truncate t seq

  let advance_delivery = advance_delivery
  let fence_minting t = if t.next_seq <= t.max_committed then t.next_seq <- t.max_committed + 1
end)

let request_recovery = Lifecycle.request_recovery
let recover_local = Lifecycle.recover_local

(* ---------------------------------------------------- pair fail-signals *)

let cancel_pair_timers t =
  (match t.watch_timer with Some h -> h.Context.cancel () | None -> ());
  t.watch_timer <- None;
  (match t.heartbeat_timer with Some h -> h.Context.cancel () | None -> ());
  t.heartbeat_timer <- None;
  List.iter (fun (_, h) -> h.Context.cancel ()) t.endorsement_watches;
  t.endorsement_watches <- []

let rec emit_fail_signal t ~value_domain =
  match (t.pair_rank, t.counterpart_fail_signal, t.counterpart) with
  | _ when t.fault = Fault.Withhold_fail_signal ->
    (* Saboteur: sit on the evidence.  Detection must come from the other
       member's signal or from the receivers' own timeouts. *)
    ()
  | Some rank, Some presig, Some cp when (not t.fail_signalled) && t.pair_active ->
    t.fail_signalled <- true;
    t.pair_active <- false;
    cancel_pair_timers t;
    (match t.batch_timer with Some h -> h.Context.cancel () | None -> ());
    t.batch_timer <- None;
    let body = Message.Fail_signal { pair = rank } in
    let env =
      { Message.sender = cp; body; signature = presig; endorsement = None }
    in
    let env = endorse t env in
    t.ctx.Context.emit (Context.Fail_signal_emitted { pair = rank; value_domain });
    if value_domain then t.ctx.Context.emit (Context.Value_fault_detected { pair = rank });
    multicast t ~dsts:(others t) env;
    note_pair_failed t rank
  | _ -> ()

and note_pair_failed t rank =
  if not (Int_set.mem rank t.failed_pairs) then begin
    t.failed_pairs <- Int_set.add rank t.failed_pairs;
    t.ctx.Context.emit (Context.Fail_signal_observed { pair = rank });
    (* Member of the pair that hasn't signalled yet: join in (the paper's
       rule that receiving the counterpart's fail-signal makes you emit
       yours). *)
    (match t.pair_rank with
    | Some r when Int.equal r rank && not t.fail_signalled -> emit_fail_signal t ~value_domain:false
    | Some _ | None -> ());
    if Int.equal rank t.coord then begin
      if t.failover_span = None then begin
        t.failover_span <- Some rank;
        span_open t Context.Failover_phase rank
      end;
      begin_install t
    end
  end

(* ----------------------------------------------------------- install *)

and begin_install t =
  let rec next_candidate r =
    if r > Config.candidate_count t.config then r (* exhausted: f faults already *)
    else if Int_set.mem r t.failed_pairs then next_candidate (r + 1)
    else r
  in
  let failed = t.coord in
  t.coord <- next_candidate (t.coord + 1);
  (match t.install_span with
  | Some r -> span_close t Context.Install_phase r
  | None -> ());
  t.install_span <- Some t.coord;
  span_open t Context.Install_phase t.coord;
  t.installing <- true;
  t.start_env <- None;
  t.start_acks <- [];
  t.have_tuples <- false;
  t.sent_tuples <- false;
  t.start_sent <- false;
  (match t.watch_timer with Some h -> h.Context.cancel () | None -> ());
  t.watch_timer <- None;
  (match t.batch_timer with Some h -> h.Context.cancel () | None -> ());
  t.batch_timer <- None;
  (* Messages stashed for this epoch (e.g. backlogs that raced ahead of the
     fail-signal) become processable now. *)
  let stash = List.rev t.stash_future in
  t.stash_future <- [];
  let replay () = List.iter (fun (src, env) -> on_message t ~src env) stash in
  (* IN1: multicast BackLog.  The watermark this process can PROVE to the
     new coordinator: its ack proof when it survived, else its stable
     checkpoint certificate (the durable proof a crash-restarted replica
     still holds).  Orders known above that provable point are listed even
     if locally committed — a replica that remembers a commit whose proof
     died with a crash must re-offer it, or the install would null-fill
     the sequence and diverge from the delivered history. *)
  let stable = Option.map fst (Recovery.latest_stable t.rcv) in
  let provable =
    if t.committed_proof <> [] then t.max_committed
    else
      match stable with Some c -> c.Checkpoint.cp_seq | None -> 0
  in
  let uncommitted =
    Hashtbl.fold
      (fun o st acc ->
        if st.have_order && o > provable then
          { Message.o; digest = st.digest; keys = st.keys } :: acc
        else acc)
      t.orders []
    |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
  in
  let body =
    Message.Back_log
      {
        c = t.coord;
        failed_pair = failed;
        max_committed = t.max_committed;
        committed_digest = t.committed_digest;
        proof_c = t.committed_proof_c;
        proof = t.committed_proof;
        stable;
        uncommitted;
      }
  in
  let env = make_signed t body in
  multicast t ~dsts:(others t) env;
  store_backlog t ~src:(id t)
    {
      bl_failed_pair = failed;
      bl_max_committed = t.max_committed;
      bl_committed_digest = t.committed_digest;
      bl_proof_c = t.committed_proof_c;
      bl_proof = t.committed_proof;
      bl_stable = stable;
      bl_uncommitted = uncommitted;
    };
  replay ()

and store_backlog t ~src rec_ =
  let cell =
    match Hashtbl.find_opt t.backlogs_by_c t.coord with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace t.backlogs_by_c t.coord cell;
      cell
  in
  if not (List.mem_assoc src !cell) then begin
    cell := (src, rec_) :: !cell;
    maybe_send_start t
  end

(* IN2 at the new coordinator primary: compute NewBackLog and Start. *)
and maybe_send_start t =
  let am_new_primary =
    t.installing && Int.equal (id t) (Config.primary_of_pair t.config t.coord)
  in
  if am_new_primary && not t.start_sent then begin
    match Hashtbl.find_opt t.backlogs_by_c t.coord with
    | Some cell when List.length !cell >= quorum t ->
      t.start_sent <- true;
      let backlogs = List.map snd !cell in
      let start_o, anchor, new_back_log = compute_new_back_log t backlogs in
      let body = Message.Start { c = t.coord; start_o; anchor; new_back_log } in
      let env = make_signed t body in
      if Config.candidate_is_pair t.config t.coord then
        (* 1-signed to the shadow for endorsement. *)
        send t ~dst:(Config.shadow_of_pair t.config t.coord) env
      else begin
        (* The unpaired last candidate multicasts directly. *)
        multicast t ~dsts:(others t) env;
        handle_start t env ~c:t.coord
      end
    | Some _ | None -> ()
  end

and compute_new_back_log t backlogs =
  (* Anchor: the highest proven committed sequence number. *)
  let anchor =
    List.fold_left (fun acc b -> max acc b.bl_max_committed) 0 backlogs
  in
  (* Candidate uncommitted orders above the anchor, grouped by (o, digest)
     with their support counts.  The paper's principle: an order possibly
     committed by a correct process appears in at least f+1 of any (n-f)
     backlogs, so the best-supported digest is the only safe choice. *)
  let support : (int * string, int * Message.order_info) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun b ->
      List.iter
        (fun (info : Message.order_info) ->
          if info.Message.o > anchor then begin
            let key = (info.Message.o, info.Message.digest) in
            match Hashtbl.find_opt support key with
            | Some (n, i) -> Hashtbl.replace support key (n + 1, i)
            | None -> Hashtbl.replace support key (1, info)
          end)
        b.bl_uncommitted)
    backlogs;
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
  (* Fill holes with null orders so delivery never stalls. *)
  let nd = null_digest t in
  let filled =
    List.init (start_o - anchor - 1) (fun idx ->
        let o = anchor + 1 + idx in
        match List.find_opt (fun (i : Message.order_info) -> Int.equal i.Message.o o) chosen with
        | Some info -> info
        | None -> { Message.o; digest = nd; keys = [] })
  in
  (start_o, anchor, filled)

(* Shadow of the new coordinator: verify the primary's Start against the
   backlogs received directly (the paper's p'c verification), endorse and
   multicast. *)
and handle_start_proposal t (env : Message.envelope) ~start_o ~anchor ~new_back_log =
  let my_backlogs =
    match Hashtbl.find_opt t.backlogs_by_c t.coord with
    | Some cell -> List.map snd !cell
    | None -> []
  in
  (* The primary may have seen commits we did not (its backlog quorum need
     not include ours), so the anchor may legitimately sit below our own
     max_committed; what the Start must never do is contradict an order we
     know committed or conflict with an (f+1)-supported digest. *)
  let commits_preserved =
    let rec check o =
      o > t.max_committed
      || begin
           (match Hashtbl.find_opt t.orders o with
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
               (fun b ->
                 List.exists
                   (fun (i : Message.order_info) ->
                     Int.equal i.Message.o info.Message.o
                     && not (String.equal i.Message.digest info.Message.digest))
                   b.bl_uncommitted)
               my_backlogs
           in
           List.length competing < t.config.Config.f + 1)
         new_back_log
  in
  if plausible then begin
    let endorsed = endorse t env in
    multicast t ~dsts:(others t) endorsed;
    (* Only reachable under the dispatch guard [c = t.coord]. *)
    handle_start t endorsed ~c:t.coord
  end
  else emit_fail_signal t ~value_domain:true

and handle_start t (env : Message.envelope) ~c =
  if Int.equal c t.coord && t.installing && Option.is_none t.start_env then begin
    t.start_env <- Some env;
    (* IN3: sign the Start and send the identifier-signature tuple to the
       new coordinator (skipped when f-effective is 1). *)
    let members = Config.candidate_members t.config c in
    if live_f t > 1 && not (List.mem (id t) members) then begin
      let start_digest = start_digest_of t env in
      let body = Message.Start_ack { c; start_digest } in
      let ack = make_signed t body in
      List.iter (fun m -> send t ~dst:m ack) members
    end;
    try_finish_install t
  end

and start_digest_of t (env : Message.envelope) =
  let payload = Message.encode_body env.Message.body in
  t.ctx.Context.digest_charge (String.length payload);
  Sof_crypto.Digest_alg.digest t.config.Config.digest payload

and handle_start_ack t (env : Message.envelope) ~c ~start_digest =
  let members = Config.candidate_members t.config c in
  if
    t.installing && Int.equal c t.coord
    && List.mem (id t) members
    && (not (List.mem env.Message.sender members))
    && not (List.mem_assoc env.Message.sender t.start_acks)
  then begin
    (* Only count tuples that match our own Start. *)
    let matches =
      match t.start_env with
      | Some start -> String.equal (start_digest_of t start) start_digest
      | None -> false
    in
    if matches then begin
      t.start_acks <- (env.Message.sender, env.Message.signature) :: t.start_acks;
      if List.length t.start_acks >= live_f t - 1 && not t.sent_tuples then begin
        t.sent_tuples <- true;
        let body = Message.Start_tuples { c; tuples = t.start_acks } in
        let env' = make_signed t body in
        multicast t ~dsts:(others t) env';
        t.have_tuples <- true;
        try_finish_install t
      end
    end
  end

and handle_start_tuples t (env : Message.envelope) ~c ~tuples =
  ignore env;
  if t.installing && Int.equal c t.coord && not t.have_tuples then begin
    match t.start_env with
    | None -> () (* Start not here yet; tuples will be re-derived from stash *)
    | Some start ->
      let start_digest = start_digest_of t start in
      let body_bytes =
        Message.encode_body (Message.Start_ack { c; start_digest })
      in
      let members = Config.candidate_members t.config c in
      let valid =
        List.filter
          (fun (signer, signature) ->
            (not (List.mem signer members))
            && t.ctx.Context.verify ~signer ~msg:body_bytes ~signature)
          tuples
      in
      let distinct = List.sort_uniq Int.compare (List.map fst valid) in
      if List.length distinct >= live_f t - 1 then begin
        t.have_tuples <- true;
        try_finish_install t
      end
  end

and try_finish_install t =
  if t.installing then begin
    (* [t.start_env] only ever stores a Start (handle_start is the sole
       writer), so destructuring here keeps finish_install total. *)
    match t.start_env with
    | Some
        ({ Message.body = Message.Start { c; start_o; anchor; new_back_log }; _ }
         as start_env)
      when live_f t <= 1 || t.have_tuples ->
      finish_install t start_env ~c ~start_o ~anchor ~new_back_log
    | Some _ | None -> ()
  end

and finish_install t (start_env : Message.envelope) ~c ~start_o ~anchor ~new_back_log =
  t.installing <- false;
  (* First optimisation (Section 4.3): every passed-over pair turns dumb;
     n shrinks by 2 and f by 1 per pair. *)
  if t.config.Config.dumb_optimization then
    t.dumbed_pairs <- Int_set.filter (fun r -> r < t.coord) t.failed_pairs;
  (* Adopt the NewBackLog. *)
  t.start_covers <- List.filter (fun (i : Message.order_info) -> i.Message.o > t.max_committed) new_back_log;
  List.iter
    (fun (info : Message.order_info) ->
      (* Below the stable checkpoint the log is truncated and settled; the
         back-log must not resurrect those sequences. *)
      if info.Message.o > Recovery.stable_seq t.rcv then begin
        let st = get_order t info.Message.o in
        if not st.committed then begin
          st.have_order <- true;
          st.digest <- info.Message.digest;
          st.keys <- info.Message.keys;
          st.vote_c <- c;
          if info.Message.keys = [] then st.null <- true;
          List.iter (Pool.mark_ordered t.pool) info.Message.keys
        end
      end)
    new_back_log;
  if anchor > t.anchor_seen then t.anchor_seen <- anchor;
  (* The Start itself is an order at start_o (step IN5). *)
  let start_digest = start_digest_of t start_env in
  let st = get_order t start_o in
  if not st.committed then begin
    st.have_order <- true;
    st.digest <- start_digest;
    st.keys <- [];
    st.null <- true;
    st.vote_c <- c;
    add_vote st ~digest:start_digest ~source:start_env.Message.sender
      ~signature:start_env.Message.signature;
    (match start_env.Message.endorsement with
    | Some (who, s) -> add_vote st ~digest:start_digest ~source:who ~signature:s
    | None -> ())
  end;
  (* New coordinator roles. *)
  if Int.equal (id t) (Config.primary_of_pair t.config t.coord) && not (is_dumb t) then begin
    t.next_seq <- start_o + 1;
    arm_batch_timer t
  end;
  if
    Config.candidate_is_pair t.config t.coord
    && Int.equal (id t) (Config.shadow_of_pair t.config t.coord)
  then begin
    t.expected_seq <- start_o + 1;
    t.last_progress <- t.ctx.Context.now ()
  end;
  t.view_ordered_keys <- Key_set.empty;
  (* Stashed endorsements are from the superseded era; anything still
     legitimate is covered by the install's back-log. *)
  t.stashed_endorsements <- [];
  (match t.install_span with
  | Some r ->
    t.install_span <- None;
    span_close t Context.Install_phase r
  | None -> ());
  (match t.failover_span with
  | Some r ->
    t.failover_span <- None;
    span_close t Context.Failover_phase r
  | None -> ());
  t.ctx.Context.emit (Context.Coordinator_installed { rank = t.coord });
  (* An anchor beyond our delivery point proves the cluster committed
     sequences we will never see retransmitted (the rememberers may have
     truncated them behind a stable checkpoint): catch up through state
     transfer rather than stalling delivery for the whole new era. *)
  if t.delivered < anchor then request_recovery t;
  (* Ack the Start through the normal part. *)
  send_ack t st;
  try_commit t st;
  (* Replay messages that raced ahead of this install. *)
  let stash = List.rev t.stash_future in
  t.stash_future <- [];
  List.iter (fun (src, env) -> on_message t ~src env) stash

(* ------------------------------------------------------ normal batching *)

and arm_batch_timer t =
  let h =
    t.ctx.Context.set_timer ~delay:t.config.Config.batching_interval (fun () ->
        batch_tick t)
  in
  t.batch_timer <- Some h

and batch_tick t =
  if i_am_coordinator_primary t && pair_active_or_unpaired t then begin
    if Pool.has_unordered t.pool then issue_batch t;
    arm_batch_timer t
  end

and pair_active_or_unpaired t =
  (* The unpaired candidate has no pair to lose; pairs batch only while the
     collaboration is alive. *)
  match t.pair_rank with None -> true | Some _ -> t.pair_active

and issue_batch t =
  let requests = Pool.take_oldest t.pool ~limit:t.config.Config.batch_size_limit in
  let batch = Batch.make requests in
  let o = t.next_seq in
  t.next_seq <- o + 1;
  t.ctx.Context.digest_charge (Batch.encoded_size batch);
  let digest = Batch.digest t.config.Config.digest batch in
  let digest =
    match t.fault with
    | Fault.Corrupt_digest_at at when Int.equal at o ->
      (* Value-domain fault: lie about the batch's contents. *)
      let b = Bytes.of_string digest in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      Bytes.to_string b
    | _ -> digest
  in
  let keys = Batch.keys batch in
  List.iter (Pool.mark_ordered t.pool) keys;
  let info = { Message.o; digest; keys } in
  t.ctx.Context.emit
    (Context.Batched
       { seq = o; requests = Batch.request_count batch; bytes = Batch.encoded_size batch });
  open_batch_span t (get_order t o);
  let body = Message.Order { c = t.coord; info } in
  let env = make_signed t body in
  if coordinator_is_pair t then begin
    match t.fault with
    | Fault.Equivocate_at at when Int.equal at o ->
      (* Equivocation: two conflicting orders for the same sequence number.
         The shadow is asked to endorse a corrupted digest — a value-domain
         failure it must detect and fail-signal — while the rest of the
         cohort receives the honest digest without the pair's double
         signature, which they reject as unendorsed.  Either way no honest
         receiver can assemble a doubly-signed order for this [o]. *)
      let b = Bytes.of_string digest in
      Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
      let conflicting = { info with Message.digest = Bytes.to_string b } in
      let conflicting_env =
        make_signed t (Message.Order { c = t.coord; info = conflicting })
      in
      let shadow = Config.shadow_of_pair t.config t.coord in
      send t ~dst:shadow conflicting_env;
      multicast t ~dsts:(List.filter (fun p -> not (Int.equal p shadow)) (others t)) env
    | _ ->
      (* Phase 1: 1-to-1 to the shadow for endorsement. *)
      open_endorse_span t (get_order t o);
      send t ~dst:(Config.shadow_of_pair t.config t.coord) env;
      arm_endorsement_watch t o ~level:0
  end
  else begin
    (* Unpaired coordinator: singly-signed order straight to everyone. *)
    multicast t ~dsts:(others t) env;
    accept_order t env ~c:t.coord ~info
  end

and arm_endorsement_watch t o ~level =
  let watch =
    t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(budget_at t ~level)
      (fun () -> endorsement_overdue t o ~level)
  in
  t.endorsement_watches <- (o, watch) :: t.endorsement_watches

and endorsement_overdue t o ~level =
  t.endorsement_watches <- List.remove_assoc o t.endorsement_watches;
  let endorsed =
    match Hashtbl.find_opt t.orders o with Some st -> st.have_order | None -> false
  in
  if not endorsed then
    if can_back_off t ~level then arm_endorsement_watch t o ~level:(level + 1)
    else
      (* Time-domain failure of the shadow (assumption 3(a)(i): the estimate
         is accurate, so lateness means failure; in adaptive mode the budget
         already walked to the hard cap first). *)
      emit_fail_signal t ~value_domain:false

(* ------------------------------------- shadow checking and endorsement *)

and shadow_validate_order t (env : Message.envelope) ~(info : Message.order_info) =
  (* Returns [`Valid], [`Defer] (requests not all here yet) or [`Invalid]. *)
  if not (Int.equal info.Message.o t.expected_seq) then
    if info.Message.o < t.expected_seq then `Duplicate
    else
      (* A gap is not evidence: the network is non-FIFO, so a later order can
         overtake an earlier one we are still deferring on.  Stash it until
         the gap fills. *)
      `Defer
  else if
    (* Double-ordering is only evidence of misbehaviour within the current
       coordinator era: a primary installed after a fail-over may not know
       which keys earlier coordinators already ordered, and re-proposing
       them is benign now that delivery is at-most-once. *)
    List.exists (fun k -> Key_set.mem k t.view_ordered_keys) info.Message.keys
  then `Invalid
  else if info.Message.keys = [] then `Invalid
  else begin
    let lookup k =
      match Pool.find t.pool k with
      | Some r -> Some r
      | None -> Key_map.find_opt k t.executed
    in
    let requests = List.filter_map lookup info.Message.keys in
    if not (Int.equal (List.length requests) (List.length info.Message.keys)) then `Defer
    else begin
      let batch = Batch.make requests in
      t.ctx.Context.digest_charge (Batch.encoded_size batch);
      let expected = Batch.digest t.config.Config.digest batch in
      ignore env;
      if String.equal expected info.Message.digest then `Valid else `Invalid
    end
  end

and shadow_handle_order t (env : Message.envelope) ~(info : Message.order_info) =
  match t.fault with
  | Fault.Drop_endorsements -> ()
  | _ -> begin
    match shadow_validate_order t env ~info with
    | `Duplicate -> ()
    | `Defer ->
      let st = get_order t info.Message.o in
      open_batch_span t st;
      open_endorse_span t st;
      t.stashed_endorsements <- (t.ctx.Context.now (), env, info) :: t.stashed_endorsements;
      retry_stashed_later t
    | `Invalid -> begin
      match t.fault with
      | Fault.Endorse_corrupt_at at when Int.equal at info.Message.o ->
        shadow_endorse t env ~info
      | _ -> emit_fail_signal t ~value_domain:true
    end
    | `Valid ->
      let st = get_order t info.Message.o in
      open_batch_span t st;
      open_endorse_span t st;
      shadow_endorse t env ~info
  end

and shadow_endorse t (env : Message.envelope) ~(info : Message.order_info) =
  t.expected_seq <- info.Message.o + 1;
  t.last_progress <- t.ctx.Context.now ();
  t.shadow_watch_level <- 0;
  List.iter
    (fun k ->
      Pool.mark_ordered t.pool k;
      t.view_ordered_keys <- Key_set.add k t.view_ordered_keys)
    info.Message.keys;
  let endorsed = endorse t env in
  (* Phase 2: 2-to-n — the shadow multicasts the endorsed order... *)
  multicast t ~dsts:(others t) endorsed;
  accept_order t endorsed ~c:t.coord ~info;
  rearm_shadow_watch t

and retry_stashed_later t =
  (* Requests the primary referenced should arrive shortly (clients
     broadcast); recheck after the pair delay estimate.  A still-unresolvable
     order is a timeout, not proof of misbehaviour — a slow wire is
     indistinguishable from an inventing primary. *)
  if not t.stash_retry_armed then begin
    t.stash_retry_armed <- true;
    ignore
      (t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(pair_estimate t)
         (fun () ->
           t.stash_retry_armed <- false;
           retry_stashed t))
  end

and retry_stashed t =
  let stashed = t.stashed_endorsements in
  t.stashed_endorsements <- [];
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
      match shadow_validate_order t env ~info with
      | `Valid -> shadow_endorse t env ~info
      | `Duplicate -> ()
      | `Invalid -> emit_fail_signal t ~value_domain:true
      | `Defer ->
        let age = Simtime.diff (t.ctx.Context.now ()) since in
        (* In adaptive mode the wire may legitimately hold a gap open for as
           long as the hard cap — only a gap older than that is evidence. *)
        let limit = if adaptive t then timer_cap t else pair_estimate t in
        if Simtime.compare age limit >= 0 then
          (* Timeout, not proof: the referenced requests (or the gap
             predecessor) never showed up.  Time-domain. *)
          emit_fail_signal t ~value_domain:false
        else begin
          t.stashed_endorsements <- (since, env, info) :: t.stashed_endorsements;
          if adaptive t then retry_stashed_later t
        end)
    stashed

(* Shadow watches the primary: every known request must be ordered within
   batching_interval + pair_delay_estimate of its arrival (time-domain check,
   Section 3.1 (ii)). *)
and rearm_shadow_watch t =
  (match t.watch_timer with Some h -> h.Context.cancel () | None -> ());
  t.watch_timer <- None;
  if i_am_coordinator_shadow t && t.pair_active then begin
    (* Armed from the lowest unordered key's arrival, not the oldest: safe,
       because the oldest is no later, so the watch can only fire late, and
       the fire-time check below uses the true oldest arrival (see
       Pool.lowest_unordered_arrival). *)
    match Pool.lowest_unordered_arrival t.pool with
    | None -> ()
    | Some since ->
      let budget =
        Simtime.add t.config.Config.batching_interval
          (budget_at t ~level:t.shadow_watch_level)
      in
      (* The primary is timely as long as it keeps ordering: it must produce
         an endorsable order within [budget] of max(last endorsement, oldest
         unordered arrival) — per-request age alone would falsely accuse a
         merely backlogged primary. *)
      let deadline = Simtime.add (Simtime.max since t.last_progress) budget in
      let now = t.ctx.Context.now () in
      let delay =
        if Simtime.compare deadline now <= 0 then Simtime.ns 1
        else Simtime.diff deadline now
      in
      let h =
        t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay (fun () ->
            shadow_watch_fired t)
      in
      t.watch_timer <- Some h
  end

and shadow_watch_fired t =
  t.watch_timer <- None;
  if i_am_coordinator_shadow t && t.pair_active then begin
    let budget =
      Simtime.add t.config.Config.batching_interval
        (budget_at t ~level:t.shadow_watch_level)
    in
    let now = t.ctx.Context.now () in
    let stalled =
      Simtime.compare (Simtime.add t.last_progress budget) now <= 0
      && Pool.overdue t.pool ~budget ~now
    in
    if not stalled then rearm_shadow_watch t
    else if can_back_off t ~level:t.shadow_watch_level then begin
      t.shadow_watch_level <- t.shadow_watch_level + 1;
      rearm_shadow_watch t
    end
    else emit_fail_signal t ~value_domain:false
  end

(* ------------------------------------------------------------ heartbeat *)

and arm_heartbeat t =
  match (t.pair_rank, t.counterpart) with
  | Some rank, Some cp when t.pair_active ->
    let h =
      t.ctx.Context.set_timer ~kind:Context.Watchdog
        ~delay:t.config.Config.heartbeat_interval (fun () -> heartbeat_tick t rank cp)
    in
    t.heartbeat_timer <- Some h
  | _ -> ()

and heartbeat_tick t rank cp =
  if t.pair_active then begin
    t.beat <- t.beat + 1;
    let env = make_signed t (Message.Heartbeat { pair = rank; beat = t.beat }) in
    send t ~dst:cp env;
    if adaptive t then send_probe t cp;
    let silence = Simtime.diff (t.ctx.Context.now ()) t.last_heard in
    let tolerance =
      Simtime.add
        (Simtime.add t.config.Config.heartbeat_interval t.config.Config.heartbeat_interval)
        (budget_at t ~level:t.hb_level)
    in
    if Simtime.compare silence tolerance <= 0 then begin
      t.hb_level <- 0;
      arm_heartbeat t
    end
    else if can_back_off t ~level:t.hb_level then begin
      t.hb_level <- t.hb_level + 1;
      arm_heartbeat t
    end
    else emit_fail_signal t ~value_domain:false
  end

(* -------------------------------------------------------------- inbound *)

and on_message t ~src (env : Message.envelope) =
  (match t.counterpart with
  | Some cp when Int.equal cp src -> t.last_heard <- t.ctx.Context.now ()
  | Some _ | None -> ());
  match env.Message.body with
  | Message.Heartbeat _ -> () (* liveness note above is all they carry *)
  | Message.Fail_signal { pair } ->
    if
      pair >= 1
      && pair <= Config.pair_count t.config
      && (not (Int_set.mem pair t.failed_pairs))
      && fail_signal_authentic t ~pair env
    then begin
      (* Echo to the first signatory in case the second maliciously omitted
         it (Section 3.2). *)
      send t ~dst:env.Message.sender env;
      note_pair_failed t pair
    end
  | Message.Order { c; info } ->
    (* Sequence numbers at or below the stable checkpoint are settled and
       truncated — stragglers must not resurrect them in the log. *)
    if info.Message.o <= Recovery.stable_seq t.rcv then ()
    else if Int.equal c t.coord && not t.installing then begin
      if env.Message.endorsement = None && coordinator_is_pair t then begin
        (* Phase-1 unendorsed order: only meaningful at the shadow. *)
        if
          i_am_coordinator_shadow t && t.pair_active
          && Int.equal src (Config.primary_of_pair t.config t.coord)
          && Int.equal env.Message.sender src
          && authentic t env
        then shadow_handle_order t env ~info
      end
      else if valid_coordinator_message t ~rank:c env && authentic t env then begin
        (* The primary forwards the endorsed order to everyone (phase 2). *)
        if
          i_am_coordinator_primary t
          && Int.equal env.Message.sender (id t)
          && not (Int.equal src (id t))
        then begin
          t.endorsement_watches <-
            (match List.assoc_opt info.Message.o t.endorsement_watches with
            | Some h ->
              h.Context.cancel ();
              List.remove_assoc info.Message.o t.endorsement_watches
            | None -> t.endorsement_watches);
          multicast t ~dsts:(others t) env
        end;
        accept_order t env ~c ~info
      end
    end
    else if c > t.coord || t.installing then
      t.stash_future <- (src, env) :: t.stash_future
    else if
      (* Catch-up: a late order from a superseded coordinator.  Sequences at
         or below an installed Start's anchor are proven committed, and under
         the pair fault model the valid coordinator message for a given
         sequence is unique, so adopting its content is safe — this is how a
         replica partitioned across the install recovers the orders whose
         acks it already holds.  Fresh sequences from a deposed coordinator
         (above the anchor, where the install may have decided differently)
         stay dropped. *)
      info.Message.o <= t.anchor_seen
      && valid_coordinator_message t ~rank:c env
      && authentic t env
    then accept_order t env ~c ~info
  | Message.Ack { c; o; digest } ->
    ignore c;
    if o > Recovery.stable_seq t.rcv && authentic t env then begin
      let st = get_order t o in
      add_vote st ~digest ~source:env.Message.sender ~signature:env.Message.signature;
      if st.have_order && String.equal st.digest digest then try_commit t st
    end
  | Message.Back_log
      { c; failed_pair; max_committed; committed_digest; proof_c; proof; stable; uncommitted }
    ->
    if authentic t env then begin
      if Int.equal c t.coord && t.installing then begin
        let rec_ =
          {
            bl_failed_pair = failed_pair;
            bl_max_committed = max_committed;
            bl_committed_digest = committed_digest;
            bl_proof_c = proof_c;
            bl_proof = proof;
            bl_stable = stable;
            bl_uncommitted = uncommitted;
          }
        in
        let rec_ = validate_backlog t rec_ in
        store_backlog t ~src:env.Message.sender rec_
      end
      else if c > t.coord then t.stash_future <- (src, env) :: t.stash_future
    end
  | Message.Start { c; start_o; anchor; new_back_log } ->
    if authentic t env then begin
      if Int.equal c t.coord && t.installing then begin
        if env.Message.endorsement = None && Config.candidate_is_pair t.config c then begin
          (* 1-signed proposal: only the shadow of the new pair endorses. *)
          if
            Int.equal (id t) (Config.shadow_of_pair t.config c)
            && Int.equal env.Message.sender (Config.primary_of_pair t.config c)
          then handle_start_proposal t env ~start_o ~anchor ~new_back_log
        end
        else if valid_coordinator_message t ~rank:c env then begin
          (* The new primary also forwards the endorsed Start outward. *)
          if Int.equal (id t) (Config.primary_of_pair t.config c) && Int.equal env.Message.sender (id t) && not (Int.equal src (id t))
          then multicast t ~dsts:(others t) env;
          handle_start t env ~c
        end
      end
      else if c > t.coord then t.stash_future <- (src, env) :: t.stash_future
    end
  | Message.Start_ack { c; start_digest } ->
    if authentic t env then handle_start_ack t env ~c ~start_digest
  | Message.Start_tuples { c; tuples } ->
    if authentic t env then begin
      if Int.equal c t.coord && t.installing then handle_start_tuples t env ~c ~tuples
      else if c > t.coord then t.stash_future <- (src, env) :: t.stash_future
    end
  | Message.Checkpoint { seq; digest } ->
    if
      t.config.Config.checkpoint_interval > 0
      && seq > Recovery.stable_seq t.rcv
      && authentic t env
    then begin
      (match env.Message.endorsement with
      | None -> begin
        (* Either a phase-1 proposal addressed to this pair's shadow, or the
           unpaired candidate's complete singleton certificate. *)
        match (t.pair_rank, t.counterpart) with
        | Some r, Some cp
          when Int.equal env.Message.sender cp
               && Int.equal cp (Config.primary_of_pair t.config r) ->
          shadow_handle_checkpoint t env ~seq ~digest
        | _ ->
          if ckpt_pair_ok t ~primary:env.Message.sender ~endorser:None then
            ckpt_adopt_cert t (cert_of_ckpt_env env ~seq ~digest)
      end
      | Some (who, _) ->
        if ckpt_pair_ok t ~primary:env.Message.sender ~endorser:(Some who) then
          ckpt_adopt_cert t (cert_of_ckpt_env env ~seq ~digest));
      (* A checkpoint a full interval ahead of our delivery point means we
         missed traffic that has since been truncated at our peers: catch up
         through state transfer rather than waiting for retransmissions that
         will never come. *)
      if seq > t.delivered + t.config.Config.checkpoint_interval then request_recovery t
    end
  | Message.State_request { have } ->
    if authentic t env then Lifecycle.serve_state_request t ~src ~have
  | Message.State_response { cert; image; entries } ->
    if authentic t env then Lifecycle.handle_state_response t ~src ~cert ~image ~entries
  | Message.Probe { nonce; at } ->
    (* Echo the sender's timestamp back; replies are liveness-only input so
       they need no verification beyond the estimator's nonce filter. *)
    if adaptive t then send t ~dst:src (make_signed t (Message.Probe_reply { nonce; at }))
  | Message.Probe_reply { nonce; at } ->
    if adaptive t then
      Sof_net.Peer_rtt.note_reply t.rtt ~src ~nonce
        ~rtt:(Simtime.diff (t.ctx.Context.now ()) (Simtime.ns at))
  | Message.View_change _ | Message.New_view _ | Message.Unwilling _
  | Message.Pre_prepare _ | Message.Prepare _ | Message.Commit _
  | Message.Bft_view_change _ | Message.Bft_new_view _ ->
    () (* other protocols' traffic: not ours *)

and fail_signal_authentic t ~pair (env : Message.envelope) =
  let members = Config.candidate_members t.config pair in
  List.length members = 2
  && List.mem env.Message.sender members
  && begin
       match env.Message.endorsement with
       | Some (who, _) -> List.mem who members && not (Int.equal who env.Message.sender)
       | None -> false
     end
  && authentic t env

(* New-coordinator-side sanity check of a backlog's commitment proof: at
   least f+1 matching ack signatures — or, falling back, the sender's
   stable checkpoint certificate, which proves commitment through its
   sequence number even when the volatile ack proof died with a crash.
   An unprovable remainder is clamped off the claim; without the durable
   fallback a blackout restart would clamp every recovered claim to zero
   and let the anchor regress below delivered history.  Only pair-c
   members pay these verifications. *)
and validate_backlog t rec_ =
  let am_new_member =
    List.mem (id t) (Config.candidate_members t.config t.coord)
  in
  if (not am_new_member) || rec_.bl_max_committed = 0 then rec_
  else begin
    let body_bytes =
      Message.encode_body
        (Message.Ack
           {
             c = rec_.bl_proof_c;
             o = rec_.bl_max_committed;
             digest = rec_.bl_committed_digest;
           })
    in
    let valid =
      List.filter
        (fun (signer, signature) ->
          t.ctx.Context.verify ~signer ~msg:body_bytes ~signature)
        rec_.bl_proof
      |> List.map fst |> List.sort_uniq Int.compare
    in
    if List.length valid >= t.config.Config.f + 1 then rec_
    else begin
      let cert_seq =
        match rec_.bl_stable with
        | Some c
          when Recovery.verify_cert
                 ~verify:(fun ~signer ~msg ~signature ->
                   t.ctx.Context.verify_acc ~signer ~msg ~signature)
                 ~scheme:(ckpt_scheme t) c ->
          c.Checkpoint.cp_seq
        | Some _ | None -> 0
      in
      {
        rec_ with
        bl_max_committed = min rec_.bl_max_committed cert_seq;
        bl_committed_digest = "";
        bl_proof = [];
      }
    end
  end

(* ------------------------------------------------------------- requests *)

let on_request t (req : Request.t) =
  let key = req.Request.key in
  if (not (Pool.is_ordered t.pool key)) && not (Pool.mem t.pool key) then begin
    Pool.add t.pool ~arrival:(t.ctx.Context.now ()) req;
    (* A newly known request lets stashed endorsements re-validate and
       (re)arms the shadow's timeliness watch. *)
    if t.stashed_endorsements <> [] then retry_stashed t;
    if i_am_coordinator_shadow t && t.watch_timer = None then rearm_shadow_watch t;
    advance_delivery t
  end
  else if Pool.mem t.pool key then ()
  else
    (* Already ordered; keep the body so delivery can complete. *)
    Pool.add t.pool req

let start t =
  if Option.is_some t.pair_rank then arm_heartbeat t;
  if i_am_coordinator_primary t then arm_batch_timer t;
  match t.fault with
  | Fault.Spurious_fail_signal_at at when Option.is_some t.pair_rank ->
    (* Fail-signal abuse: accuse the innocent counterpart at the given
       instant (processes start at simulated time zero, so the instant and
       the timer delay coincide). *)
    ignore
      (t.ctx.Context.set_timer ~delay:at (fun () ->
           emit_fail_signal t ~value_domain:false))
  | _ -> ()

let create ~ctx ~config ?(fault = Fault.Honest) ?counterpart_fail_signal () =
  let pid = ctx.Context.id in
  let pair_rank = Config.pair_rank_of config pid in
  (match (pair_rank, counterpart_fail_signal) with
  | Some _, None ->
    raise (Config.Invalid_config "Sc.create: paired process needs counterpart_fail_signal")
  | None, Some _ ->
    raise (Config.Invalid_config "Sc.create: unpaired process cannot hold a fail-signal")
  | _ -> ());
  {
    ctx;
    config;
    fault;
    counterpart_fail_signal;
    pair_rank;
    counterpart = Config.counterpart config pid;
    all_ids = Config.all_processes config;
    coord = 1;
    failed_pairs = Int_set.empty;
    dumbed_pairs = Int_set.empty;
    installing = false;
    pool = Pool.create ();
    delivered_keys = Key_set.empty;
    view_ordered_keys = Key_set.empty;
    executed = Key_map.empty;
    orders = Hashtbl.create 64;
    max_committed = 0;
    committed_digest = "";
    committed_proof_c = 0;
    committed_proof = [];
    delivered = 0;
    next_seq = 1;
    batch_timer = None;
    endorsement_watches = [];
    expected_seq = 1;
    last_progress = Simtime.zero;
    stashed_endorsements = [];
    watch_timer = None;
    pair_active = Option.is_some pair_rank;
    fail_signalled = false;
    last_heard = Simtime.zero;
    heartbeat_timer = None;
    beat = 0;
    backlogs_by_c = Hashtbl.create 4;
    start_env = None;
    start_acks = [];
    have_tuples = false;
    sent_tuples = false;
    start_sent = false;
    start_covers = [];
    anchor_seen = 0;
    stash_future = [];
    failover_span = None;
    install_span = None;
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
