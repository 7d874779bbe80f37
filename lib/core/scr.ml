module Simtime = Sof_sim.Simtime
module Estimator = Sof_net.Delay_estimator
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Key_set = Request.Key_set
module Int_set = Set.Make (Int)

type status = Up | Down | Permanently_down

type votes = {
  mutable sources : Int_set.t;
  mutable proof : (int * string) list;
}

type order_state = {
  o : int;
  mutable digest : string;
  mutable keys : Request.key list;
  mutable have_order : bool;
  mutable vote_v : int;
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

type vc_rec = {
  vc_max_committed : int;
  vc_uncommitted : Message.order_info list;
}

type t = {
  ctx : Context.t;
  config : Config.t;
  fault : Fault.t;
  counterpart_fail_signal : string option;
  pair_rank : int option;
  counterpart : int option;
  all_ids : int list;
  (* view *)
  mutable view : int;
  mutable changing_view : bool;
  mutable target_view : int;  (* the view we are trying to install *)
  (* own pair *)
  mutable status : status;
  mutable fail_signalled : bool;  (* for the current down episode *)
  mutable last_heard : Simtime.t;
  mutable heartbeat_timer : Context.timer option;
  mutable beat : int;
  (* requests *)
  pool : Pool.t;
  mutable delivered_keys : Key_set.t;
  mutable view_ordered_keys : Key_set.t;
      (* keys ordered under the current view, for the shadow's
         double-ordering check; reset at each view install *)
  mutable executed : Request.t Key_map.t;
      (* delivered request bodies, kept so the shadow can still verify a
         digest over re-proposed requests *)
  (* orders *)
  orders : (int, order_state) Hashtbl.t;
  mutable max_committed : int;
  mutable committed_digest : string;
  mutable delivered : int;
  (* coordinator primary *)
  mutable next_seq : int;
  mutable batch_timer : Context.timer option;
  mutable endorsement_watches : (int * Context.timer) list;
  (* coordinator shadow *)
  mutable expected_seq : int;
  mutable last_progress : Simtime.t;
  mutable stashed_endorsements : (Simtime.t * Message.envelope * Message.order_info) list;
      (* deferred Orders, kept with their decoded info so replay needs no
         re-dispatch *)
  mutable watch_timer : Context.timer option;
  (* view change *)
  view_changes : (int, (int * vc_rec) list ref) Hashtbl.t;
  mutable new_view_sent : bool;
  mutable nv_watch : Context.timer option;
  mutable start_covers : Message.order_info list;
  mutable anchor_seen : int;
      (* highest NewView anchor installed: every sequence at or below it is
         proven committed somewhere, so late orders from superseded views may
         still be adopted for those sequences (catch-up for a replica that
         lagged across the view change) *)
  mutable stash_future : (int * Message.envelope) list;
  echoed_fail_signals : (int * int * int, unit) Hashtbl.t;
      (* (pair, first signatory, view): echo and react once per view *)
  (* trace spans open at this process for fail-over accounting *)
  mutable failover_span : int option;
  mutable vc_span : int option;
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
let view t = t.view
let pair_status t = t.status
let max_committed t = t.max_committed
let delivered_seq t = t.delivered
let changing_view t = t.changing_view

let candidate_of_view t v =
  let k = Config.candidate_count t.config in
  let m = v mod k in
  if m = 0 then k else m

let coordinator_rank t = candidate_of_view t t.view

let quorum t = Config.process_count t.config - t.config.Config.f

let others t = List.filter (fun p -> not (Int.equal p (id t))) t.all_ids

let i_am_coordinator_primary t =
  (not t.changing_view)
  && Int.equal (id t) (Config.primary_of_pair t.config (coordinator_rank t))
  && t.status = Up

let i_am_coordinator_shadow t =
  (not t.changing_view)
  && Int.equal (id t) (Config.shadow_of_pair t.config (coordinator_rank t))
  && t.status = Up

let null_digest t = Batch.digest t.config.Config.digest (Batch.make [])

let can_transmit t = not (Fault.is_mute t.fault ~now:(t.ctx.Context.now ()))

let send t ~dst env = if can_transmit t then t.ctx.Context.send ~dst env
let multicast t ~dsts env = if can_transmit t then t.ctx.Context.multicast ~dsts env

(* Accountable bodies keep transferable signatures; the rest ride the wire
   authentication mode (possibly MAC vectors).  See Sc for the argument. *)
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

let endorse t (env : Message.envelope) =
  let payload = Message.endorsement_payload env.Message.body env.Message.signature in
  { env with Message.endorsement = Some (id t, signer_for t env.Message.body payload) }

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

(* ------------------------------------------------------ adaptive timing *)

let adaptive t =
  match t.config.Config.timing with Config.Adaptive -> true | Config.Static -> false

let pair_estimate t =
  match (t.config.Config.timing, t.counterpart) with
  | Config.Static, _ | _, None -> t.config.Config.pair_delay_estimate
  | Config.Adaptive, Some cp -> Estimator.timeout (Sof_net.Peer_rtt.estimator t.rtt cp)

let timer_cap t = Simtime.ns (64 * Simtime.to_ns t.config.Config.pair_delay_estimate)

(* Adaptive suspicion discipline, as in [Sc]: an expired adaptive deadline
   doubles its own budget and re-waits — the estimate lags a still-growing
   delay — and accuses only once the budget has walked to the hard cap.
   Static mode keeps the configured estimate and accuses on first miss. *)
let budget_at t ~level =
  Estimator.backed_off (pair_estimate t) ~level ~cap:(timer_cap t)

let can_back_off t ~level =
  adaptive t && Simtime.compare (budget_at t ~level) (timer_cap t) < 0

let send_probe t dst =
  let nonce = Sof_net.Peer_rtt.next_nonce t.rtt in
  let at = Simtime.to_ns (t.ctx.Context.now ()) in
  send t ~dst (make_signed t (Message.Probe { nonce; at }))

let doubly_signed_by_pair t ~rank (env : Message.envelope) =
  match env.Message.endorsement with
  | None -> false
  | Some (who, _) ->
    let members = Config.candidate_members t.config rank in
    List.mem env.Message.sender members && List.mem who members

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
        vote_v = 0;
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

(* Trace spans, as in Sc: [Context.emit] costs no simulated CPU, each sp_*
   flag means "open at this process", and closes only fire when the flag is
   set, so spans balance whenever the order commits locally. *)

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

(* ------------------------------------------------ checkpointing (SCR) *)
(* Pair-endorsed stable checkpoints, as in SC: the coordinator primary signs
   its state digest at each boundary and its shadow endorses after comparing
   against its own boundary image.  Every SCR candidate is a pair, so a
   certificate is always doubly signed — at most one pair member is faulty,
   so the double signature carries at least one correct process's word. *)

let log_length t = Hashtbl.length t.orders

let stable_checkpoint_seq t = Recovery.stable_seq t.rcv
let latest_stable t = Recovery.latest_stable t.rcv
let client_marks t = Recovery.marks t.rcv

let ckpt_pair_ok t ~primary ~endorser =
  match endorser with
  | None -> false
  | Some s ->
    let ranks = List.init (Config.candidate_count t.config) (fun i -> i + 1) in
    List.exists
      (fun r ->
        let members = Config.candidate_members t.config r in
        List.mem primary members && List.mem s members && not (Int.equal primary s))
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
  (* Keep one extra interval of delivered keys so a primary installed late
     that re-orders a just-delivered request is still deduplicated. *)
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
    (* Phase 1: 1-to-1 to the shadow for endorsement. *)
    let env = make_signed t (Message.Checkpoint { seq = o; digest }) in
    send t ~dst:(Config.shadow_of_pair t.config (coordinator_rank t)) env
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
      (* At-most-once: a coordinator installed after a view change may
         re-order requests an earlier view already committed.  Honest
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
    end

let record_commit t st =
  if not st.committed then begin
    close_batch_spans t st;
    st.committed <- true;
    if st.o > t.max_committed then begin
      t.max_committed <- st.o;
      t.committed_digest <- st.digest
    end;
    t.ctx.Context.emit (Context.Committed { seq = st.o; digest = st.digest; keys = st.keys });
    advance_delivery t
  end

let try_commit t st =
  if st.have_order && not st.committed then begin
    let v = votes_for st st.digest in
    if Int_set.cardinal v.sources >= quorum t then begin
      record_commit t st;
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

let send_ack t st =
  if st.have_order && not st.acked then begin
    st.acked <- true;
    ack_span_transition t st;
    let body = Message.Ack { c = st.vote_v; o = st.o; digest = st.digest } in
    multicast t ~dsts:t.all_ids (make_signed t body)
  end

let accept_order t (env : Message.envelope) ~v ~(info : Message.order_info) =
  let st = get_order t info.Message.o in
  if st.have_order then begin
    if String.equal st.digest info.Message.digest then begin
      add_vote st ~digest:st.digest ~source:env.Message.sender
        ~signature:env.Message.signature;
      (match env.Message.endorsement with
      | Some (who, s) -> add_vote st ~digest:st.digest ~source:who ~signature:s
      | None -> ());
      send_ack t st;
      try_commit t st
    end
  end
  else begin
    st.have_order <- true;
    st.digest <- info.Message.digest;
    st.keys <- info.Message.keys;
    st.vote_v <- v;
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

(* --------------------------------------------- state transfer (SCR) *)

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

(* ----------------------------------------------------- pair fail-signal *)

let cancel_pair_timers t =
  (match t.watch_timer with Some h -> h.Context.cancel () | None -> ());
  t.watch_timer <- None;
  List.iter (fun (_, h) -> h.Context.cancel ()) t.endorsement_watches;
  t.endorsement_watches <- []

let rec emit_fail_signal t ~value_domain =
  match (t.pair_rank, t.counterpart_fail_signal, t.counterpart) with
  | _ when t.fault = Fault.Withhold_fail_signal ->
    (* Saboteur: sit on the evidence.  Detection must come from the other
       member's signal or from the receivers' own timeouts. *)
    ()
  | Some rank, Some presig, Some cp when t.status = Up && not t.fail_signalled ->
    t.fail_signalled <- true;
    t.status <- (if value_domain then Permanently_down else Down);
    cancel_pair_timers t;
    (match t.batch_timer with Some h -> h.Context.cancel () | None -> ());
    t.batch_timer <- None;
    let body = Message.Fail_signal { pair = rank } in
    let env = { Message.sender = cp; body; signature = presig; endorsement = None } in
    let env = endorse t env in
    t.ctx.Context.emit (Context.Fail_signal_emitted { pair = rank; value_domain });
    if value_domain then t.ctx.Context.emit (Context.Value_fault_detected { pair = rank });
    multicast t ~dsts:(others t) env;
    note_pair_failed t rank
  | _ -> ()

and note_pair_failed t rank =
  t.ctx.Context.emit (Context.Fail_signal_observed { pair = rank });
  if Int.equal rank (coordinator_rank t) && not t.changing_view then begin
    if t.failover_span = None then begin
      t.failover_span <- Some rank;
      span_open t Context.Failover_phase rank
    end;
    propose_view_change t (t.view + 1)
  end

and propose_view_change t v =
  if v > t.view && (not t.changing_view || v > t.target_view) then begin
    (* On escalation (Unwilling, competing proposals) the old target's span
       closes and the new one opens, keeping opens and closes balanced. *)
    (match t.vc_span with
    | Some old -> span_close t Context.View_change_phase old
    | None -> ());
    t.vc_span <- Some v;
    span_open t Context.View_change_phase v;
    t.changing_view <- true;
    t.target_view <- v;
    t.new_view_sent <- false;
    (match t.batch_timer with Some h -> h.Context.cancel () | None -> ());
    t.batch_timer <- None;
    (match t.watch_timer with Some h -> h.Context.cancel () | None -> ());
    t.watch_timer <- None;
    (match t.nv_watch with Some h -> h.Context.cancel () | None -> ());
    t.nv_watch <- None;
    let uncommitted =
      Hashtbl.fold
        (fun o st acc ->
          if st.have_order && (not st.committed) && o > t.max_committed then
            { Message.o; digest = st.digest; keys = st.keys } :: acc
          else acc)
        t.orders []
      |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
    in
    let body =
      Message.View_change
        {
          v;
          max_committed = t.max_committed;
          committed_digest = t.committed_digest;
          uncommitted;
        }
    in
    multicast t ~dsts:(others t) (make_signed t body);
    store_view_change t ~src:(id t) ~v
      { vc_max_committed = t.max_committed; vc_uncommitted = uncommitted };
    (* The candidate pair for v declares unwillingness at once. *)
    maybe_unwilling t v
  end

and maybe_unwilling t v =
  match t.pair_rank with
  (* The [Unwilling_spam] saboteur declares unwillingness even while Up,
     pushing every view past its own candidacies. *)
  | Some rank
    when Int.equal rank (candidate_of_view t v)
         && (t.status <> Up || t.fault = Fault.Unwilling_spam) ->
    let body = Message.Unwilling { v; pair = rank } in
    multicast t ~dsts:(others t) (make_signed t body)
  | Some _ | None -> ()

and store_view_change t ~src ~v rec_ =
  let cell =
    match Hashtbl.find_opt t.view_changes v with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace t.view_changes v cell;
      cell
  in
  if not (List.mem_assoc src !cell) then begin
    cell := (src, rec_) :: !cell;
    maybe_send_new_view t v;
    arm_nv_watch t v
  end

(* The new coordinator primary computes the new backlog out of n-f
   ViewChange messages and multicasts the shadow-endorsed NewView. *)
and maybe_send_new_view t v =
  let rank = candidate_of_view t v in
  if
    t.changing_view && Int.equal v t.target_view && t.status = Up
    && Int.equal (id t) (Config.primary_of_pair t.config rank)
    && not t.new_view_sent
  then begin
    match Hashtbl.find_opt t.view_changes v with
    | Some cell when List.length !cell >= quorum t ->
      t.new_view_sent <- true;
      let vcs = List.map snd !cell in
      let anchor = List.fold_left (fun acc r -> max acc r.vc_max_committed) 0 vcs in
      let support : (int * string, int * Message.order_info) Hashtbl.t =
        Hashtbl.create 16
      in
      List.iter
        (fun r ->
          List.iter
            (fun (info : Message.order_info) ->
              if info.Message.o > anchor then begin
                let key = (info.Message.o, info.Message.digest) in
                match Hashtbl.find_opt support key with
                | Some (n, i) -> Hashtbl.replace support key (n + 1, i)
                | None -> Hashtbl.replace support key (1, info)
              end)
            r.vc_uncommitted)
        vcs;
      let by_o : (int, (int * Message.order_info) list) Hashtbl.t = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (o, _) (n, info) ->
          let cur = Option.value (Hashtbl.find_opt by_o o) ~default:[] in
          Hashtbl.replace by_o o ((n, info) :: cur))
        support;
      let chosen =
        Hashtbl.fold
          (fun _o cands acc ->
            match
              List.sort
                (fun (n1, i1) (n2, i2) ->
                  let c = Int.compare n2 n1 in
                  if c <> 0 then c else String.compare i1.Message.digest i2.Message.digest)
                cands
            with
            | [] -> acc
            | (_, info) :: _ -> info :: acc)
          by_o []
        |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
      in
      let start_o =
        1
        + List.fold_left
            (fun acc (i : Message.order_info) -> max acc i.Message.o)
            anchor chosen
      in
      let nd = null_digest t in
      let filled =
        List.init (start_o - anchor - 1) (fun idx ->
            let o = anchor + 1 + idx in
            match
              List.find_opt (fun (i : Message.order_info) -> Int.equal i.Message.o o) chosen
            with
            | Some info -> info
            | None -> { Message.o; digest = nd; keys = [] })
      in
      let body = Message.New_view { v; start_o; anchor; new_back_log = filled } in
      let env = make_signed t body in
      send t ~dst:(Config.shadow_of_pair t.config rank) env
    | Some _ | None -> ()
  end

(* The shadow of the candidate pair watches its primary during a view
   change: if the primary has a quorum of ViewChanges but produces no
   NewView proposal within the delay estimate, that is a time-domain
   failure. *)
and arm_nv_watch t v =
  let rank = candidate_of_view t v in
  if
    t.changing_view && Int.equal v t.target_view && t.status = Up && t.nv_watch = None
    && Int.equal (id t) (Config.shadow_of_pair t.config rank)
  then begin
    match Hashtbl.find_opt t.view_changes v with
    | Some cell when List.length !cell >= quorum t ->
      let h =
        t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(pair_estimate t)
          (fun () ->
            t.nv_watch <- None;
            if t.changing_view && Int.equal v t.target_view && t.status = Up then begin
              emit_fail_signal t ~value_domain:false;
              maybe_unwilling t v
            end)
      in
      t.nv_watch <- Some h
    | Some _ | None -> ()
  end

and handle_new_view_proposal t (env : Message.envelope) ~v ~start_o ~anchor
    ~new_back_log =
  (* Shadow-side plausibility check mirroring SC's Start verification. *)
  let my_vcs =
    match Hashtbl.find_opt t.view_changes v with
    | Some cell -> List.map snd !cell
    | None -> []
  in
  (* A correct primary may know fewer commits than we do (its quorum of
     ViewChanges need not include ours), so the anchor may be below our own
     max_committed.  What it must never do: contradict an order we know
     committed, drop a well-supported order, or overshoot. *)
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
               (fun r ->
                 List.exists
                   (fun (i : Message.order_info) ->
                     Int.equal i.Message.o info.Message.o
                     && not (String.equal i.Message.digest info.Message.digest))
                   r.vc_uncommitted)
               my_vcs
           in
           List.length competing < t.config.Config.f + 1)
         new_back_log
  in
  if plausible then begin
    let endorsed = endorse t env in
    multicast t ~dsts:(others t) endorsed;
    install_view t endorsed ~v ~start_o ~anchor ~new_back_log
  end
  else emit_fail_signal t ~value_domain:true

and install_view t (env : Message.envelope) ~v ~start_o ~anchor ~new_back_log =
  if v >= t.target_view || v > t.view then begin
    t.view <- v;
    t.changing_view <- false;
    t.target_view <- v;
    if anchor > t.anchor_seen then t.anchor_seen <- anchor;
    (match t.nv_watch with Some h -> h.Context.cancel () | None -> ());
    t.nv_watch <- None;
    t.start_covers <-
      List.filter (fun (i : Message.order_info) -> i.Message.o > t.max_committed) new_back_log;
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
            st.vote_v <- v;
            if info.Message.keys = [] then st.null <- true;
            List.iter (Pool.mark_ordered t.pool) info.Message.keys
          end
        end)
      new_back_log;
    let payload = Message.encode_body env.Message.body in
    t.ctx.Context.digest_charge (String.length payload);
    let nv_digest = Sof_crypto.Digest_alg.digest t.config.Config.digest payload in
    let st = get_order t start_o in
    if not st.committed then begin
      st.have_order <- true;
      st.digest <- nv_digest;
      st.keys <- [];
      st.null <- true;
      st.vote_v <- v;
      add_vote st ~digest:nv_digest ~source:env.Message.sender
        ~signature:env.Message.signature;
      (match env.Message.endorsement with
      | Some (who, s) -> add_vote st ~digest:nv_digest ~source:who ~signature:s
      | None -> ())
    end;
    let rank = candidate_of_view t v in
    if Int.equal (id t) (Config.primary_of_pair t.config rank) && t.status = Up then begin
      t.next_seq <- start_o + 1;
      arm_batch_timer t
    end;
    if Int.equal (id t) (Config.shadow_of_pair t.config rank) then begin
      t.expected_seq <- start_o + 1;
      t.last_progress <- t.ctx.Context.now ()
    end;
    t.view_ordered_keys <- Key_set.empty;
    (* Stashed endorsements are from the superseded view; anything still
       legitimate is covered by the install's back-log. *)
    t.stashed_endorsements <- [];
    (match t.vc_span with
    | Some old ->
      t.vc_span <- None;
      span_close t Context.View_change_phase old
    | None -> ());
    (match t.failover_span with
    | Some r ->
      t.failover_span <- None;
      span_close t Context.Failover_phase r
    | None -> ());
    t.ctx.Context.emit (Context.View_installed { v });
    send_ack t st;
    try_commit t st;
    let stash = List.rev t.stash_future in
    t.stash_future <- [];
    List.iter (fun (src, env) -> on_message t ~src env) stash
  end

(* ------------------------------------------------------ normal batching *)

and arm_batch_timer t =
  let h =
    t.ctx.Context.set_timer ~delay:t.config.Config.batching_interval (fun () ->
        batch_tick t)
  in
  t.batch_timer <- Some h

and batch_tick t =
  if i_am_coordinator_primary t then begin
    if Pool.has_unordered t.pool then issue_batch t;
    arm_batch_timer t
  end

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
  let body = Message.Order { c = t.view; info } in
  let env = make_signed t body in
  match t.fault with
  | Fault.Equivocate_at at when Int.equal at o ->
    (* Equivocation: the shadow sees a conflicting digest (a value-domain
       failure it must fail-signal) while the cohort gets the honest digest
       without the pair's double signature, which receivers reject as
       unendorsed.  No honest receiver assembles a doubly-signed order. *)
    let b = Bytes.of_string digest in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    let conflicting = { info with Message.digest = Bytes.to_string b } in
    let conflicting_env =
      make_signed t (Message.Order { c = t.view; info = conflicting })
    in
    let shadow = Config.shadow_of_pair t.config (coordinator_rank t) in
    send t ~dst:shadow conflicting_env;
    multicast t ~dsts:(List.filter (fun p -> not (Int.equal p shadow)) (others t)) env
  | _ ->
    open_endorse_span t (get_order t o);
    send t ~dst:(Config.shadow_of_pair t.config (coordinator_rank t)) env;
    arm_endorsement_watch t o ~level:0

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
    else emit_fail_signal t ~value_domain:false

(* ----------------------------------------- shadow checks and endorsement *)

and shadow_validate_order t ~(info : Message.order_info) =
  if not (Int.equal info.Message.o t.expected_seq) then
    if info.Message.o < t.expected_seq then `Duplicate
    else
      (* A gap is not evidence: the network is non-FIFO, so a later order can
         overtake an earlier one we are still deferring on.  Stash it until
         the gap fills. *)
      `Defer
  else if
    (* Double-ordering is only evidence of misbehaviour within the current
       view: a primary installed after a view change may not know which keys
       earlier views already ordered, and re-proposing them is benign now
       that delivery is at-most-once. *)
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
      if String.equal (Batch.digest t.config.Config.digest batch) info.Message.digest then `Valid
      else `Invalid
    end
  end

and shadow_handle_order t (env : Message.envelope) ~(info : Message.order_info) =
  match t.fault with
  | Fault.Drop_endorsements -> ()
  | _ -> begin
    match shadow_validate_order t ~info with
    | `Duplicate -> ()
    | `Defer ->
      let st = get_order t info.Message.o in
      open_batch_span t st;
      open_endorse_span t st;
      t.stashed_endorsements <- (t.ctx.Context.now (), env, info) :: t.stashed_endorsements;
      retry_stashed_later t
    | `Invalid -> begin
      match t.fault with
      | Fault.Endorse_corrupt_at at when Int.equal at info.Message.o -> shadow_endorse t env ~info
      | _ -> emit_fail_signal t ~value_domain:true
    end
    | `Valid ->
      let st = get_order t info.Message.o in
      open_batch_span t st;
      open_endorse_span t st;
      shadow_endorse t env ~info
  end

and retry_stashed_later t =
  if not t.stash_retry_armed then begin
    t.stash_retry_armed <- true;
    ignore
      (t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(pair_estimate t)
         (fun () ->
           t.stash_retry_armed <- false;
           retry_stashed t))
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
  multicast t ~dsts:(others t) endorsed;
  accept_order t endorsed ~v:t.view ~info;
  rearm_shadow_watch t

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
      match shadow_validate_order t ~info with
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

and rearm_shadow_watch t =
  (match t.watch_timer with Some h -> h.Context.cancel () | None -> ());
  t.watch_timer <- None;
  if i_am_coordinator_shadow t then begin
    (* The lowest unordered key's arrival, as in SC: the watch can only fire
       late, never falsely (see Pool.lowest_unordered_arrival). *)
    match Pool.lowest_unordered_arrival t.pool with
    | None -> ()
    | Some since ->
      let budget =
        Simtime.add t.config.Config.batching_interval
          (budget_at t ~level:t.shadow_watch_level)
      in
      (* Progress-based, as in SC: a backlogged-but-ordering primary is
         timely. *)
      let deadline = Simtime.add (Simtime.max since t.last_progress) budget in
      let now = t.ctx.Context.now () in
      let delay =
        if Simtime.compare deadline now <= 0 then Simtime.ns 1
        else Simtime.diff deadline now
      in
      t.watch_timer <-
        Some
          (t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay (fun () ->
               shadow_watch_fired t))
  end

and shadow_watch_fired t =
  t.watch_timer <- None;
  if i_am_coordinator_shadow t then begin
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

(* --------------------------------------------------- heartbeat/recovery *)

and arm_heartbeat t =
  match (t.pair_rank, t.counterpart) with
  | Some rank, Some cp ->
    let h =
      t.ctx.Context.set_timer ~kind:Context.Watchdog
        ~delay:t.config.Config.heartbeat_interval (fun () -> heartbeat_tick t rank cp)
    in
    t.heartbeat_timer <- Some h
  | _ -> ()

and heartbeat_tick t rank cp =
  if t.status <> Permanently_down then begin
    t.beat <- t.beat + 1;
    send t ~dst:cp (make_signed t (Message.Heartbeat { pair = rank; beat = t.beat }));
    if adaptive t then send_probe t cp;
    let silence = Simtime.diff (t.ctx.Context.now ()) t.last_heard in
    let tolerance =
      Simtime.add
        (Simtime.add t.config.Config.heartbeat_interval t.config.Config.heartbeat_interval)
        (budget_at t ~level:t.hb_level)
    in
    match t.status with
    | Up ->
      if Simtime.compare silence tolerance <= 0 then t.hb_level <- 0
      else if can_back_off t ~level:t.hb_level then t.hb_level <- t.hb_level + 1
      else emit_fail_signal t ~value_domain:false
    | Down ->
      (* Continued mutual checking: hearing from the counterpart again in a
         timely way means the bad period has passed (assumption 3(b)(i)) —
         resume working as a pair. *)
      if Simtime.compare silence tolerance <= 0 then begin
        t.status <- Up;
        t.fail_signalled <- false;
        t.hb_level <- 0;
        t.ctx.Context.emit
          (Context.Pair_recovered { pair = Option.value t.pair_rank ~default:0 })
      end
    | Permanently_down -> ()
  end;
  if t.status <> Permanently_down then arm_heartbeat t

(* -------------------------------------------------------------- inbound *)

and on_message t ~src (env : Message.envelope) =
  (match t.counterpart with
  | Some cp when Int.equal cp src -> t.last_heard <- t.ctx.Context.now ()
  | Some _ | None -> ());
  match env.Message.body with
  | Message.Heartbeat _ -> ()
  | Message.Fail_signal { pair } ->
    let key = (pair, env.Message.sender, t.view) in
    if
      pair >= 1
      && pair <= Config.pair_count t.config
      && (not (Hashtbl.mem t.echoed_fail_signals key))
      && fail_signal_authentic t ~pair env
    then begin
      Hashtbl.replace t.echoed_fail_signals key ();
      (* Echo once to the first signatory (not to ourselves). *)
      if not (Int.equal env.Message.sender (id t)) then send t ~dst:env.Message.sender env;
      (* A member that has not signalled joins its counterpart's signal. *)
      (match t.pair_rank with
      | Some r when Int.equal r pair && t.status = Up -> emit_fail_signal t ~value_domain:false
      | Some _ | None -> ());
      note_pair_failed t pair
    end
  | Message.Order { c = v; info } ->
    (* Sequence numbers at or below the stable checkpoint are settled and
       truncated — stragglers must not resurrect them in the log. *)
    if info.Message.o <= Recovery.stable_seq t.rcv then ()
    else if Int.equal v t.view && not t.changing_view then begin
      let rank = coordinator_rank t in
      if env.Message.endorsement = None then begin
        if
          i_am_coordinator_shadow t
          && Int.equal src (Config.primary_of_pair t.config rank)
          && Int.equal env.Message.sender src
          && authentic t env
        then shadow_handle_order t env ~info
      end
      else if doubly_signed_by_pair t ~rank env && authentic t env then begin
        if i_am_coordinator_primary t && Int.equal env.Message.sender (id t) && not (Int.equal src (id t)) then begin
          (match List.assoc_opt info.Message.o t.endorsement_watches with
          | Some h ->
            h.Context.cancel ();
            t.endorsement_watches <- List.remove_assoc info.Message.o t.endorsement_watches
          | None -> ());
          multicast t ~dsts:(others t) env
        end;
        accept_order t env ~v ~info
      end
    end
    else if v > t.view || t.changing_view then
      t.stash_future <- (src, env) :: t.stash_future
    else if
      (* Catch-up: a late order from a superseded view.  Sequences at or
         below an installed NewView's anchor are proven committed, and under
         the pair fault model the valid coordinator message for a given
         sequence is unique, so adopting its content is safe — this is how a
         replica partitioned across the view change recovers the orders whose
         acks it already holds.  Fresh sequences from a deposed view (above
         the anchor, where the view change may have decided differently) stay
         dropped. *)
      info.Message.o <= t.anchor_seen
      && doubly_signed_by_pair t ~rank:(candidate_of_view t v) env
      && authentic t env
    then accept_order t env ~v ~info
  | Message.Ack { o; digest; _ } ->
    if o > Recovery.stable_seq t.rcv && authentic t env then begin
      let st = get_order t o in
      add_vote st ~digest ~source:env.Message.sender ~signature:env.Message.signature;
      if st.have_order && String.equal st.digest digest then try_commit t st
    end
  | Message.View_change { v; max_committed; uncommitted; _ } ->
    if v > t.view && authentic t env then begin
      store_view_change t ~src:env.Message.sender ~v
        { vc_max_committed = max_committed; vc_uncommitted = uncommitted };
      (* Seeing f+1 view changes means at least one correct process saw the
         coordinator's fail-signal: join. *)
      (match Hashtbl.find_opt t.view_changes v with
      | Some cell ->
        if List.length !cell > t.config.Config.f && (v > t.target_view || not t.changing_view)
        then propose_view_change t v
      | None -> ())
    end
  | Message.New_view { v; start_o; anchor; new_back_log } ->
    if (v > t.view || (t.changing_view && Int.equal v t.target_view)) && authentic t env then begin
      let rank = candidate_of_view t v in
      if env.Message.endorsement = None then begin
        if
          Int.equal (id t) (Config.shadow_of_pair t.config rank)
          && Int.equal env.Message.sender (Config.primary_of_pair t.config rank)
          && t.status = Up
        then handle_new_view_proposal t env ~v ~start_o ~anchor ~new_back_log
      end
      else if doubly_signed_by_pair t ~rank env then begin
        if Int.equal (id t) (Config.primary_of_pair t.config rank) && Int.equal env.Message.sender (id t) && not (Int.equal src (id t))
        then multicast t ~dsts:(others t) env;
        install_view t env ~v ~start_o ~anchor ~new_back_log
      end
    end
  | Message.Unwilling { v; pair } ->
    if
      (v > t.view || (t.changing_view && v >= t.target_view))
      && Int.equal pair (candidate_of_view t v)
      && List.mem env.Message.sender (Config.candidate_members t.config pair)
      && authentic t env
    then begin
      (* Echo back to both members, then move on to the next view. *)
      List.iter
        (fun m -> if not (Int.equal m (id t)) then send t ~dst:m env)
        (Config.candidate_members t.config pair);
      propose_view_change t (v + 1)
    end
  | Message.Checkpoint { seq; digest } ->
    if
      t.config.Config.checkpoint_interval > 0
      && seq > Recovery.stable_seq t.rcv
      && authentic t env
    then begin
      (match env.Message.endorsement with
      | None -> begin
        (* Phase-1 proposal addressed to this pair's shadow. *)
        match (t.pair_rank, t.counterpart) with
        | Some r, Some cp
          when Int.equal env.Message.sender cp
               && Int.equal cp (Config.primary_of_pair t.config r)
               && t.status = Up ->
          shadow_handle_checkpoint t env ~seq ~digest
        | _ -> ()
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
  | Message.Back_log _ | Message.Start _ | Message.Start_ack _
  | Message.Start_tuples _ | Message.Pre_prepare _ | Message.Prepare _
  | Message.Commit _ | Message.Bft_view_change _ | Message.Bft_new_view _ ->
    ()

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

(* ------------------------------------------------------------- requests *)

let on_request t (req : Request.t) =
  let key = req.Request.key in
  if (not (Pool.is_ordered t.pool key)) && not (Pool.mem t.pool key) then begin
    Pool.add t.pool ~arrival:(t.ctx.Context.now ()) req;
    if t.stashed_endorsements <> [] then retry_stashed t;
    if i_am_coordinator_shadow t && t.watch_timer = None then rearm_shadow_watch t;
    advance_delivery t
  end
  else if not (Pool.mem t.pool key) then begin
    Pool.add t.pool req;
    advance_delivery t
  end

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
  if config.Config.variant <> Config.SCR then
    raise (Config.Invalid_config "Scr.create: config must use the SCR variant");
  let pid = ctx.Context.id in
  let pair_rank = Config.pair_rank_of config pid in
  (match (pair_rank, counterpart_fail_signal) with
  | Some _, None -> raise (Config.Invalid_config "Scr.create: paired process needs counterpart_fail_signal")
  | None, Some _ -> raise (Config.Invalid_config "Scr.create: unpaired process cannot hold a fail-signal")
  | _ -> ());
  {
    ctx;
    config;
    fault;
    counterpart_fail_signal;
    pair_rank;
    counterpart = Config.counterpart config pid;
    all_ids = Config.all_processes config;
    view = 1;
    changing_view = false;
    target_view = 1;
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
    delivered = 0;
    next_seq = 1;
    batch_timer = None;
    endorsement_watches = [];
    expected_seq = 1;
    last_progress = Simtime.zero;
    stashed_endorsements = [];
    watch_timer = None;
    view_changes = Hashtbl.create 4;
    new_view_sent = false;
    nv_watch = None;
    start_covers = [];
    anchor_seen = 0;
    stash_future = [];
    echoed_fail_signals = Hashtbl.create 8;
    failover_span = None;
    vc_span = None;
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
