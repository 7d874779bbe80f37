module Simtime = Sof_sim.Simtime
module Request = Sof_smr.Request
module Key_map = Request.Key_map
module Key_set = Request.Key_set
module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

type config = {
  f : int;
  batching_interval : Simtime.t;
  batch_size_limit : int;
  digest : Sof_crypto.Digest_alg.t;
  view_change_timeout : Simtime.t;
  checkpoint_interval : int;
  unsafe_digest_blind_votes : bool;
  timing : Config.timing;
}

let make_config ?(batching_interval = Simtime.ms 100) ?(batch_size_limit = 1024)
    ?(digest = Sof_crypto.Digest_alg.MD5) ?(view_change_timeout = Simtime.sec 2)
    ?(checkpoint_interval = 0) ?(unsafe_digest_blind_votes = false)
    ?(timing = Config.Static) ~f () =
  if f < 1 then raise (Config.Invalid_config "Bft.make_config: f must be at least 1");
  if checkpoint_interval < 0 then
    raise (Config.Invalid_config "Bft.make_config: checkpoint_interval must be non-negative");
  if Simtime.compare view_change_timeout Simtime.zero <= 0 then
    raise (Config.Invalid_config "Bft.make_config: view_change_timeout must be positive");
  { f; batching_interval; batch_size_limit; digest; view_change_timeout; checkpoint_interval;
    unsafe_digest_blind_votes; timing }

let process_count config = (3 * config.f) + 1

type order_state = {
  o : int;
  mutable digest : string;
  mutable keys : Request.key list;
  mutable pre_prepared : bool;  (* authentic pre-prepare stored *)
  mutable view_of : int;
  (* Votes are remembered per sender *together with the digest they were
     cast for*: a prepare or commit may legitimately overtake its
     pre-prepare on a reordering link, so votes must be accepted before the
     slot's digest is known — but they may only be *counted* toward the
     digest they name.  Pooling digest-blind votes lets a restarted primary
     combine the cluster's votes for an old in-flight batch with a fresh
     conflicting proposal for the same slot and commit it alone. *)
  mutable prepares : string Int_map.t;
  mutable commits : string Int_map.t;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable committed : bool;
  (* trace spans currently open at this process for this order *)
  mutable sp_batch : bool;
  mutable sp_preprep : bool;
  mutable sp_prepare : bool;
  mutable sp_commit : bool;
}

type t = {
  ctx : Context.t;
  config : config;
  fault : Fault.t;
  all_ids : int list;
  mutable view : int;
  pool : Pool.t;
  mutable delivered_keys : Key_set.t;
  orders : (int, order_state) Hashtbl.t;
  mutable max_committed : int;
  mutable delivered : int;
  mutable next_seq : int;
  mutable batch_timer : Context.timer option;
  mutable vc_timer : Context.timer option;
  mutable last_progress : Simtime.t;
  mutable view_changes : (int, Int_set.t ref * Message.order_info list ref) Hashtbl.t;
  mutable changing_view : bool;
  mutable vc_span : int option;  (* open view-change trace span *)
  rcv : Recovery.state;
  (* adaptive timing (Config.Adaptive only; untouched in Static mode so
     seeded static runs keep the exact stream layout) *)
  rtt : Sof_net.Peer_rtt.t;
  mutable vc_backoff : int;  (* doublings applied to consecutive suspicions *)
}

let id t = t.ctx.Context.id
let view t = t.view
let n t = process_count t.config
let primary t = t.view mod n t
let i_am_primary t = Int.equal (id t) (primary t)
let max_committed t = t.max_committed
let delivered_seq t = t.delivered

let others t = List.filter (fun p -> not (Int.equal p (id t))) t.all_ids

(* Checkpoints form transferable certificates, so they keep scheme
   signatures; the agreement phases use the wire mode (MAC vectors under
   [--auth mac], where a 2f+1 quorum of direct checks replaces
   transferability). *)
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

let authentic t (env : Message.envelope) =
  env.Message.endorsement = None
  && verifier_for t env.Message.body ~signer:env.Message.sender
       ~msg:(Message.encode_body env.Message.body)
       ~signature:env.Message.signature

let can_transmit t = not (Fault.is_mute t.fault ~now:(t.ctx.Context.now ()))

let multicast t ~dsts env = if can_transmit t then t.ctx.Context.multicast ~dsts env

(* ------------------------------------------------------ adaptive timing *)

module Estimator = Sof_net.Delay_estimator

let adaptive t =
  match t.config.timing with Config.Adaptive -> true | Config.Static -> false

let timer_cap t = Simtime.ns (64 * Simtime.to_ns t.config.view_change_timeout)

(* The stall budget a replica grants the current primary before suspecting
   it: static mode keeps the configured view-change timeout; adaptive mode
   tracks the measured round-trip to the primary and doubles per
   consecutive suspicion, capped. *)
let suspicion_delay t =
  match t.config.timing with
  | Config.Static -> t.config.view_change_timeout
  | Config.Adaptive ->
    Estimator.backed_off
      (Estimator.timeout (Sof_net.Peer_rtt.estimator t.rtt (primary t)))
      ~level:t.vc_backoff ~cap:(timer_cap t)

let send_probe t dst =
  let nonce = Sof_net.Peer_rtt.next_nonce t.rtt in
  let at = Simtime.to_ns (t.ctx.Context.now ()) in
  multicast t ~dsts:[ dst ] (make_signed t (Message.Probe { nonce; at }))

let get_order t o =
  match Hashtbl.find_opt t.orders o with
  | Some st -> st
  | None ->
    let st =
      {
        o;
        digest = "";
        keys = [];
        pre_prepared = false;
        view_of = 0;
        prepares = Int_map.empty;
        commits = Int_map.empty;
        sent_prepare = false;
        sent_commit = false;
        committed = false;
        sp_batch = false;
        sp_preprep = false;
        sp_prepare = false;
        sp_commit = false;
      }
    in
    Hashtbl.replace t.orders o st;
    st

(* First vote per sender wins: a later conflicting vote from the same signer
   is equivocation and must not displace the one already on record. *)
let add_vote votes ~sender ~digest =
  if Int_map.mem sender votes then votes else Int_map.add sender digest votes

let votes_for ?(blind = false) votes ~digest =
  (* [blind] resurrects the pre-PR 7 pooling — votes counted regardless of
     the digest they were cast for.  Never set outside the model checker's
     mutant tests, where `sof check` must rediscover the safety violation
     the blackout campaign originally found. *)
  Int_map.fold
    (fun _ d acc -> if blind || String.equal d digest then acc + 1 else acc)
    votes 0

(* Trace spans: [Context.emit] costs no simulated CPU, each sp_* flag means
   "open at this process", and closes only fire when the flag is set, so
   spans balance whenever the order commits locally. *)

let span_open t phase seq = t.ctx.Context.emit (Context.Span_open { phase; seq })
let span_close t phase seq = t.ctx.Context.emit (Context.Span_close { phase; seq })

(* ------------------------------------------------ checkpointing (BFT) *)
(* PBFT-style stable checkpoints: every process signs and multicasts its
   state digest at each boundary; 2f+1 matching signatures certify it. *)

let send_one t ~dst env = if can_transmit t then t.ctx.Context.send ~dst env

let log_length t = Hashtbl.length t.orders

let stable_checkpoint_seq t = Recovery.stable_seq t.rcv
let latest_stable t = Recovery.latest_stable t.rcv
let client_marks t = Recovery.marks t.rcv

let ckpt_quorum t = (2 * t.config.f) + 1

let ckpt_scheme t =
  Recovery.Quorum_signed
    { quorum = ckpt_quorum t; member_ok = (fun p -> p >= 0 && p < n t) }

let truncate t upto =
  let stale = Hashtbl.fold (fun o _ acc -> if o <= upto then o :: acc else acc) t.orders [] in
  List.iter (Hashtbl.remove t.orders) stale;
  (* Keep one extra interval of delivered keys so a primary elected late that
     re-orders a just-delivered request is still deduplicated. *)
  List.iter
    (fun (req : Request.t) ->
      t.delivered_keys <- Key_set.remove req.Request.key t.delivered_keys;
      Pool.unmark t.pool req.Request.key)
    (Recovery.prune_delivered t.rcv ~upto:(upto - t.config.checkpoint_interval));
  t.ctx.Context.emit (Context.Log_truncated { upto; retained = Hashtbl.length t.orders })

let maybe_stabilize t ~seq ~digest =
  if
    seq > Recovery.stable_seq t.rcv
    && Recovery.Tally.count (Recovery.tally t.rcv) ~seq ~digest >= ckpt_quorum t
  then
    match Recovery.image_at t.rcv ~seq with
    | Some image when String.equal (Checkpoint.image_digest t.config.digest image) digest ->
      let cert =
        {
          Checkpoint.cp_seq = seq;
          cp_digest = digest;
          cp_proof = Recovery.Tally.proof (Recovery.tally t.rcv) ~seq ~digest;
          cp_endorsement = None;
        }
      in
      if Recovery.note_stable t.rcv ~cert ~image then begin
        t.ctx.Context.emit (Context.Checkpoint_stable { seq; digest });
        span_close t Context.Checkpoint_phase seq;
        truncate t seq
      end
    | Some _ | None -> ()

let checkpoint_boundary t o =
  let image =
    Checkpoint.wrap_image ~state:(t.ctx.Context.snapshot ()) ~marks:(Recovery.marks t.rcv)
  in
  t.ctx.Context.digest_charge (String.length image);
  let digest = Checkpoint.image_digest t.config.digest image in
  Recovery.note_image t.rcv ~seq:o ~image;
  span_open t Context.Checkpoint_phase o;
  let env = make_signed t (Message.Checkpoint { seq = o; digest }) in
  Recovery.Tally.add (Recovery.tally t.rcv) ~seq:o ~digest ~signer:(id t)
    ~signature:env.Message.signature;
  multicast t ~dsts:(others t) env;
  maybe_stabilize t ~seq:o ~digest

let rec advance_delivery t =
  match Hashtbl.find_opt t.orders (t.delivered + 1) with
  | None -> ()
  | Some st when not st.committed -> ()
  | Some st ->
    if st.keys = [] then begin
      t.delivered <- st.o;
      let batch = Batch.make [] in
      t.ctx.Context.deliver ~seq:st.o batch;
      t.ctx.Context.emit (Context.Delivered { seq = st.o; batch });
      if t.config.checkpoint_interval > 0 then begin
        Recovery.note_delivered t.rcv ~seq:st.o [];
        if Checkpoint.is_boundary ~interval:t.config.checkpoint_interval st.o then
          checkpoint_boundary t st.o
      end;
      advance_delivery t
    end
    else begin
      (* At-most-once: a primary elected after a view change may re-order
         requests an earlier view already committed.  Honest processes agree
         on the committed prefix, so they prune the same already-delivered
         keys and execute identical sub-batches. *)
      let fresh =
        List.filter
          (fun k ->
            (not (Key_set.mem k t.delivered_keys))
            && (t.config.checkpoint_interval = 0 || Recovery.fresh_key t.rcv k))
          st.keys
      in
      let requests = List.filter_map (Pool.find t.pool) fresh in
      if Int.equal (List.length requests) (List.length fresh) then begin
        t.delivered <- st.o;
        List.iter
          (fun k ->
            t.delivered_keys <- Key_set.add k t.delivered_keys;
            if t.config.checkpoint_interval > 0 then Recovery.mark_delivered t.rcv k;
            Pool.remove t.pool k)
          st.keys;
        let batch = Batch.make requests in
        t.ctx.Context.deliver ~seq:st.o batch;
        t.ctx.Context.emit (Context.Delivered { seq = st.o; batch });
        if t.config.checkpoint_interval > 0 then begin
          Recovery.note_delivered t.rcv ~seq:st.o requests;
          if Checkpoint.is_boundary ~interval:t.config.checkpoint_interval st.o then
            checkpoint_boundary t st.o
        end;
        advance_delivery t
      end
    end

let try_commit_point t st =
  if
    st.pre_prepared && (not st.committed)
    && votes_for ~blind:t.config.unsafe_digest_blind_votes st.commits
         ~digest:st.digest
       >= (2 * t.config.f) + 1
  then begin
    if st.sp_preprep then begin
      st.sp_preprep <- false;
      span_close t Context.Pre_prepare_phase st.o
    end;
    if st.sp_prepare then begin
      st.sp_prepare <- false;
      span_close t Context.Prepare_phase st.o
    end;
    if st.sp_commit then begin
      st.sp_commit <- false;
      span_close t Context.Commit_phase st.o
    end;
    if st.sp_batch then begin
      st.sp_batch <- false;
      span_close t Context.Batch_phase st.o
    end;
    st.committed <- true;
    t.last_progress <- t.ctx.Context.now ();
    if st.o > t.max_committed then t.max_committed <- st.o;
    t.ctx.Context.emit
      (Context.Committed { seq = st.o; digest = st.digest; keys = st.keys });
    advance_delivery t
  end

let try_prepared_point t st =
  if
    st.pre_prepared && st.sent_prepare && (not st.sent_commit)
    && votes_for ~blind:t.config.unsafe_digest_blind_votes st.prepares
         ~digest:st.digest
       >= 2 * t.config.f
  then begin
    st.sent_commit <- true;
    if st.sp_prepare then begin
      st.sp_prepare <- false;
      span_close t Context.Prepare_phase st.o
    end;
    if st.sp_batch && not st.sp_commit then begin
      st.sp_commit <- true;
      span_open t Context.Commit_phase st.o
    end;
    let body = Message.Commit { v = st.view_of; o = st.o; digest = st.digest } in
    let env = make_signed t body in
    multicast t ~dsts:t.all_ids env
  end

let send_prepare t st =
  if not st.sent_prepare then begin
    st.sent_prepare <- true;
    if st.sp_preprep then begin
      st.sp_preprep <- false;
      span_close t Context.Pre_prepare_phase st.o
    end;
    if st.sp_batch && not st.sp_prepare then begin
      st.sp_prepare <- true;
      span_open t Context.Prepare_phase st.o
    end;
    let body = Message.Prepare { v = st.view_of; o = st.o; digest = st.digest } in
    let env = make_signed t body in
    multicast t ~dsts:t.all_ids env
  end

let accept_pre_prepare t ~(info : Message.order_info) ~v =
  let st = get_order t info.Message.o in
  if st.pre_prepared && (st.view_of > v || not (String.equal st.digest info.Message.digest)) then ()
  else begin
    if (not st.sp_batch) && not st.committed then begin
      st.sp_batch <- true;
      span_open t Context.Batch_phase st.o
    end;
    if st.sp_batch && (not st.sp_preprep) && not st.sent_prepare then begin
      st.sp_preprep <- true;
      span_open t Context.Pre_prepare_phase st.o
    end;
    st.pre_prepared <- true;
    st.view_of <- v;
    st.digest <- info.Message.digest;
    st.keys <- info.Message.keys;
    List.iter (Pool.mark_ordered t.pool) info.Message.keys;
    send_prepare t st;
    try_prepared_point t st;
    try_commit_point t st
  end

(* --------------------------------------------- state transfer (BFT) *)

module Lifecycle = Recovery.Lifecycle (struct
  type nonrec t = t

  let ctx t = t.ctx
  let rcv t = t.rcv
  let f t = t.config.f
  let digest t = t.config.digest
  let fault t = t.fault
  let scheme = ckpt_scheme
  let envelope = make_signed
  let send = send_one
  let multicast = multicast
  let others = others
  let adaptive = adaptive
  let timer_cap = timer_cap
  let fetch_retry_base t = t.config.view_change_timeout
  let delivered t = t.delivered

  let committed_tail t ~base =
    Hashtbl.fold
      (fun o st acc ->
        if o <= t.delivered || o <= base || not st.committed then acc
        else
          let requests = List.filter_map (Pool.find t.pool) st.keys in
          if Int.equal (List.length requests) (List.length st.keys) then
            Recovery.batch_entry t.ctx t.config.digest ~o requests :: acc
          else acc)
      t.orders []

  let adopt_entry t (e : Checkpoint.entry) =
    let st = get_order t e.Checkpoint.e_o in
    if not st.committed then begin
      st.digest <- e.Checkpoint.e_digest;
      st.keys <- List.map (fun (r : Request.t) -> r.Request.key) e.Checkpoint.e_requests;
      st.pre_prepared <- true;
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

(* ----------------------------------------------------------- batching *)

let issue_pre_prepare t info =
  match t.fault with
  | Fault.Equivocate_at at when Int.equal at info.Message.o ->
    (* Equivocating primary: split the backups between two conflicting
       pre-prepare digests.  Neither half can assemble 2f matching prepares
       beyond the quorum-intersection bound, so agreement holds; progress at
       this sequence number waits for the view change. *)
    let b = Bytes.of_string info.Message.digest in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
    let alt = { info with Message.digest = Bytes.to_string b } in
    List.iteri
      (fun i dst ->
        let chosen = if i mod 2 = 0 then info else alt in
        multicast t ~dsts:[ dst ]
          (make_signed t (Message.Pre_prepare { v = t.view; info = chosen })))
      (others t);
    accept_pre_prepare t ~info ~v:t.view
  | _ ->
    let body = Message.Pre_prepare { v = t.view; info } in
    let env = make_signed t body in
    multicast t ~dsts:(others t) env;
    accept_pre_prepare t ~info ~v:t.view

let rec arm_batch_timer t =
  let h =
    t.ctx.Context.set_timer ~delay:t.config.batching_interval (fun () -> batch_tick t)
  in
  t.batch_timer <- Some h

and batch_tick t =
  if i_am_primary t && not t.changing_view then begin
    if Pool.has_unordered t.pool then begin
      let requests = Pool.take_by_key t.pool ~limit:t.config.batch_size_limit in
      let batch = Batch.make requests in
      let o = t.next_seq in
      t.next_seq <- o + 1;
      t.ctx.Context.digest_charge (Batch.encoded_size batch);
      let digest = Batch.digest t.config.digest batch in
      let digest =
        match t.fault with
        | Fault.Corrupt_digest_at at when Int.equal at o ->
          let b = Bytes.of_string digest in
          Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
          Bytes.to_string b
        | _ -> digest
      in
      let info = { Message.o; digest; keys = Batch.keys batch } in
      t.ctx.Context.emit
        (Context.Batched
           { seq = o; requests = Batch.request_count batch; bytes = Batch.encoded_size batch });
      List.iter (Pool.mark_ordered t.pool) info.Message.keys;
      issue_pre_prepare t info
    end;
    arm_batch_timer t
  end

(* ---------------------------------------------------------- view change *)

let prepared_set t =
  Hashtbl.fold
    (fun o st acc ->
      if
        st.pre_prepared && (not st.committed) && o > t.max_committed
        && votes_for ~blind:t.config.unsafe_digest_blind_votes st.prepares
             ~digest:st.digest
           >= 2 * t.config.f
      then { Message.o; digest = st.digest; keys = st.keys } :: acc
      else acc)
    t.orders []
  |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)

let rec arm_vc_timer t =
  let h =
    t.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:t.config.view_change_timeout
      (fun () -> vc_tick t)
  in
  t.vc_timer <- Some h

and vc_tick t =
  if adaptive t && not (i_am_primary t) then send_probe t (primary t);
  let budget = Simtime.add t.config.batching_interval (suspicion_delay t) in
  let now = t.ctx.Context.now () in
  let stalled =
    Simtime.compare (Simtime.add t.last_progress budget) now <= 0
    && Pool.overdue t.pool ~budget ~now
  in
  if stalled && not t.changing_view then start_view_change t (t.view + 1);
  arm_vc_timer t

and start_view_change t v =
  if v > t.view then begin
    t.vc_backoff <- t.vc_backoff + 1;
    (match t.vc_span with
    | Some old -> span_close t Context.View_change_phase old
    | None -> ());
    t.vc_span <- Some v;
    span_open t Context.View_change_phase v;
    t.changing_view <- true;
    (match t.batch_timer with Some h -> h.Context.cancel () | None -> ());
    t.batch_timer <- None;
    let body =
      Message.Bft_view_change { v; prepared = prepared_set t }
    in
    let env = make_signed t body in
    multicast t ~dsts:t.all_ids env
  end

let rec handle_view_change t ~src:_ ~v ~prepared (env : Message.envelope) =
  if v > t.view || (Int.equal v t.view && t.changing_view) then begin
    let voters, infos =
      match Hashtbl.find_opt t.view_changes v with
      | Some (voters, infos) -> (voters, infos)
      | None ->
        let cell = (ref Int_set.empty, ref []) in
        Hashtbl.replace t.view_changes v cell;
        cell
    in
    if not (Int_set.mem env.Message.sender !voters) then begin
      voters := Int_set.add env.Message.sender !voters;
      infos := prepared @ !infos;
      (* Join the view change once f+1 replicas vouch for it (a correct
         replica must be among them). *)
      if Int.equal (Int_set.cardinal !voters) (t.config.f + 1) && not t.changing_view then
        start_view_change t v;
      if Int_set.cardinal !voters >= (2 * t.config.f) + 1 && Int.equal (v mod n t) (id t) then begin
        (* New primary: re-issue pre-prepares for every prepared order. *)
        let by_o = Hashtbl.create 16 in
        List.iter
          (fun (info : Message.order_info) ->
            if info.Message.o > t.max_committed then
              Hashtbl.replace by_o info.Message.o info)
          !infos;
        let pre_prepares =
          Hashtbl.fold (fun _ info acc -> info :: acc) by_o []
          |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
        in
        let body = Message.Bft_new_view { v; pre_prepares } in
        let env' = make_signed t body in
        multicast t ~dsts:(others t) env';
        enter_view t v pre_prepares
      end
    end
  end

and enter_view t v pre_prepares =
  t.view <- v;
  t.changing_view <- false;
  t.vc_backoff <- 0;
  (match t.vc_span with
  | Some old ->
    t.vc_span <- None;
    span_close t Context.View_change_phase old
  | None -> ());
  t.ctx.Context.emit (Context.View_installed { v });
  let top =
    List.fold_left
      (fun acc (i : Message.order_info) -> max acc i.Message.o)
      t.max_committed pre_prepares
  in
  let top = Hashtbl.fold (fun o _ acc -> max o acc) t.orders top in
  List.iter (fun (info : Message.order_info) -> accept_pre_prepare t ~info ~v) pre_prepares;
  if i_am_primary t then begin
    t.next_seq <- top + 1;
    arm_batch_timer t
  end;
  (* Give fresh grace to everything still pending. *)
  let now = t.ctx.Context.now () in
  Pool.restamp t.pool now

let handle_new_view t ~v ~pre_prepares (env : Message.envelope) =
  if v >= t.view && Int.equal env.Message.sender (v mod n t) then enter_view t v pre_prepares

(* -------------------------------------------------------------- inbound *)

let on_request t (req : Request.t) =
  let key = req.Request.key in
  if not (Pool.mem t.pool key) then begin
    if Pool.is_ordered t.pool key then Pool.add t.pool req
    else Pool.add t.pool ~arrival:(t.ctx.Context.now ()) req;
    advance_delivery t
  end

let on_message t ~src (env : Message.envelope) =
  ignore src;
  match env.Message.body with
  | Message.Pre_prepare { v; info } ->
    if Int.equal v t.view && (not t.changing_view) && Int.equal env.Message.sender (primary t)
       && info.Message.o > Recovery.stable_seq t.rcv
       && authentic t env
    then accept_pre_prepare t ~info ~v
  | Message.Prepare { v; o; digest } ->
    (* Sequence numbers at or below the stable checkpoint are settled and
       truncated — stragglers must not resurrect them in the log. *)
    if v <= t.view && o > Recovery.stable_seq t.rcv && authentic t env then begin
      let st = get_order t o in
      st.prepares <- add_vote st.prepares ~sender:env.Message.sender ~digest;
      try_prepared_point t st;
      try_commit_point t st
    end
  | Message.Commit { v; o; digest } ->
    if v <= t.view && o > Recovery.stable_seq t.rcv && authentic t env then begin
      let st = get_order t o in
      st.commits <- add_vote st.commits ~sender:env.Message.sender ~digest;
      try_commit_point t st
    end
  | Message.Bft_view_change { v; prepared } ->
    if authentic t env then handle_view_change t ~src ~v ~prepared env
  | Message.Bft_new_view { v; pre_prepares } ->
    if authentic t env then handle_new_view t ~v ~pre_prepares env
  | Message.Checkpoint { seq; digest } ->
    if
      t.config.checkpoint_interval > 0
      && seq > Recovery.stable_seq t.rcv
      && authentic t env
    then begin
      Recovery.Tally.add (Recovery.tally t.rcv) ~seq ~digest ~signer:env.Message.sender
        ~signature:env.Message.signature;
      maybe_stabilize t ~seq ~digest;
      (* A checkpoint a full interval ahead of our delivery point means we
         are lagging badly — likely freshly restarted; catch up by state
         transfer rather than waiting for retransmissions. *)
      if seq > t.delivered + t.config.checkpoint_interval then request_recovery t
    end
  | Message.State_request { have } ->
    if authentic t env then Lifecycle.serve_state_request t ~src ~have
  | Message.State_response { cert; image; entries } ->
    if authentic t env then Lifecycle.handle_state_response t ~src ~cert ~image ~entries
  | Message.Probe { nonce; at } ->
    (* Echo the sender's timestamp back; replies are liveness-only input so
       they need no verification beyond the estimator's nonce filter. *)
    if adaptive t then
      multicast t ~dsts:[ src ] (make_signed t (Message.Probe_reply { nonce; at }))
  | Message.Probe_reply { nonce; at } ->
    if adaptive t then
      Sof_net.Peer_rtt.note_reply t.rtt ~src ~nonce
        ~rtt:(Simtime.diff (t.ctx.Context.now ()) (Simtime.ns at))
  | Message.Order _ | Message.Ack _ | Message.Fail_signal _ | Message.Back_log _
  | Message.Start _ | Message.Start_ack _ | Message.Start_tuples _
  | Message.View_change _ | Message.New_view _ | Message.Unwilling _
  | Message.Heartbeat _ ->
    ()

let start t =
  if i_am_primary t then arm_batch_timer t;
  arm_vc_timer t

let create ~ctx ~config ?(fault = Fault.Honest) () =
  {
    ctx;
    config;
    fault;
    all_ids = List.init (process_count config) Fun.id;
    view = 0;
    pool = Pool.create ();
    delivered_keys = Key_set.empty;
    orders = Hashtbl.create 64;
    max_committed = 0;
    delivered = 0;
    next_seq = 1;
    batch_timer = None;
    vc_timer = None;
    last_progress = Simtime.zero;
    view_changes = Hashtbl.create 4;
    changing_view = false;
    vc_span = None;
    rcv = Recovery.create ();
    rtt =
      Sof_net.Peer_rtt.create ~peers:(process_count config)
        ~initial:config.view_change_timeout;
    vc_backoff = 0;
  }
