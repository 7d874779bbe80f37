module Request = Sof_smr.Request
module Int_set = Set.Make (Int)

(* A BackLog (step IN1) as the new coordinator keeps it: the sender's claim
   and the evidence for its commit watermark. *)
type backlog_rec = {
  bl_claim : Pair.claim;
  bl_committed_digest : string;
  bl_proof_c : int;
  bl_proof : (int * string) list;
  bl_stable : Checkpoint.cert option;
}

type t = {
  p : Pair.t;
  (* coordinator tracking *)
  mutable coord : int;
  mutable failed_pairs : Int_set.t;
  mutable dumbed_pairs : Int_set.t;
  mutable installing : bool;
  (* install *)
  backlogs_by_c : (int, (int * backlog_rec) list ref) Hashtbl.t;
  mutable start_env : Message.envelope option;
  mutable start_acks : (int * string) list;
  mutable have_tuples : bool;
  mutable sent_tuples : bool;
  mutable start_sent : bool;
  mutable install_span : int option;
}

(* ------------------------------------------------------------ accessors *)

let id t = Pair.id t.p
let coordinator_rank t = t.coord
let max_committed t = t.p.Pair.max_committed
let delivered_seq t = t.p.Pair.delivered
let is_installing t = t.installing
let has_fail_signalled t = t.p.Pair.fail_signalled
let pending_requests t = Pool.size t.p.Pair.pool
let log_length t = Pair.log_length t.p
let stable_checkpoint_seq t = Pair.stable_checkpoint_seq t.p
let latest_stable t = Pair.latest_stable t.p
let client_marks t = Pair.client_marks t.p
let request_recovery t = Pair.request_recovery t.p
let recover_local t = Pair.recover_local t.p
let on_request t req = Pair.on_request t.p req
let start t = Pair.start t.p

let config t = t.p.Pair.config
let live_f t = (config t).Config.f - Int_set.cardinal t.dumbed_pairs

let quorum t =
  Config.process_count (config t) - (config t).Config.f - Int_set.cardinal t.dumbed_pairs

let dumb_ids t =
  Int_set.fold
    (fun r acc ->
      List.fold_left (fun acc m -> Int_set.add m acc) acc (Config.candidate_members (config t) r))
    t.dumbed_pairs Int_set.empty

let is_dumb t = Int_set.mem (id t) (dumb_ids t)

let claims_for t c =
  match Hashtbl.find_opt t.backlogs_by_c c with
  | Some cell -> List.map (fun (_, b) -> b.bl_claim) !cell
  | None -> []

(* New-coordinator-side sanity check of a backlog's commitment proof: at
   least f+1 matching ack signatures — or, falling back, the sender's
   stable checkpoint certificate, which proves commitment through its
   sequence number even when the volatile ack proof died with a crash.
   An unprovable remainder is clamped off the claim; without the durable
   fallback a blackout restart would clamp every recovered claim to zero
   and let the anchor regress below delivered history.  Only pair-c
   members pay these verifications. *)
let validate_backlog t rec_ =
  let p = t.p in
  let upto = rec_.bl_claim.Pair.committed_upto in
  let am_new_member = List.mem (id t) (Config.candidate_members p.Pair.config t.coord) in
  if (not am_new_member) || upto = 0 then rec_
  else begin
    let body_bytes =
      Message.encode_body
        (Message.Ack { c = rec_.bl_proof_c; o = upto; digest = rec_.bl_committed_digest })
    in
    let valid =
      List.filter
        (fun (signer, signature) -> p.Pair.ctx.Context.verify ~signer ~msg:body_bytes ~signature)
        rec_.bl_proof
      |> List.map fst |> List.sort_uniq Int.compare
    in
    if List.length valid >= p.Pair.config.Config.f + 1 then rec_
    else begin
      let cert_seq =
        match rec_.bl_stable with
        | Some c
          when Recovery.verify_cert
                 ~verify:(fun ~signer ~msg ~signature ->
                   p.Pair.ctx.Context.verify_acc ~signer ~msg ~signature)
                 ~scheme:(Pair.ckpt_scheme p) c ->
          c.Checkpoint.cp_seq
        | Some _ | None -> 0
      in
      {
        rec_ with
        bl_claim = { rec_.bl_claim with Pair.committed_upto = min upto cert_seq };
        bl_committed_digest = "";
        bl_proof = [];
      }
    end
  end

(* ---------------------------------------------------- pair fail-signals *)

let rec note_pair_failed t rank =
  let p = t.p in
  if not (Int_set.mem rank t.failed_pairs) then begin
    t.failed_pairs <- Int_set.add rank t.failed_pairs;
    p.Pair.ctx.Context.emit (Context.Fail_signal_observed { pair = rank });
    (* Member of the pair that hasn't signalled yet: join in (the paper's
       rule that receiving the counterpart's fail-signal makes you emit
       yours). *)
    (match p.Pair.pair_rank with
    | Some r when Int.equal r rank && not p.Pair.fail_signalled ->
      Pair.emit_fail_signal p ~value_domain:false
    | Some _ | None -> ());
    if Int.equal rank t.coord then begin
      Pair.open_failover_span p rank;
      begin_install t
    end
  end

(* ----------------------------------------------------------- install *)

and begin_install t =
  let p = t.p in
  let rec next_candidate r =
    if r > Config.candidate_count p.Pair.config then r (* exhausted: f faults already *)
    else if Int_set.mem r t.failed_pairs then next_candidate (r + 1)
    else r
  in
  let failed = t.coord in
  t.coord <- next_candidate (t.coord + 1);
  (match t.install_span with
  | Some r -> Pair.span_close p Context.Install_phase r
  | None -> ());
  t.install_span <- Some t.coord;
  Pair.span_open p Context.Install_phase t.coord;
  t.installing <- true;
  t.start_env <- None;
  t.start_acks <- [];
  t.have_tuples <- false;
  t.sent_tuples <- false;
  t.start_sent <- false;
  Pair.stand_down p;
  (* Messages stashed for this epoch (e.g. backlogs that raced ahead of the
     fail-signal) become processable now. *)
  let stash = Pair.take_future p in
  (* IN1: multicast BackLog.  The watermark this process can PROVE to the
     new coordinator: its ack proof when it survived, else its stable
     checkpoint certificate (the durable proof a crash-restarted replica
     still holds).  Orders known above that provable point are listed even
     if locally committed — a replica that remembers a commit whose proof
     died with a crash must re-offer it, or the install would null-fill
     the sequence and diverge from the delivered history. *)
  let stable = Option.map fst (Pair.latest_stable p) in
  let provable =
    if p.Pair.committed_proof <> [] then p.Pair.max_committed
    else match stable with Some c -> c.Checkpoint.cp_seq | None -> 0
  in
  let uncommitted =
    Hashtbl.fold
      (fun o (st : Pair.order_state) acc ->
        if st.have_order && o > provable then
          { Message.o; digest = st.digest; keys = st.keys } :: acc
        else acc)
      p.Pair.orders []
    |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
  in
  let body =
    Message.Back_log
      {
        c = t.coord;
        failed_pair = failed;
        max_committed = p.Pair.max_committed;
        committed_digest = p.Pair.committed_digest;
        proof_c = p.Pair.committed_era;
        proof = p.Pair.committed_proof;
        stable;
        uncommitted;
      }
  in
  Pair.multicast p ~dsts:(Pair.others p) (Pair.make_signed p body);
  store_backlog t ~src:(id t)
    {
      bl_claim = { Pair.committed_upto = p.Pair.max_committed; uncommitted };
      bl_committed_digest = p.Pair.committed_digest;
      bl_proof_c = p.Pair.committed_era;
      bl_proof = p.Pair.committed_proof;
      bl_stable = stable;
    };
  List.iter (fun (src, env) -> on_message t ~src env) stash

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
  let p = t.p in
  let am_new_primary =
    t.installing && Int.equal (id t) (Config.primary_of_pair p.Pair.config t.coord)
  in
  if am_new_primary && not t.start_sent then begin
    match Hashtbl.find_opt t.backlogs_by_c t.coord with
    | Some cell when List.length !cell >= quorum t ->
      t.start_sent <- true;
      let start_o, anchor, new_back_log = Pair.new_back_log p (claims_for t t.coord) in
      let env = Pair.make_signed p (Message.Start { c = t.coord; start_o; anchor; new_back_log }) in
      if Config.candidate_is_pair p.Pair.config t.coord then
        (* 1-signed to the shadow for endorsement. *)
        Pair.send p ~dst:(Config.shadow_of_pair p.Pair.config t.coord) env
      else begin
        (* The unpaired last candidate multicasts directly. *)
        Pair.multicast p ~dsts:(Pair.others p) env;
        handle_start t env ~c:t.coord
      end
    | Some _ | None -> ()
  end

(* Shadow of the new coordinator: verify the primary's Start against the
   backlogs received directly, endorse and multicast. *)
and handle_start_proposal t (env : Message.envelope) ~start_o ~anchor ~new_back_log =
  match Pair.vet_proposal t.p env (claims_for t t.coord) ~start_o ~anchor ~new_back_log with
  | Some endorsed ->
    (* Only reachable under the dispatch guard [c = t.coord]. *)
    handle_start t endorsed ~c:t.coord
  | None -> ()

and handle_start t (env : Message.envelope) ~c =
  let p = t.p in
  if Int.equal c t.coord && t.installing && Option.is_none t.start_env then begin
    t.start_env <- Some env;
    (* IN3: sign the Start and send the identifier-signature tuple to the
       new coordinator (skipped when f-effective is 1). *)
    let members = Config.candidate_members p.Pair.config c in
    if live_f t > 1 && not (List.mem (id t) members) then begin
      let ack = Pair.make_signed p (Message.Start_ack { c; start_digest = Pair.body_digest p env }) in
      List.iter (fun m -> Pair.send p ~dst:m ack) members
    end;
    try_finish_install t
  end

and handle_start_ack t (env : Message.envelope) ~c ~start_digest =
  let p = t.p in
  let members = Config.candidate_members p.Pair.config c in
  if
    t.installing && Int.equal c t.coord
    && List.mem (id t) members
    && (not (List.mem env.Message.sender members))
    && not (List.mem_assoc env.Message.sender t.start_acks)
  then begin
    (* Only count tuples that match our own Start. *)
    let matches =
      match t.start_env with
      | Some start -> String.equal (Pair.body_digest p start) start_digest
      | None -> false
    in
    if matches then begin
      t.start_acks <- (env.Message.sender, env.Message.signature) :: t.start_acks;
      if List.length t.start_acks >= live_f t - 1 && not t.sent_tuples then begin
        t.sent_tuples <- true;
        let body = Message.Start_tuples { c; tuples = t.start_acks } in
        Pair.multicast p ~dsts:(Pair.others p) (Pair.make_signed p body);
        t.have_tuples <- true;
        try_finish_install t
      end
    end
  end

and handle_start_tuples t ~c ~tuples =
  let p = t.p in
  if t.installing && Int.equal c t.coord && not t.have_tuples then begin
    match t.start_env with
    | None -> () (* Start not here yet; tuples will be re-derived from stash *)
    | Some start ->
      let start_digest = Pair.body_digest p start in
      let body_bytes = Message.encode_body (Message.Start_ack { c; start_digest }) in
      let members = Config.candidate_members p.Pair.config c in
      let valid =
        List.filter
          (fun (signer, signature) ->
            (not (List.mem signer members))
            && p.Pair.ctx.Context.verify ~signer ~msg:body_bytes ~signature)
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
        ({ Message.body = Message.Start { c; start_o; anchor; new_back_log }; _ } as start_env)
      when live_f t <= 1 || t.have_tuples ->
      finish_install t start_env ~c ~start_o ~anchor ~new_back_log
    | Some _ | None -> ()
  end

and finish_install t (start_env : Message.envelope) ~c ~start_o ~anchor ~new_back_log =
  let p = t.p in
  t.installing <- false;
  (* First optimisation (Section 4.3): every passed-over pair turns dumb;
     n shrinks by 2 and f by 1 per pair. *)
  if p.Pair.config.Config.dumb_optimization then
    t.dumbed_pairs <- Int_set.filter (fun r -> r < t.coord) t.failed_pairs;
  (* Adopt the NewBackLog; the Start itself is an order at start_o (step
     IN5). *)
  let st = Pair.adopt_new_back_log p start_env ~era:c ~start_o ~anchor ~new_back_log in
  (match t.install_span with
  | Some r ->
    t.install_span <- None;
    Pair.span_close p Context.Install_phase r
  | None -> ());
  Pair.close_failover_span p;
  p.Pair.ctx.Context.emit (Context.Coordinator_installed { rank = t.coord });
  (* An anchor beyond our delivery point proves the cluster committed
     sequences we will never see retransmitted (the rememberers may have
     truncated them behind a stable checkpoint): catch up through state
     transfer rather than stalling delivery for the whole new era. *)
  if p.Pair.delivered < anchor then Pair.request_recovery p;
  (* Ack the Start through the normal part. *)
  Pair.send_ack p st;
  Pair.try_commit p st;
  (* Replay messages that raced ahead of this install. *)
  List.iter (fun (src, env) -> on_message t ~src env) (Pair.take_future p)

(* -------------------------------------------------------------- inbound *)

and on_message t ~src (env : Message.envelope) =
  let p = t.p in
  Pair.note_heard p ~src;
  match env.Message.body with
  | Message.Fail_signal { pair } ->
    if
      pair >= 1
      && pair <= Config.pair_count p.Pair.config
      && (not (Int_set.mem pair t.failed_pairs))
      && Pair.fail_signal_authentic p ~pair env
    then begin
      (* Echo to the first signatory in case the second maliciously omitted
         it (Section 3.2). *)
      Pair.send p ~dst:env.Message.sender env;
      note_pair_failed t pair
    end
  | Message.Back_log { c; max_committed; committed_digest; proof_c; proof; stable; uncommitted; _ }
    ->
    if Pair.authentic p env then begin
      if Int.equal c t.coord && t.installing then begin
        let rec_ =
          {
            bl_claim = { Pair.committed_upto = max_committed; uncommitted };
            bl_committed_digest = committed_digest;
            bl_proof_c = proof_c;
            bl_proof = proof;
            bl_stable = stable;
          }
        in
        store_backlog t ~src:env.Message.sender (validate_backlog t rec_)
      end
      else if c > t.coord then Pair.defer p ~src env
    end
  | Message.Start { c; start_o; anchor; new_back_log } ->
    if Pair.authentic p env then begin
      if Int.equal c t.coord && t.installing then begin
        if Option.is_none env.Message.endorsement && Config.candidate_is_pair p.Pair.config c
        then begin
          (* 1-signed proposal: only the shadow of the new pair endorses. *)
          if
            Int.equal (id t) (Config.shadow_of_pair p.Pair.config c)
            && Int.equal env.Message.sender (Config.primary_of_pair p.Pair.config c)
          then handle_start_proposal t env ~start_o ~anchor ~new_back_log
        end
        else if Pair.valid_coordinator_message p ~rank:c env then begin
          (* The new primary also forwards the endorsed Start outward. *)
          if
            Int.equal (id t) (Config.primary_of_pair p.Pair.config c)
            && Pair.own_endorsed_return p ~src env
          then
            Pair.multicast p ~dsts:(Pair.others p) env;
          handle_start t env ~c
        end
      end
      else if c > t.coord then Pair.defer p ~src env
    end
  | Message.Start_ack { c; start_digest } ->
    if Pair.authentic p env then handle_start_ack t env ~c ~start_digest
  | Message.Start_tuples { c; tuples } ->
    if Pair.authentic p env then begin
      if Int.equal c t.coord && t.installing then handle_start_tuples t ~c ~tuples
      else if c > t.coord then Pair.defer p ~src env
    end
  | Message.Heartbeat _ | Message.Order _ | Message.Ack _ | Message.Checkpoint _
  | Message.State_request _ | Message.State_response _ | Message.Probe _
  | Message.Probe_reply _ ->
    Pair.on_message p ~src env
  | Message.View_change _ | Message.New_view _ | Message.Unwilling _ | Message.Pre_prepare _
  | Message.Prepare _ | Message.Commit _ | Message.Bft_view_change _ | Message.Bft_new_view _ ->
    () (* other protocols' traffic: not ours *)

let create ~ctx ~config ?(fault = Fault.Honest) ?counterpart_fail_signal () =
  let p =
    Pair.create ~caller:"Sc.create" ~variant:Config.SC ~ctx ~config ~fault
      ~counterpart_fail_signal
  in
  let t =
    {
      p;
      coord = 1;
      failed_pairs = Int_set.empty;
      dumbed_pairs = Int_set.empty;
      installing = false;
      backlogs_by_c = Hashtbl.create 4;
      start_env = None;
      start_acks = [];
      have_tuples = false;
      sent_tuples = false;
      start_sent = false;
      install_span = None;
    }
  in
  Pair.attach p
    {
      Pair.era = (fun () -> t.coord);
      rank_of = Fun.id;
      replacing = (fun () -> t.installing);
      quorum = (fun () -> quorum t);
      dumb = (fun () -> is_dumb t);
      pair_failed =
        (fun ~rank ~value_domain:_ ->
          (* Under SC2 a fail-signalled pair is faulty for good: it stops
             heartbeating and never comes back. *)
          p.Pair.status <- Pair.Permanently_down;
          Pair.cancel_timer p.Pair.heartbeat_timer;
          p.Pair.heartbeat_timer <- None;
          note_pair_failed t rank);
      recover = ignore;
    };
  t
