type scheme =
  | Quorum_signed of { quorum : int; member_ok : int -> bool }
  | Quorum_counted of { quorum : int; member_ok : int -> bool }
  | Pair_endorsed of { pair_ok : primary:int -> endorser:int option -> bool }

let cert_payload ~seq ~digest = Message.encode_body (Message.Checkpoint { seq; digest })

let distinct_signers proof =
  let rec go seen = function
    | [] -> true
    | (s, _) :: rest -> (not (List.exists (Int.equal s) seen)) && go (s :: seen) rest
  in
  go [] proof

let verify_cert ~verify ~scheme (c : Checkpoint.cert) =
  c.Checkpoint.cp_seq > 0
  && distinct_signers c.Checkpoint.cp_proof
  &&
  let payload = cert_payload ~seq:c.Checkpoint.cp_seq ~digest:c.Checkpoint.cp_digest in
  match scheme with
  | Quorum_signed { quorum; member_ok } ->
    List.length c.Checkpoint.cp_proof >= quorum
    && List.for_all (fun (s, _) -> member_ok s) c.Checkpoint.cp_proof
    && List.for_all
         (fun (s, signature) -> verify ~signer:s ~msg:payload ~signature)
         c.Checkpoint.cp_proof
  | Quorum_counted { quorum; member_ok } ->
    (* Crash-only model: claims are unsigned, distinct legitimate senders
       suffice (at least one of any f+1 is correct). *)
    List.length c.Checkpoint.cp_proof >= quorum
    && List.for_all (fun (s, _) -> member_ok s) c.Checkpoint.cp_proof
  | Pair_endorsed { pair_ok } -> begin
    let body =
      Message.Checkpoint { seq = c.Checkpoint.cp_seq; digest = c.Checkpoint.cp_digest }
    in
    match (c.Checkpoint.cp_proof, c.Checkpoint.cp_endorsement) with
    | [ (p, signature) ], None ->
      pair_ok ~primary:p ~endorser:None && verify ~signer:p ~msg:payload ~signature
    | [ (p, signature) ], Some (s, endorsement) ->
      pair_ok ~primary:p ~endorser:(Some s)
      && verify ~signer:p ~msg:payload ~signature
      && verify ~signer:s
           ~msg:(Message.endorsement_payload body signature)
           ~signature:endorsement
    | _ -> false
  end

module Tally = struct
  type vote = { v_digest : string; v_signer : int; v_signature : string }

  type t = { votes : (int, vote list) Hashtbl.t }

  let create () = { votes = Hashtbl.create 16 }

  let add t ~seq ~digest ~signer ~signature =
    let cur = Option.value (Hashtbl.find_opt t.votes seq) ~default:[] in
    if not (List.exists (fun v -> Int.equal v.v_signer signer) cur) then
      Hashtbl.replace t.votes seq
        ({ v_digest = digest; v_signer = signer; v_signature = signature } :: cur)

  let proof t ~seq ~digest =
    let cur = Option.value (Hashtbl.find_opt t.votes seq) ~default:[] in
    List.rev
      (List.filter_map
         (fun v ->
           if String.equal v.v_digest digest then Some (v.v_signer, v.v_signature)
           else None)
         cur)

  let count t ~seq ~digest = List.length (proof t ~seq ~digest)

  let prune t ~upto =
    let stale =
      Hashtbl.fold (fun seq _ acc -> if seq <= upto then seq :: acc else acc) t.votes []
    in
    List.iter (Hashtbl.remove t.votes) stale
end

(* One State_response, recorded only after its certificate and image
   digest checked out (see [offer_ok]). *)
type offer = {
  st_from : int;  (* responder: transport source, not envelope creator *)
  st_cert : Checkpoint.cert option;
  st_image : string;
  st_entries : Checkpoint.entry list;
}

(* How many boundary images to keep around: the latest plus enough history
   to endorse and serve checkpoints still in flight. *)
let image_window = 4

type state = {
  mutable images : (int * string) list;  (* newest first *)
  st_tally : Tally.t;
  mutable stables : (Checkpoint.cert * string) list;  (* newest first, at most 2 *)
  mutable st_offers : offer list;
  mutable st_fetching : bool;
  mutable st_fetch_anchor : int;
  mutable st_fetch_timer : Context.timer option;
  mutable st_fetch_backoff : int;  (* doublings applied to fetch retries *)
  mutable st_recent : (int * Sof_smr.Request.t list) list;  (* newest first *)
  st_marks : (int, int) Hashtbl.t;  (* client -> highest delivered client_seq *)
}

let create () =
  {
    images = [];
    st_tally = Tally.create ();
    stables = [];
    st_offers = [];
    st_fetching = false;
    st_fetch_anchor = 0;
    st_fetch_timer = None;
    st_fetch_backoff = 0;
    st_recent = [];
    st_marks = Hashtbl.create 16;
  }

let tally state = state.st_tally

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let note_image state ~seq ~image =
  if not (List.exists (fun (s, _) -> Int.equal s seq) state.images) then
    state.images <- take image_window ((seq, image) :: state.images)

let image_at state ~seq =
  Option.map snd (List.find_opt (fun (s, _) -> Int.equal s seq) state.images)

let stable_seq state =
  match state.stables with [] -> 0 | (c, _) :: _ -> c.Checkpoint.cp_seq

let note_stable state ~cert ~image =
  if cert.Checkpoint.cp_seq <= stable_seq state then false
  else begin
    state.stables <- take 2 ((cert, image) :: state.stables);
    Tally.prune state.st_tally ~upto:cert.Checkpoint.cp_seq;
    true
  end

let latest_stable state =
  match state.stables with [] -> None | s :: _ -> Some s

let previous_stable state =
  match state.stables with _ :: p :: _ -> Some p | [] | [ _ ] -> None

let add_offer state offer =
  state.st_offers <-
    offer :: List.filter (fun o -> not (Int.equal o.st_from offer.st_from)) state.st_offers

let clear_offers state = state.st_offers <- []

(* Among collected offers, the certified image with the highest checkpoint
   sequence number strictly above [above]: (certificate, image, responder). *)
let best_image state ~above =
  List.fold_left
    (fun best off ->
      match off.st_cert with
      | Some c when c.Checkpoint.cp_seq > above -> begin
        match best with
        | Some (bc, _, _) when bc.Checkpoint.cp_seq >= c.Checkpoint.cp_seq -> best
        | Some _ | None -> Some (c, off.st_image, off.st_from)
      end
      | Some _ | None -> best)
    None state.st_offers

(* The longest contiguous log suffix from [base + 1] whose every entry's
   digest is claimed by at least [quorum] distinct responders and whose
   chosen body passes [entry_ok] (digest recomputation).  With [quorum]
   covering at least one correct responder, no fabricated entry survives. *)
let select_entries ~quorum ~base ~entry_ok state =
  let claims_at o =
    List.filter_map
      (fun off ->
        Option.map
          (fun e -> (off.st_from, e))
          (List.find_opt (fun (e : Checkpoint.entry) -> Int.equal e.Checkpoint.e_o o) off.st_entries))
      state.st_offers
  in
  let rec go acc o =
    let claims = claims_at o in
    let pick =
      List.find_opt
        (fun ((_, e) : int * Checkpoint.entry) ->
          let supporters =
            List.filter
              (fun ((_, e') : int * Checkpoint.entry) ->
                String.equal e'.Checkpoint.e_digest e.Checkpoint.e_digest)
              claims
          in
          List.length supporters >= quorum && entry_ok e)
        claims
    in
    match pick with
    | Some (_, e) -> go (e :: acc) (o + 1)
    | None -> List.rev acc
  in
  go [] (base + 1)

(* Per-client delivery high-water marks: the deterministic at-most-once
   filter that travels inside checkpoint images (see Checkpoint.wrap_image).
   Raw delivered-key sets are pruned at each process's own truncation pace,
   so they cannot be compared or transferred; the marks only depend on the
   delivered order prefix, which agreement makes common. *)

let fresh_key state (k : Sof_smr.Request.key) =
  match Hashtbl.find_opt state.st_marks k.Sof_smr.Request.client with
  | Some last -> k.Sof_smr.Request.client_seq > last
  | None -> true

let mark_delivered state (k : Sof_smr.Request.key) =
  let cur =
    Option.value
      (Hashtbl.find_opt state.st_marks k.Sof_smr.Request.client)
      ~default:(-1)
  in
  if k.Sof_smr.Request.client_seq > cur then
    Hashtbl.replace state.st_marks k.Sof_smr.Request.client
      k.Sof_smr.Request.client_seq

let marks state =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Hashtbl.fold (fun client last acc -> (client, last) :: acc) state.st_marks [])

let merge_marks state marks =
  List.iter
    (fun (client, last) ->
      let cur = Option.value (Hashtbl.find_opt state.st_marks client) ~default:(-1) in
      if last > cur then Hashtbl.replace state.st_marks client last)
    marks

let note_delivered state ~seq requests = state.st_recent <- (seq, requests) :: state.st_recent

let prune_delivered state ~upto =
  let dropped, kept = List.partition (fun (o, _) -> o <= upto) state.st_recent in
  state.st_recent <- kept;
  List.concat_map snd dropped

(* The highest sequence number any collected offer can take us to. *)
let fetch_target state =
  List.fold_left
    (fun acc off ->
      let acc =
        match off.st_cert with Some c -> max acc c.Checkpoint.cp_seq | None -> acc
      in
      List.fold_left
        (fun acc (e : Checkpoint.entry) -> max acc e.Checkpoint.e_o)
        acc off.st_entries)
    0 state.st_offers

(* Matching claims a transferred entry needs: f+1 under the Byzantine
   schemes (one claimant is correct), 1 under crash-only [Quorum_counted]
   (every responder is correct). *)
let entry_quorum ~f = function
  | Quorum_counted _ -> 1
  | Quorum_signed _ | Pair_endorsed _ -> f + 1

let batch_entry (ctx : Context.t) alg ~o requests =
  let batch = Batch.make requests in
  ctx.Context.digest_charge (Batch.encoded_size batch);
  { Checkpoint.e_o = o; e_digest = Batch.digest alg batch; e_requests = requests }

let flip_first_byte s =
  let b = Bytes.of_string s in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  Bytes.to_string b

(* ------------------------------------------------- the shared lifecycle *)

module type CORE = sig
  type t

  val ctx : t -> Context.t
  val rcv : t -> state
  val f : t -> int
  val digest : t -> Sof_crypto.Digest_alg.t
  val fault : t -> Fault.t
  val scheme : t -> scheme
  val envelope : t -> Message.body -> Message.envelope
  val send : t -> dst:int -> Message.envelope -> unit
  val multicast : t -> dsts:int list -> Message.envelope -> unit
  val others : t -> int list
  val adaptive : t -> bool
  val timer_cap : t -> Sof_sim.Simtime.t
  val fetch_retry_base : t -> Sof_sim.Simtime.t
  val delivered : t -> int
  val committed_tail : t -> base:int -> Checkpoint.entry list
  val adopt_entry : t -> Checkpoint.entry -> unit
  val move_to_image : t -> seq:int -> unit
  val advance_delivery : t -> unit
  val fence_minting : t -> unit
end

module Lifecycle (C : CORE) = struct
  let span_close t phase seq = (C.ctx t).Context.emit (Context.Span_close { phase; seq })

  (* Serve the stable checkpoint image (when the requester is behind it),
     the retained delivered batches, and the committed-but-undelivered tail.
     Delivered entries are served as the batch actually handed to the
     service (duplicates already filtered) with the digest recomputed over
     exactly those requests — correct processes filter identically, so
     their digests agree and an entry quorum pins each entry down at the
     requester.  A Byzantine responder can serve a corrupt image
     ([Corrupt_checkpoint_image]), a lazily stale checkpoint
     ([Stale_checkpoint]) or tampered entry digests ([Corrupt_wal_suffix]):
     the first is rejected against the certified digest, the second loses
     to fresher offers, the third fails the entry checks. *)
  let serve_state_request t ~src ~have =
    let rcv = C.rcv t in
    let stable =
      match C.fault t with
      | Fault.Stale_checkpoint -> previous_stable rcv
      | _ -> latest_stable rcv
    in
    let cert, image =
      match stable with
      | Some (c, img) when c.Checkpoint.cp_seq > have -> (Some c, img)
      | Some _ | None -> (None, "")
    in
    let image =
      match C.fault t with
      | Fault.Corrupt_checkpoint_image when String.length image > 0 -> flip_first_byte image
      | _ -> image
    in
    let base = match cert with Some c -> max have c.Checkpoint.cp_seq | None -> have in
    let entries =
      match C.fault t with
      | Fault.Stale_checkpoint -> []
      | _ ->
        let delivered_entries =
          List.filter_map
            (fun (o, requests) ->
              if o > base then Some (batch_entry (C.ctx t) (C.digest t) ~o requests)
              else None)
            rcv.st_recent
        in
        let tail = C.committed_tail t ~base in
        List.sort
          (fun (a : Checkpoint.entry) b -> Int.compare a.Checkpoint.e_o b.Checkpoint.e_o)
          (delivered_entries @ tail)
    in
    let entries =
      match C.fault t with
      | Fault.Corrupt_wal_suffix ->
        List.map
          (fun (e : Checkpoint.entry) ->
            match e.Checkpoint.e_digest with
            | "" -> e
            | d -> { e with Checkpoint.e_digest = flip_first_byte d })
          entries
      | _ -> entries
    in
    C.send t ~dst:src (C.envelope t (Message.State_response { cert; image; entries }))

  let entry_ok t (e : Checkpoint.entry) =
    let batch = Batch.make e.Checkpoint.e_requests in
    (C.ctx t).Context.digest_charge (Batch.encoded_size batch);
    String.equal (Batch.digest (C.digest t) batch) e.Checkpoint.e_digest

  (* Install the best certified image above our delivery point, then the
     contiguous entry suffix with [entry_quorum] matching claims per entry.
     Transferred entries enter the log as committed and are delivered by the
     normal in-sequence walk; no Committed event is re-emitted for them
     (they were counted at their original commit). *)
  let install_from_offers ?(announce = true) t ~entry_quorum =
    let ctx = C.ctx t and rcv = C.rcv t in
    let image_installed =
      match best_image rcv ~above:(C.delivered t) with
      | Some (cert, image, _) -> begin
        match Checkpoint.unwrap_image image with
        | None -> false (* digest-verified yet malformed: refuse quietly *)
        | Some (snap, marks) ->
          let seq = cert.Checkpoint.cp_seq in
          ctx.Context.restore snap;
          merge_marks rcv marks;
          note_image rcv ~seq ~image;
          if note_stable rcv ~cert ~image then
            ctx.Context.emit
              (Context.Checkpoint_stable { seq; digest = cert.Checkpoint.cp_digest });
          C.move_to_image t ~seq;
          true
      end
      | None -> false
    in
    let installed_at = C.delivered t in
    let entries =
      select_entries ~quorum:entry_quorum ~base:installed_at ~entry_ok:(entry_ok t) rcv
    in
    List.iter (C.adopt_entry t) entries;
    if announce && (image_installed || entries <> []) then
      ctx.Context.emit
        (Context.State_transfer_installed
           { seq = installed_at; entries = List.length entries });
    C.advance_delivery t

  (* The certificate (under the core's scheme) and the image bytes against
     the certified digest; entries are checked one by one at install. *)
  let offer_ok t ~cert ~image =
    match cert with
    | None -> true
    | Some c ->
      let ctx = C.ctx t in
      ctx.Context.digest_charge (String.length image);
      verify_cert
        ~verify:(fun ~signer ~msg ~signature -> ctx.Context.verify_acc ~signer ~msg ~signature)
        ~scheme:(C.scheme t) c
      && String.equal (Checkpoint.image_digest (C.digest t) image) c.Checkpoint.cp_digest

  (* Local-first recovery: the locally persisted checkpoint image and WAL
     entry suffix enter as a synthetic self-offer, verified exactly like a
     peer's State_response.  Entry quorum 1: the replica vouches only for
     its own log, and the digest checks exclude any torn or tampered suffix
     entry by entry.  The install stays silent — the harness announces a
     local replay as [Wal_replayed], keeping transfer accounting honest. *)
  let recover_local t ~cert ~image ~entries =
    let ctx = C.ctx t and rcv = C.rcv t in
    let before = C.delivered t in
    if not (offer_ok t ~cert ~image) then begin
      ctx.Context.emit (Context.State_transfer_rejected { from = ctx.Context.id });
      false
    end
    else begin
      clear_offers rcv;
      add_offer rcv
        { st_from = ctx.Context.id; st_cert = cert; st_image = image; st_entries = entries };
      install_from_offers ~announce:false t ~entry_quorum:1;
      clear_offers rcv;
      C.fence_minting t;
      C.delivered t > before
    end

  let attempt_install t =
    install_from_offers t ~entry_quorum:(entry_quorum ~f:(C.f t) (C.scheme t))

  (* End the fetch only after offers from f+1 distinct responders (so at
     least one is honest) all fall at or below what we have delivered: a
     single early "nothing above your watermark" reply — a peer that is
     itself recovering, or one whose stable checkpoint we already hold —
     must not end the fetch before a helpful offer arrives. *)
  let maybe_end_fetch t =
    let rcv = C.rcv t in
    if
      rcv.st_fetching
      && List.length rcv.st_offers > C.f t
      && C.delivered t >= fetch_target rcv
    then begin
      span_close t Context.Recovery_phase rcv.st_fetch_anchor;
      rcv.st_fetching <- false;
      (match rcv.st_fetch_timer with Some h -> h.Context.cancel () | None -> ());
      rcv.st_fetch_timer <- None;
      rcv.st_fetch_backoff <- 0;
      clear_offers rcv
    end

  let rec fetch_tick t =
    let rcv = C.rcv t in
    if rcv.st_fetching then begin
      clear_offers rcv;
      C.multicast t ~dsts:(C.others t)
        (C.envelope t (Message.State_request { have = C.delivered t }));
      let base = C.fetch_retry_base t in
      let delay =
        if C.adaptive t then begin
          let d =
            Sof_net.Delay_estimator.backed_off base ~level:rcv.st_fetch_backoff
              ~cap:(C.timer_cap t)
          in
          rcv.st_fetch_backoff <- rcv.st_fetch_backoff + 1;
          d
        end
        else base
      in
      rcv.st_fetch_timer <-
        Some ((C.ctx t).Context.set_timer ~delay (fun () -> fetch_tick t))
    end

  let request_recovery t =
    let ctx = C.ctx t and rcv = C.rcv t in
    if not rcv.st_fetching then begin
      let have = C.delivered t in
      rcv.st_fetching <- true;
      rcv.st_fetch_anchor <- have;
      ctx.Context.emit (Context.State_transfer_started { have });
      ctx.Context.emit (Context.Span_open { phase = Context.Recovery_phase; seq = have });
      fetch_tick t
    end

  let handle_state_response t ~src ~cert ~image ~entries =
    let rcv = C.rcv t in
    if rcv.st_fetching then begin
      if not (offer_ok t ~cert ~image) then
        (C.ctx t).Context.emit (Context.State_transfer_rejected { from = src })
      else begin
        add_offer rcv { st_from = src; st_cert = cert; st_image = image; st_entries = entries };
        attempt_install t;
        maybe_end_fetch t
      end
    end
end
