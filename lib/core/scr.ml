type status = Pair.status = Up | Down | Permanently_down

type t = {
  p : Pair.t;
  (* view *)
  mutable view : int;
  mutable changing_view : bool;
  mutable target_view : int;  (* the view we are trying to install *)
  (* view change *)
  view_changes : (int, (int * Pair.claim) list ref) Hashtbl.t;
  mutable new_view_sent : bool;
  mutable nv_watch : Context.timer option;
  echoed_fail_signals : (int * int * int, unit) Hashtbl.t;
      (* (pair, first signatory, view): echo and react once per view *)
  mutable vc_span : int option;
}

(* ------------------------------------------------------------ accessors *)

let id t = Pair.id t.p
let view t = t.view
let pair_status t = t.p.Pair.status
let max_committed t = t.p.Pair.max_committed
let delivered_seq t = t.p.Pair.delivered
let changing_view t = t.changing_view
let log_length t = Pair.log_length t.p
let stable_checkpoint_seq t = Pair.stable_checkpoint_seq t.p
let latest_stable t = Pair.latest_stable t.p
let client_marks t = Pair.client_marks t.p
let request_recovery t = Pair.request_recovery t.p
let recover_local t = Pair.recover_local t.p
let on_request t req = Pair.on_request t.p req
let start t = Pair.start t.p

let config t = t.p.Pair.config

let candidate_of_view t v =
  let k = Config.candidate_count (config t) in
  let m = v mod k in
  if m = 0 then k else m

let coordinator_rank t = candidate_of_view t t.view
let quorum t = Config.process_count (config t) - (config t).Config.f

let claims_for t v =
  match Hashtbl.find_opt t.view_changes v with Some cell -> List.map snd !cell | None -> []

(* Continued mutual checking: hearing from the counterpart again in a
   timely way means the bad period has passed (assumption 3(b)(i)) —
   resume working as a pair. *)
let recover t =
  let p = t.p in
  p.Pair.status <- Up;
  p.Pair.fail_signalled <- false;
  p.Pair.hb_level <- 0;
  p.Pair.ctx.Context.emit
    (Context.Pair_recovered { pair = Option.value p.Pair.pair_rank ~default:0 })

(* ------------------------------------------------------------ view change *)

let rec note_pair_failed t rank =
  let p = t.p in
  p.Pair.ctx.Context.emit (Context.Fail_signal_observed { pair = rank });
  if Int.equal rank (coordinator_rank t) && not t.changing_view then begin
    Pair.open_failover_span p rank;
    propose_view_change t (t.view + 1)
  end

and propose_view_change t v =
  let p = t.p in
  if v > t.view && ((not t.changing_view) || v > t.target_view) then begin
    (* On escalation (Unwilling, competing proposals) the old target's span
       closes and the new one opens, keeping opens and closes balanced. *)
    (match t.vc_span with
    | Some old -> Pair.span_close p Context.View_change_phase old
    | None -> ());
    t.vc_span <- Some v;
    Pair.span_open p Context.View_change_phase v;
    t.changing_view <- true;
    t.target_view <- v;
    t.new_view_sent <- false;
    Pair.stand_down p;
    Pair.cancel_timer t.nv_watch;
    t.nv_watch <- None;
    let uncommitted =
      Hashtbl.fold
        (fun o (st : Pair.order_state) acc ->
          if st.have_order && (not st.committed) && o > p.Pair.max_committed then
            { Message.o; digest = st.digest; keys = st.keys } :: acc
          else acc)
        p.Pair.orders []
      |> List.sort (fun a b -> Int.compare a.Message.o b.Message.o)
    in
    let body =
      Message.View_change
        {
          v;
          max_committed = p.Pair.max_committed;
          committed_digest = p.Pair.committed_digest;
          uncommitted;
        }
    in
    Pair.multicast p ~dsts:(Pair.others p) (Pair.make_signed p body);
    store_view_change t ~src:(id t) ~v { Pair.committed_upto = p.Pair.max_committed; uncommitted };
    (* The candidate pair for v declares unwillingness at once. *)
    maybe_unwilling t v
  end

and maybe_unwilling t v =
  let p = t.p in
  match p.Pair.pair_rank with
  (* The [Unwilling_spam] saboteur declares unwillingness even while Up,
     pushing every view past its own candidacies. *)
  | Some rank
    when Int.equal rank (candidate_of_view t v)
         && (p.Pair.status <> Up || p.Pair.fault = Fault.Unwilling_spam) ->
    Pair.multicast p ~dsts:(Pair.others p) (Pair.make_signed p (Message.Unwilling { v; pair = rank }))
  | Some _ | None -> ()

and store_view_change t ~src ~v claim =
  let cell =
    match Hashtbl.find_opt t.view_changes v with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.replace t.view_changes v cell;
      cell
  in
  if not (List.mem_assoc src !cell) then begin
    cell := (src, claim) :: !cell;
    maybe_send_new_view t v;
    arm_nv_watch t v
  end

and has_view_change_quorum t v =
  match Hashtbl.find_opt t.view_changes v with
  | Some cell -> List.length !cell >= quorum t
  | None -> false

(* The new coordinator primary computes the new backlog out of n-f
   ViewChange messages and sends the NewView to its shadow for
   endorsement. *)
and maybe_send_new_view t v =
  let p = t.p in
  let rank = candidate_of_view t v in
  if
    t.changing_view && Int.equal v t.target_view && p.Pair.status = Up
    && Int.equal (id t) (Config.primary_of_pair p.Pair.config rank)
    && (not t.new_view_sent) && has_view_change_quorum t v
  then begin
    t.new_view_sent <- true;
    let start_o, anchor, new_back_log = Pair.new_back_log p (claims_for t v) in
    let env = Pair.make_signed p (Message.New_view { v; start_o; anchor; new_back_log }) in
    Pair.send p ~dst:(Config.shadow_of_pair p.Pair.config rank) env
  end

(* The shadow of the candidate pair watches its primary during a view
   change: if the primary has a quorum of ViewChanges but produces no
   NewView proposal within the delay estimate, that is a time-domain
   failure. *)
and arm_nv_watch t v =
  let p = t.p in
  let rank = candidate_of_view t v in
  if
    t.changing_view && Int.equal v t.target_view && p.Pair.status = Up
    && Option.is_none t.nv_watch
    && Int.equal (id t) (Config.shadow_of_pair p.Pair.config rank)
    && has_view_change_quorum t v
  then
    t.nv_watch <-
      Some
        (p.Pair.ctx.Context.set_timer ~kind:Context.Watchdog ~delay:(Pair.pair_estimate p)
           (fun () ->
             t.nv_watch <- None;
             if t.changing_view && Int.equal v t.target_view && p.Pair.status = Up then begin
               Pair.emit_fail_signal p ~value_domain:false;
               maybe_unwilling t v
             end))

(* Shadow-side plausibility check mirroring SC's Start verification. *)
and handle_new_view_proposal t (env : Message.envelope) ~v ~start_o ~anchor ~new_back_log =
  match Pair.vet_proposal t.p env (claims_for t v) ~start_o ~anchor ~new_back_log with
  | Some endorsed -> install_view t endorsed ~v ~start_o ~anchor ~new_back_log
  | None -> ()

and install_view t (env : Message.envelope) ~v ~start_o ~anchor ~new_back_log =
  (* PBFT's rule: never install below the view this process is changing to.
     A late NewView(v) after proposing v+1 would ack its start placeholder,
     and NewView(v+1) may reuse that start sequence with another digest;
     one ack per sequence then leaves it short of n-f votes. *)
  if v >= t.target_view then begin
    let p = t.p in
    t.view <- v;
    t.changing_view <- false;
    t.target_view <- v;
    Pair.cancel_timer t.nv_watch;
    t.nv_watch <- None;
    let st = Pair.adopt_new_back_log p env ~era:v ~start_o ~anchor ~new_back_log in
    (match t.vc_span with
    | Some old ->
      t.vc_span <- None;
      Pair.span_close p Context.View_change_phase old
    | None -> ());
    Pair.close_failover_span p;
    p.Pair.ctx.Context.emit (Context.View_installed { v });
    Pair.send_ack p st;
    Pair.try_commit p st;
    List.iter (fun (src, env) -> on_message t ~src env) (Pair.take_future p)
  end

(* -------------------------------------------------------------- inbound *)

and on_message t ~src (env : Message.envelope) =
  let p = t.p in
  Pair.note_heard p ~src;
  match env.Message.body with
  | Message.Fail_signal { pair } ->
    let key = (pair, env.Message.sender, t.view) in
    if
      pair >= 1
      && pair <= Config.pair_count p.Pair.config
      && (not (Hashtbl.mem t.echoed_fail_signals key))
      && Pair.fail_signal_authentic p ~pair env
    then begin
      Hashtbl.replace t.echoed_fail_signals key ();
      (* Echo once to the first signatory (not to ourselves). *)
      if not (Int.equal env.Message.sender (id t)) then Pair.send p ~dst:env.Message.sender env;
      (* A member that has not signalled joins its counterpart's signal. *)
      (match p.Pair.pair_rank with
      | Some r when Int.equal r pair && p.Pair.status = Up ->
        Pair.emit_fail_signal p ~value_domain:false
      | Some _ | None -> ());
      note_pair_failed t pair
    end
  | Message.View_change { v; max_committed; uncommitted; _ } ->
    if v > t.view && Pair.authentic p env then begin
      store_view_change t ~src:env.Message.sender ~v
        { Pair.committed_upto = max_committed; uncommitted };
      (* Seeing f+1 view changes means at least one correct process saw the
         coordinator's fail-signal: join. *)
      match Hashtbl.find_opt t.view_changes v with
      | Some cell ->
        if
          List.length !cell > p.Pair.config.Config.f
          && (v > t.target_view || not t.changing_view)
        then propose_view_change t v
      | None -> ()
    end
  | Message.New_view { v; start_o; anchor; new_back_log } ->
    if
      (v > t.view || (t.changing_view && Int.equal v t.target_view)) && Pair.authentic p env
    then begin
      let rank = candidate_of_view t v in
      let primary = Config.primary_of_pair p.Pair.config rank in
      if Option.is_none env.Message.endorsement then begin
        if
          Int.equal (id t) (Config.shadow_of_pair p.Pair.config rank)
          && Int.equal env.Message.sender primary
          && p.Pair.status = Up
        then handle_new_view_proposal t env ~v ~start_o ~anchor ~new_back_log
      end
      else if Pair.valid_coordinator_message p ~rank env then begin
        if Int.equal (id t) primary && Pair.own_endorsed_return p ~src env then
          Pair.multicast p ~dsts:(Pair.others p) env;
        install_view t env ~v ~start_o ~anchor ~new_back_log
      end
    end
  | Message.Unwilling { v; pair } ->
    if
      (v > t.view || (t.changing_view && v >= t.target_view))
      && Int.equal pair (candidate_of_view t v)
      && List.mem env.Message.sender (Config.candidate_members p.Pair.config pair)
      && Pair.authentic p env
    then begin
      (* Echo back to both members, then move on to the next view. *)
      List.iter
        (fun m -> if not (Int.equal m (id t)) then Pair.send p ~dst:m env)
        (Config.candidate_members p.Pair.config pair);
      propose_view_change t (v + 1)
    end
  | Message.Heartbeat _ | Message.Order _ | Message.Ack _ | Message.Checkpoint _
  | Message.State_request _ | Message.State_response _ | Message.Probe _
  | Message.Probe_reply _ ->
    Pair.on_message p ~src env
  | Message.Back_log _ | Message.Start _ | Message.Start_ack _ | Message.Start_tuples _
  | Message.Pre_prepare _ | Message.Prepare _ | Message.Commit _ | Message.Bft_view_change _
  | Message.Bft_new_view _ ->
    () (* other protocols' traffic: not ours *)

let create ~ctx ~config ?(fault = Fault.Honest) ?counterpart_fail_signal () =
  let p =
    Pair.create ~caller:"Scr.create" ~variant:Config.SCR ~ctx ~config ~fault
      ~counterpart_fail_signal
  in
  let t =
    {
      p;
      view = 1;
      changing_view = false;
      target_view = 1;
      view_changes = Hashtbl.create 4;
      new_view_sent = false;
      nv_watch = None;
      echoed_fail_signals = Hashtbl.create 8;
      vc_span = None;
    }
  in
  Pair.attach p
    {
      Pair.era = (fun () -> t.view);
      rank_of = candidate_of_view t;
      replacing = (fun () -> t.changing_view);
      quorum = (fun () -> quorum t);
      dumb = (fun () -> false);
      pair_failed =
        (fun ~rank ~value_domain ->
          (* A time-domain suspicion may be false under partial synchrony;
             a value-domain failure is proof. *)
          p.Pair.status <- (if value_domain then Permanently_down else Down);
          note_pair_failed t rank);
      recover = (fun () -> recover t);
    };
  t
