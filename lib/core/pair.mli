(** The signal-on-fail pair machinery that SC and SCR run the same way.

    Both protocols order requests through a coordinator pair that endorses
    its own outputs and fail-signals when its members disagree; their
    fail-free path is identical.  This module holds that shared part once:

    - the order log with its votes; ack, commit and at-most-once delivery;
      the per-order trace spans;
    - signing, endorsing and authenticating envelopes, and fail-signal
      emission and authentication;
    - the adaptive budget with its backoff levels and probes;
    - the primary's batching and endorsement watches, the shadow's order
      validation (with its stash and retry) and stall watch, and the
      heartbeat tolerance;
    - pair-endorsed checkpoints and the {!Recovery.Lifecycle} seam;
    - the new-backlog choice a replacement coordinator makes out of a
      quorum of claims, the new shadow's plausibility check of it, and the
      adoption of the chosen backlog;
    - the inbound messages both cores handle the same way: [Heartbeat],
      [Order], [Ack], [Checkpoint], [State_*] and [Probe*].

    What differs is how a failed coordinator is replaced: SC's install part
    (IN1–IN5) with its dumb optimisation and unpaired last candidate, and
    SCR's view change with [Unwilling] and Down→Up pair recovery.  Each core
    keeps that part and reaches this module through one small {!seam}.

    Coordinator eras: SC numbers its coordinators by candidate rank [c], SCR
    by view [v]; orders and acks carry the era, and {!seam.rank_of} maps an
    era to the candidate that coordinates it.  The unpaired last candidate
    exists only in SC layouts ({!Config.candidate_is_pair}); the code paths
    for it never fire under SCR, where every candidate is a pair. *)

type status = Up | Down | Permanently_down
(** The own pair's standing.  [Down] is a recoverable suspicion (SCR's
    time-domain fail-signal); SC moves straight from [Up] to
    [Permanently_down], since under SC2 a fail-signal proves a fault. *)

type votes

type order_state = {
  o : int;
  mutable digest : string;  (** authoritative once [have_order] *)
  mutable keys : Sof_smr.Request.key list;
  mutable have_order : bool;
  mutable vote_era : int;  (** era whose coordinator produced the order *)
  mutable acked : bool;
  mutable committed : bool;
  mutable null : bool;  (** gap filler or start placeholder: delivers nothing *)
  votes_by_digest : (string, votes) Hashtbl.t;
  mutable sp_batch : bool;
  mutable sp_endorse : bool;
  mutable sp_order : bool;
  mutable sp_ack : bool;
      (** [sp_*]: trace spans currently open at this process *)
}

type claim = {
  committed_upto : int;  (** the claimant's provable commit watermark *)
  uncommitted : Message.order_info list;  (** orders it knows above that *)
}
(** One process's contribution to a coordinator replacement: SC's BackLog,
    SCR's ViewChange. *)

(** What a core supplies.  The closures are built once per process, when
    the core attaches itself; none is allocated per call. *)
type seam = {
  era : unit -> int;  (** the current era: SC's rank [c], SCR's view [v] *)
  rank_of : int -> int;  (** the candidate rank coordinating an era *)
  replacing : unit -> bool;  (** an install or view change is under way *)
  quorum : unit -> int;  (** votes needed to commit *)
  dumb : unit -> bool;  (** this process may not transmit (SC's dumb pairs) *)
  pair_failed : rank:int -> value_domain:bool -> unit;
      (** This process has just fail-signalled its own pair [rank]: record
          the new {!status} and start whatever a signal against the
          coordinator starts (an install, a view change). *)
  recover : unit -> unit;
      (** A [Down] pair heard its counterpart in time again. *)
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
  mutable fail_signalled : bool;  (** in the current down episode *)
  mutable last_heard : Sof_sim.Simtime.t;
  mutable heartbeat_timer : Context.timer option;
  mutable beat : int;
  (* request pool *)
  pool : Pool.t;
  mutable delivered_keys : Sof_smr.Request.Key_set.t;
  mutable view_ordered_keys : Sof_smr.Request.Key_set.t;
      (** keys ordered in the current era, for the shadow's double-ordering
          check; reset when a new era starts *)
  mutable executed : Sof_smr.Request.t Sof_smr.Request.Key_map.t;
      (** delivered request bodies, kept so the shadow can still verify a
          digest over re-proposed requests *)
  (* order log *)
  orders : (int, order_state) Hashtbl.t;
  mutable max_committed : int;
  mutable committed_digest : string;
  mutable committed_era : int;
  mutable committed_proof : (int * string) list;
      (** the ack signatures behind [max_committed] *)
  mutable delivered : int;
  (* coordinator primary *)
  mutable next_seq : int;
  mutable batch_timer : Context.timer option;
  mutable endorsement_watches : (int * Context.timer) list;
  (* coordinator shadow *)
  mutable expected_seq : int;
  mutable last_progress : Sof_sim.Simtime.t;  (** last endorsement made as shadow *)
  mutable stashed_endorsements :
    (Sof_sim.Simtime.t * Message.envelope * Message.order_info) list;
      (** deferred Orders, kept with their decoded info so replay needs no
          re-dispatch *)
  mutable watch_timer : Context.timer option;
  (* coordinator replacement *)
  mutable start_covers : Message.order_info list;
      (** the adopted backlog, committed with the start placeholder *)
  mutable anchor_seen : int;
      (** highest anchor installed: every sequence at or below it is proven
          committed somewhere, so late orders from superseded eras may
          still be adopted for those sequences (catch-up for a replica that
          lagged across the replacement) *)
  mutable stash_future : (int * Message.envelope) list;
  mutable failover_span : int option;
  (* checkpointing and state transfer *)
  rcv : Recovery.state;
  mutable ckpt_proposals : (Message.envelope * int * string) list;
      (** phase-1 checkpoint proposals from this pair's primary, stashed by
          the shadow until its own boundary image for that seq exists *)
  mutable ckpt_certs : Checkpoint.cert list;
      (** verified certificates awaiting this process's own boundary image *)
  (* adaptive timing (Config.Adaptive only; untouched in Static mode so
     seeded static runs keep the exact stream layout) *)
  rtt : Sof_net.Peer_rtt.t;
  mutable shadow_watch_level : int;  (** doublings on the shadow's stall budget *)
  mutable hb_level : int;  (** doublings on the heartbeat silence tolerance *)
  mutable stash_retry_armed : bool;
}

val create :
  caller:string ->
  variant:Config.variant ->
  ctx:Context.t ->
  config:Config.t ->
  fault:Fault.t ->
  counterpart_fail_signal:string option ->
  t
(** The shared state of a fresh process, with no seam attached yet.
    @raise Config.Invalid_config (naming [caller]) when the config is not of
    [variant], when a paired process lacks [counterpart_fail_signal], or
    when an unpaired one holds it. *)

val attach : t -> seam -> unit
(** Attach the core; call once, right after {!create}. *)

val start : t -> unit
(** Arm the pair heartbeat and, at the initial coordinator primary, the
    batching timer; schedule a [Spurious_fail_signal_at] fault. *)

val on_request : t -> Sof_smr.Request.t -> unit

val note_heard : t -> src:int -> unit
(** Any message from the counterpart is a sign of life; call first for
    every inbound message. *)

val on_message : t -> src:int -> Message.envelope -> unit
(** The [Heartbeat], [Order], [Ack], [Checkpoint], [State_*] and [Probe*]
    arms.  Orders from a later era, or arriving during a replacement, are
    stashed for {!take_future}.  Every other body is ignored. *)

(** {1 Queries} *)

val id : t -> int
val log_length : t -> int
val stable_checkpoint_seq : t -> int
val latest_stable : t -> (Checkpoint.cert * string) option
val client_marks : t -> (int * int) list
val pair_estimate : t -> Sof_sim.Simtime.t

(** {1 Building blocks for the replacement protocols} *)

val cancel_timer : Context.timer option -> unit
val send : t -> dst:int -> Message.envelope -> unit
val multicast : t -> dsts:int list -> Message.envelope -> unit
(** Both silenced while the process is dumb or mute. *)

val others : t -> int list
val make_signed : t -> Message.body -> Message.envelope
val authentic : t -> Message.envelope -> bool
(** Every signature the envelope carries verifies. *)

val own_endorsed_return : t -> src:int -> Message.envelope -> bool
(** The envelope is this process's own, endorsed by its counterpart and
    back from the network: a primary forwards such a message to everyone. *)

val body_digest : t -> Message.envelope -> string
(** Digest of the encoded body, charged to the virtual CPU. *)

val valid_coordinator_message : t -> rank:int -> Message.envelope -> bool
(** Doubly signed by pair [rank], or singly signed by its primary when
    [rank] is SC's unpaired last candidate. *)

val fail_signal_authentic : t -> pair:int -> Message.envelope -> bool
val ckpt_scheme : t -> Recovery.scheme
val span_open : t -> Context.phase -> int -> unit
val span_close : t -> Context.phase -> int -> unit
val open_failover_span : t -> int -> unit
(** Open the failover span for the failed pair's rank, once. *)

val close_failover_span : t -> unit
val request_recovery : t -> unit

val recover_local :
  t -> cert:Checkpoint.cert option -> image:string -> entries:Checkpoint.entry list -> bool

val stand_down : t -> unit
(** Cancel the batching timer and the shadow's stall watch. *)

val emit_fail_signal : t -> value_domain:bool -> unit
(** Double-sign and multicast this process's fail-signal against its own
    pair, then hand over to {!seam.pair_failed}; a no-op unless the pair is
    [Up] and has not signalled yet, and for a [Withhold_fail_signal]
    saboteur. *)

val new_back_log : t -> claim list -> int * int * Message.order_info list
(** [(start_o, anchor, backlog)] out of a quorum of claims: the anchor is
    the highest claimed watermark; above it each sequence takes its
    best-supported digest (ties broken by digest), holes are null-filled,
    and the start message itself takes [start_o]. *)

val vet_proposal :
  t ->
  Message.envelope ->
  claim list ->
  start_o:int ->
  anchor:int ->
  new_back_log:Message.order_info list ->
  Message.envelope option
(** The new shadow's check of its primary's proposal against the claims it
    received itself: no contradiction of an order it knows committed, no
    conflict with an (f+1)-supported digest.  A plausible proposal is
    endorsed and multicast and returned; an implausible one is fail-signalled
    (value domain) and [None] returned. *)

val adopt_new_back_log :
  t ->
  Message.envelope ->
  era:int ->
  start_o:int ->
  anchor:int ->
  new_back_log:Message.order_info list ->
  order_state
(** Enter the era whose endorsed start message this is: adopt its backlog,
    enter the start as the null order at [start_o], and take up the primary
    or shadow role.  Returns the start's order, for the caller to
    {!send_ack} and {!try_commit} once it has announced the install. *)

val send_ack : t -> order_state -> unit
val try_commit : t -> order_state -> unit

val defer : t -> src:int -> Message.envelope -> unit
(** Stash a message from a later era, or one that arrived during a
    replacement. *)

val take_future : t -> (int * Message.envelope) list
(** The stashed future-era messages, oldest first, leaving the stash empty. *)
