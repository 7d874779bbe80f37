(** Checkpoint certification and state-transfer bookkeeping.

    The protocol-independent half of checkpoint/recovery: how certificates
    are verified under each protocol's trust model, how checkpoint votes are
    tallied into proofs, and how a recovering replica picks what to install
    from the (possibly partly Byzantine) state-transfer offers it collected
    — the whole state-transfer and local-recovery lifecycle ({!Lifecycle}).
    The protocol modules own the other half — when to snapshot, who proposes
    or endorses a checkpoint, and the {!CORE} seams: how they sign and send,
    what they can serve, how transferred entries enter their order log.

    Trust models:
    - BFT certifies with 2f+1 signatures ({!Quorum_signed}) — at least f+1
      correct signers vouch for the image digest, standard PBFT.
    - CT runs under the crash-only model with no cryptography, so a
      certificate is just f+1 distinct senders' claims ({!Quorum_counted});
      at least one sender is correct.
    - SC/SCR certify with the coordinator pair's double signature
      ({!Pair_endorsed}): at most one member of a pair is faulty (the
      signal-on-fail assumption), so a doubly-signed checkpoint carries at
      least one correct signature.  SC's unpaired last candidate certifies
      with its single signature — by the sequential-failure assumption it is
      only coordinating after f failures, i.e. it is correct. *)

type scheme =
  | Quorum_signed of { quorum : int; member_ok : int -> bool }
  | Quorum_counted of { quorum : int; member_ok : int -> bool }
  | Pair_endorsed of { pair_ok : primary:int -> endorser:int option -> bool }
      (** [pair_ok] accepts exactly the legitimate (proposer, endorser)
          combinations: a pair's primary endorsed by its own shadow, or an
          unpaired candidate primary with no endorser. *)

val cert_payload : seq:int -> digest:string -> string
(** The byte string checkpoint signatures cover: the encoded [Checkpoint]
    message body, so wire votes and certificate proofs share signatures. *)

val verify_cert :
  verify:(signer:int -> msg:string -> signature:string -> bool) ->
  scheme:scheme ->
  Checkpoint.cert ->
  bool
(** Full certificate check: positive sequence number, distinct legitimate
    signers, enough of them for the scheme, and (except under
    [Quorum_counted]) every signature valid — endorsements over the same
    body-plus-first-signature payload as envelope endorsements. *)

(** Checkpoint vote tally: one vote per (sequence, signer), first wins. *)
module Tally : sig
  type t

  val create : unit -> t

  val add : t -> seq:int -> digest:string -> signer:int -> signature:string -> unit

  val count : t -> seq:int -> digest:string -> int
  (** Votes recorded for exactly this (seq, digest). *)

  val proof : t -> seq:int -> digest:string -> (int * string) list
  (** The (signer, signature) set behind [count] — a certificate proof once
      the count reaches quorum. *)

  val prune : t -> upto:int -> unit
  (** Drop votes at or below [upto] (sequence numbers already stable). *)
end

(** Per-process checkpoint/recovery bookkeeping, embedded in each protocol
    state record: boundary images, the checkpoint tally, stable
    checkpoints, delivery marks, the retained delivered batches, and the
    state-transfer fetch (offers, retry timer and backoff). *)
type state

val create : unit -> state

val tally : state -> Tally.t

val note_image : state -> seq:int -> image:string -> unit
(** Remember this process's own state image at a boundary (a small recent
    window is kept — enough to serve and endorse while the next checkpoint
    certifies). *)

val image_at : state -> seq:int -> string option

val note_stable : state -> cert:Checkpoint.cert -> image:string -> bool
(** Record a stable checkpoint with the image it certifies.  Returns [false]
    (and changes nothing) unless it is newer than the current stable one.
    The previous stable checkpoint is retained — it is what a
    [Stale_checkpoint] adversary serves. *)

val latest_stable : state -> (Checkpoint.cert * string) option

val stable_seq : state -> int
(** Sequence number of the latest stable checkpoint, 0 when none. *)

val note_delivered : state -> seq:int -> Sof_smr.Request.t list -> unit
(** Retain a delivered batch (exactly the requests handed to the service)
    to serve state transfer.  Cores call it only with checkpointing on. *)

val prune_delivered : state -> upto:int -> Sof_smr.Request.t list
(** Drop the retained batches at or below [upto] and return their
    requests, so the core can forget their keys. *)

val batch_entry :
  Context.t -> Sof_crypto.Digest_alg.t -> o:int -> Sof_smr.Request.t list -> Checkpoint.entry
(** A state-transfer entry for these requests at sequence [o], with the
    batch digest recomputed (and its hashing charged to the context). *)

(** {2 Per-client delivery marks}

    The deterministic at-most-once filter that travels inside checkpoint
    images ({!Checkpoint.wrap_image}).  Raw delivered-key sets are pruned
    at each process's own truncation pace, so they can be neither compared
    nor transferred; the high-water marks depend only on the delivered
    order prefix, which agreement makes common to all correct processes.
    Assumes clients issue [client_seq] in increasing order (the paper's
    broadcast-client model): a request at or below its client's mark is a
    duplicate or superseded straggler either way. *)

val fresh_key : state -> Sof_smr.Request.key -> bool
(** Whether the key is above its client's mark (deliverable). *)

val mark_delivered : state -> Sof_smr.Request.key -> unit
(** Raise the key's client mark to its [client_seq] (never lowers). *)

val marks : state -> (int * int) list
(** All [(client, mark)] pairs, sorted by client — the canonical form
    {!Checkpoint.wrap_image} requires. *)

val merge_marks : state -> (int * int) list -> unit
(** Max-merge marks from an installed checkpoint image into local state. *)

(** {2 The state-transfer and local-recovery lifecycle}

    One implementation under all four cores.  A recovering process
    multicasts [State_request { have }] and collects offers, retrying with
    a fresh request every retry period (doubled per unproductive retry
    under adaptive timing, capped).  Each offer is checked before it is
    recorded: the certificate under the core's {!scheme}, then the image
    bytes against the certified digest; a failing offer is announced as
    [State_transfer_rejected].  After every recorded offer the process
    installs the best certified image above its delivery point and then
    the longest contiguous entry suffix whose entries each carry an entry
    quorum of matching claims — f+1 under the Byzantine schemes, 1 under
    crash-only {!Quorum_counted} — and pass digest recomputation.  The
    fetch ends only after offers from f+1 distinct responders (so at least
    one is honest) promise nothing beyond what is now delivered.

    Local-first recovery replays the persisted checkpoint and WAL suffix as
    a synthetic self-offer through the same checks, with entry quorum 1. *)

(** What a core supplies: its trust model, how it signs and sends, and the
    few places where transferred state meets its own order log. *)
module type CORE = sig
  type t

  val ctx : t -> Context.t
  val rcv : t -> state
  val f : t -> int
  val digest : t -> Sof_crypto.Digest_alg.t

  val fault : t -> Fault.t
  (** Drives the responder faults [Corrupt_checkpoint_image],
      [Stale_checkpoint] and [Corrupt_wal_suffix]. *)

  val scheme : t -> scheme

  val envelope : t -> Message.body -> Message.envelope
  (** Signed, or unsigned under CT's crash-only model. *)

  val send : t -> dst:int -> Message.envelope -> unit
  val multicast : t -> dsts:int list -> Message.envelope -> unit
  (** Both silenced while the core may not transmit. *)

  val others : t -> int list
  val adaptive : t -> bool
  val timer_cap : t -> Sof_sim.Simtime.t

  val fetch_retry_base : t -> Sof_sim.Simtime.t
  (** Retry period of a fetch before any backoff. *)

  val delivered : t -> int

  val committed_tail : t -> base:int -> Checkpoint.entry list
  (** Committed-but-undelivered entries above [base] (and above the
      delivery point) that the core can serve with full request bodies. *)

  val adopt_entry : t -> Checkpoint.entry -> unit
  (** Enter a transferred entry into the order log as committed (no-op
      when that sequence number already committed locally); its requests
      become pending so the in-sequence walk can deliver them. *)

  val move_to_image : t -> seq:int -> unit
  (** The core now stands at an installed image certified at [seq]: set
      the delivery point and max-committed, then truncate. *)

  val advance_delivery : t -> unit

  val fence_minting : t -> unit
  (** Never mint at or below max-committed again (after local recovery a
      fresh order under a restored sequence number could strand below the
      delivery point or conflict with an absorbed entry). *)
end

module Lifecycle (C : CORE) : sig
  val serve_state_request : C.t -> src:int -> have:int -> unit
  (** Answer a [State_request]: the stable checkpoint when the requester
      is behind it, retained delivered batches and the committed tail
      above what it has — or the responder fault's distortion of these. *)

  val handle_state_response :
    C.t -> src:int -> cert:Checkpoint.cert option -> image:string ->
    entries:Checkpoint.entry list -> unit
  (** Check, record and try to install one offer; ignored unless fetching. *)

  val request_recovery : C.t -> unit
  (** Start a fetch; idempotent while one is in flight. *)

  val recover_local :
    C.t -> cert:Checkpoint.cert option -> image:string ->
    entries:Checkpoint.entry list -> bool
  (** Install locally persisted state as a verified self-offer; whether
      delivery advanced. *)
end
