(** Protocol deployment configuration and process layout.

    Process identifiers are dense integers shared with the network layer.
    For a configuration with [2f+1] replica nodes and [k] pairs (k = f for
    SC, f+1 for SCR):

    - ids [0 .. 2f]  are the replica order processes p1 .. p(2f+1);
    - ids [2f+1 .. 2f+k] are the shadows p'1 .. p'k.

    Pair (coordinator-candidate) ranks are 1-based, matching the paper: pair
    [r] is [{p_r, p'_r}].  In SC the (f+1)-th coordinator candidate is the
    unpaired process p(f+1). *)

exception Invalid_config of string
(** Constructor-time validation failure.  Raised by [make] and the rank
    accessors on out-of-range arguments, and by the protocol [create]
    functions on inconsistent set-ups; caught at the harness/runtime
    boundary. *)

type variant =
  | SC
      (** Signal-on-crash set-up: assumptions 3(a) — synchronous pair links
          with accurate delay estimates, sequential failure pattern.
          n = 3f+1. *)
  | SCR
      (** Signal-on-crash-and-recovery set-up: assumptions 3(b) — eventually
          accurate estimates, at most one fault per pair.  n = 3f+2. *)

(** How the timeliness timers obtain their delay estimate.

    [Static] is the paper's Sync reading of assumption 3(a): the
    configured [pair_delay_estimate] is trusted as a bound and never
    revised — the behaviour of every release before adaptive timing, so
    seeded runs replay byte-for-byte.  [Adaptive] makes the PSync reading
    of assumption 3(b) operational: processes exchange timestamped probes,
    feed per-link Jacobson estimators, and derive their timeliness
    deadlines from the measured round-trip distribution with exponential
    backoff and a hard cap.  Adaptive timing can only delay or avoid a
    fail-signal, never forge protocol evidence, so it affects liveness
    only — safety never depends on a timer (DESIGN.md section 14). *)
type timing = Static | Adaptive

val timing_name : timing -> string
(** ["static"] or ["adaptive"]. *)

type t = {
  f : int;  (** Fault-tolerance parameter, f >= 1. *)
  variant : variant;
  batching_interval : Sof_sim.Simtime.t;
      (** The coordinator forms at most one batch per interval (paper
          Section 4.3, second optimisation). *)
  batch_size_limit : int;  (** Max encoded request bytes per batch (1 KB). *)
  digest : Sof_crypto.Digest_alg.t;  (** For request/batch digests. *)
  pair_delay_estimate : Sof_sim.Simtime.t;
      (** The differential delay bound used for timeliness checking inside a
          pair (Section 2.1.1). *)
  heartbeat_interval : Sof_sim.Simtime.t;
      (** Mutual-checking cadence inside a pair when there is no protocol
          traffic to check. *)
  dumb_optimization : bool;
      (** The first optimisation of Section 4.3: installed-away pairs turn
          dumb, n shrinks by 2 and f by 1.  On by default; off for ablation
          runs. *)
  checkpoint_interval : int;
      (** Every this-many delivered sequence numbers, snapshot and certify a
          checkpoint, truncating the order log behind the latest stable one.
          0 (the default) disables checkpointing entirely — the log grows
          without bound, exactly the pre-checkpoint behaviour. *)
  timing : timing;
      (** [Static] (the default) keeps every timeliness deadline at the
          configured estimate; [Adaptive] turns on probing and estimator-
          driven deadlines. *)
}

val make :
  ?variant:variant ->
  ?batching_interval:Sof_sim.Simtime.t ->
  ?batch_size_limit:int ->
  ?digest:Sof_crypto.Digest_alg.t ->
  ?pair_delay_estimate:Sof_sim.Simtime.t ->
  ?heartbeat_interval:Sof_sim.Simtime.t ->
  ?dumb_optimization:bool ->
  ?checkpoint_interval:int ->
  ?timing:timing ->
  f:int ->
  unit ->
  t
(** Defaults: SC, 100 ms interval, 1024-byte batches, MD5 digests, 10 ms
    delay estimate, 20 ms heartbeat, checkpointing off, static timing.
    @raise Invalid_config when [f < 1], [checkpoint_interval < 0], or any
    of [batching_interval], [pair_delay_estimate], [heartbeat_interval] is
    non-positive. *)

val replica_count : t -> int
(** [2f+1]. *)

val pair_count : t -> int
(** [f] for SC, [f+1] for SCR. *)

val process_count : t -> int
(** [3f+1] for SC, [3f+2] for SCR. *)

val candidate_count : t -> int
(** Coordinator candidates: [f+1] in both variants. *)

val primary_of_pair : t -> int -> int
(** Process id of [p_r] for pair rank [r] (1-based).
    @raise Invalid_config on out-of-range ranks. *)

val shadow_of_pair : t -> int -> int
(** Process id of [p'_r]. *)

val pair_rank_of : t -> int -> int option
(** [Some r] when the process belongs to pair [r]. *)

val counterpart : t -> int -> int option
(** The other member of the process's pair, if paired. *)

val is_shadow : t -> int -> bool

val candidate_members : t -> int -> int list
(** Process ids making up coordinator candidate rank [r]: two for a pair,
    one for SC's final unpaired candidate. *)

val candidate_is_pair : t -> int -> bool

val all_processes : t -> int list

val require_variant : t -> variant -> caller:string -> unit
(** @raise Invalid_config unless the config uses the given variant; the
    message names [caller]. *)

val pp : Format.formatter -> t -> unit
