(** Per-peer round-trip estimators fed by nonce-stamped probes.

    Every protocol core in [Adaptive] timing mode keeps one of these: a
    {!Delay_estimator} per peer, created on first use from the core's
    configured static estimate, and a per-peer nonce high-water mark so a
    duplicated or reordered probe reply is measured at most once. *)

type t

val create : peers:int -> initial:Sof_sim.Simtime.t -> t
(** A table for peers [0 .. peers - 1]; every estimator starts at
    [initial]. *)

val estimator : t -> int -> Delay_estimator.t
(** The peer's estimator, created on first use. *)

val next_nonce : t -> int
(** A fresh nonce for an outgoing probe (1, 2, ...). *)

val note_reply : t -> src:int -> nonce:int -> rtt:Sof_sim.Simtime.t -> unit
(** Feed [rtt] to [src]'s estimator unless a reply with this or a later
    nonce from [src] was already measured. *)
