(** The request pool a process batches from and watches over.

    One pool replaces the triple every core used to keep by hand: the
    request bodies a process holds (its {e pending} requests), the instant
    each one arrived, and the set of keys some order has already covered.
    Under overload (the paper's Fig. 5 runs offered load past the 1 KB batch
    cap) the pending backlog grows without bound, so "what is still
    unordered" cannot be re-derived by scanning it on every batch and every
    watchdog tick.  The pool therefore also keeps two indices of the
    {e unordered} pending requests:

    - in key order, for BFT/CT's deterministic key-order batches;
    - in [(arrival, key)] order, for SC/SCR's oldest-first batches and for
      the watchdogs' "oldest unordered arrival".

    {b Invariants.}  The ordered set may name keys the pool holds no body
    for (ordered before the body arrived, or already delivered).  Every
    arrival belongs to a held body.  A held body may lack an arrival: a
    request first seen when it was already ordered is held unstamped.  Such
    a body sorts after every stamped one in the age index, by key among
    themselves, and no watchdog query ever reports it.  Once built, each
    index holds exactly the held keys outside the ordered set.

    {b Cost.}  Each index is built by the first query that needs it, in
    O(n log n), and kept up to date from then on: a process that never
    batches or watches (an SC replica outside the coordinator pair) pays
    for neither, a BFT backup or CT process only for the age index its
    watchdog reads.  With [n] held bodies: {!add}, {!mark_ordered},
    {!unmark} and {!remove} are O(log n); {!size} is O(1), {!mem}, {!find}
    and {!is_ordered} O(log n); a take of [k] requests is O(k log n); the
    arrival queries are O(log n).  {!restamp} is O(n) and drops the
    indices for the next queries to rebuild; the cores call it only on a
    BFT view change or a CT epoch bump.

    The takes reproduce {!Batch.take_oldest} and {!Batch.take_from_pool}
    over the unordered pending requests exactly; those two remain the
    reference implementation the pool is tested against. *)

type t

val create : unit -> t

val size : t -> int
(** Held bodies, ordered or not.  O(1). *)

val mem : t -> Sof_smr.Request.key -> bool
(** Whether the pool holds this request's body. *)

val find : t -> Sof_smr.Request.key -> Sof_smr.Request.t option

val is_ordered : t -> Sof_smr.Request.key -> bool

val add : ?arrival:Sof_sim.Simtime.t -> t -> Sof_smr.Request.t -> unit
(** Hold the body, stamped with [arrival] when given (unstamped
    otherwise), replacing any body and stamp already held under its key. *)

val mark_ordered : t -> Sof_smr.Request.key -> unit
(** Some order now covers the key; it leaves the unordered indices. *)

val unmark : t -> Sof_smr.Request.key -> unit
(** Forget that the key was ordered (log truncation); a body still held
    rejoins the unordered indices under its original arrival. *)

val remove : t -> Sof_smr.Request.key -> unit
(** Drop the body and its arrival (delivery).  The ordered mark stays. *)

val restamp : t -> Sof_sim.Simtime.t -> unit
(** Re-stamp every stamped body, ordered or not, with the given instant:
    a fresh grace period for the next coordinator.  Unstamped bodies stay
    unstamped. *)

val has_unordered : t -> bool
(** Whether any held body is unordered (reads the age index). *)

val take_oldest : t -> limit:int -> Sof_smr.Request.t list
(** {!Batch.take_oldest} over the unordered pending requests: oldest
    arrival first, ties by key, until the next would push the batch past
    [limit] encoded bytes; at least one request when any is unordered. *)

val take_by_key : t -> limit:int -> Sof_smr.Request.t list
(** {!Batch.take_from_pool} over the unordered pending requests: key order,
    the same byte cap, at least one request when any is unordered. *)

val lowest_unordered_arrival : t -> Sof_sim.Simtime.t option
(** The arrival of the lowest {e key} among the stamped unordered requests.

    SC/SCR's shadow arms its watch from this, not from the oldest arrival,
    because that is what it always armed from and the seeded trajectories
    depend on it.  The choice is safe: the oldest arrival is no later than
    this one, so the watch can only fire later than a watch armed from the
    oldest arrival would, never earlier; and when it fires, the stall check
    uses {!oldest_unordered_arrival}, so an accusation still needs a request
    that has truly waited past the budget.  The key choice can delay an
    accusation but never cause a false one. *)

val oldest_unordered_arrival : t -> Sof_sim.Simtime.t option
(** The earliest arrival among the stamped unordered requests: a watchdog
    is stalled past [budget] at [now] exactly when this plus [budget] is no
    later than [now]. *)

val overdue : t -> budget:Sof_sim.Simtime.t -> now:Sof_sim.Simtime.t -> bool
(** Some stamped unordered request arrived [budget] or more before [now]:
    the watchdogs' stall condition, from {!oldest_unordered_arrival}. *)
