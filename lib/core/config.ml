module Simtime = Sof_sim.Simtime

(* Constructor-time validation failures surface as a dedicated exception
   caught at the harness/runtime boundary, never as a bare Invalid_argument
   escaping a protocol decision path (lint rule R4). *)
exception Invalid_config of string

type variant = SC | SCR

type timing = Static | Adaptive

let timing_name = function Static -> "static" | Adaptive -> "adaptive"

type t = {
  f : int;
  variant : variant;
  batching_interval : Simtime.t;
  batch_size_limit : int;
  digest : Sof_crypto.Digest_alg.t;
  pair_delay_estimate : Simtime.t;
  heartbeat_interval : Simtime.t;
  dumb_optimization : bool;
  checkpoint_interval : int;
  timing : timing;
}

let make ?(variant = SC) ?(batching_interval = Simtime.ms 100)
    ?(batch_size_limit = 1024) ?(digest = Sof_crypto.Digest_alg.MD5)
    ?(pair_delay_estimate = Simtime.ms 10) ?(heartbeat_interval = Simtime.ms 20)
    ?(dumb_optimization = true) ?(checkpoint_interval = 0) ?(timing = Static) ~f () =
  if f < 1 then raise (Invalid_config "Config.make: f must be at least 1");
  if checkpoint_interval < 0 then
    raise (Invalid_config "Config.make: checkpoint_interval must be non-negative");
  let positive name v =
    if Simtime.compare v Simtime.zero <= 0 then
      raise (Invalid_config (Printf.sprintf "Config.make: %s must be positive" name))
  in
  positive "batching_interval" batching_interval;
  positive "pair_delay_estimate" pair_delay_estimate;
  positive "heartbeat_interval" heartbeat_interval;
  {
    f;
    variant;
    batching_interval;
    batch_size_limit;
    digest;
    pair_delay_estimate;
    heartbeat_interval;
    dumb_optimization;
    checkpoint_interval;
    timing;
  }

let replica_count t = (2 * t.f) + 1

let pair_count t = match t.variant with SC -> t.f | SCR -> t.f + 1

let process_count t = replica_count t + pair_count t

let candidate_count t = t.f + 1

let check_rank t r =
  if r < 1 || r > candidate_count t then
    raise (Invalid_config (Printf.sprintf "Config: candidate rank %d out of range" r))

let primary_of_pair t r =
  check_rank t r;
  r - 1

let shadow_of_pair t r =
  check_rank t r;
  if r > pair_count t then
    raise (Invalid_config "Config.shadow_of_pair: candidate is unpaired");
  replica_count t + r - 1

let pair_rank_of t id =
  if id < pair_count t then Some (id + 1)
  else if id >= replica_count t && id < process_count t then
    Some (id - replica_count t + 1)
  else None

let counterpart t id =
  match pair_rank_of t id with
  | None -> None
  | Some r ->
    Some (if id < replica_count t then shadow_of_pair t r else primary_of_pair t r)

let is_shadow t id = id >= replica_count t

let candidate_is_pair t r =
  check_rank t r;
  r <= pair_count t

let candidate_members t r =
  if candidate_is_pair t r then [ primary_of_pair t r; shadow_of_pair t r ]
  else [ primary_of_pair t r ]

let all_processes t = List.init (process_count t) Fun.id

let variant_name = function SC -> "SC" | SCR -> "SCR"

let require_variant t v ~caller =
  let same = match (t.variant, v) with SC, SC | SCR, SCR -> true | SC, SCR | SCR, SC -> false in
  if not same then
    raise
      (Invalid_config
         (Printf.sprintf "%s: config must use the %s variant" caller (variant_name v)))

let pp fmt t =
  Format.fprintf fmt "%s(f=%d, n=%d, interval=%a, batch<=%dB)"
    (variant_name t.variant)
    t.f (process_count t) Simtime.pp t.batching_interval t.batch_size_limit
