(* Workload definitions, seeded inputs, and one simulated run.

   Every workload shares one base configuration: f=2, the md5-rsa1024 cost
   table, scheme signatures on the wire, 100 ms batching and the 1 KB batch
   cap, fed by an open loop of 4 clients sending Poisson arrivals of ~80-byte
   KV puts.  The arrival schedule and the request bytes are drawn from the
   benchmark seed before anything is timed; the same seed is the cluster's
   [spec.seed]. *)

module Simtime = Sof_sim.Simtime
module Engine = Sof_sim.Engine
module Rng = Sof_util.Rng
module Request = Sof_smr.Request
module H = Sof_harness
module P = Sof_protocol

type fault_plan =
  | No_fault
  | Corrupt_primary_at_seq of int
      (** Value-domain coordinator fault on process 0 (the first pair's
          primary) at this sequence number. *)
  | Crash_restart of { who : int; crash_at : Simtime.t; restart_at : Simtime.t }

type t = {
  name : string;
  protocol : H.Cluster.kind;
  rate : float;  (** Aggregate offered requests per virtual second. *)
  load : Simtime.t;  (** How long the clients send. *)
  durable : bool;
  faults : fault_plan;
  episodes : int;
      (** Independent episodes per run, each with its own arrival schedule
          and cluster seed, all derived from the benchmark seed.  Pooling
          them keeps a tail percentile from hinging on where one schedule
          puts a fault or a stall. *)
}

let f = 2
let clients = 4
let op_bytes = 80
let batching_interval = Simtime.ms 100
let batch_size_limit = 1024

(* How often the coordinator batches, so the fault can be placed by
   sequence number at mid-run. *)
let batches_per_sec = 1_000_000_000 / Simtime.to_ns batching_interval

(* Lengths are fixed: overload_sc's host cost grows faster than linearly
   with its length (the pending pool it sorts grows with the run). *)
let paper_sc =
  let load = 60 in
  {
    name = "paper_sc";
    protocol = H.Cluster.Sc_protocol;
    rate = 100.0;
    load = Simtime.sec load;
    durable = false;
    faults = Corrupt_primary_at_seq (load / 2 * batches_per_sec);
    episodes = 16;
  }

let overload_sc =
  {
    name = "overload_sc";
    protocol = H.Cluster.Sc_protocol;
    rate = 400.0;
    load = Simtime.sec 10;
    durable = false;
    faults = No_fault;
    episodes = 4;
  }

let durable_bft =
  let load = 15 in
  {
    name = "durable_bft";
    protocol = H.Cluster.Bft_protocol;
    rate = 100.0;
    load = Simtime.sec load;
    durable = true;
    faults =
      Crash_restart
        { who = 1; crash_at = Simtime.sec (load / 3); restart_at = Simtime.sec (load / 2) };
    episodes = 16;
  }

let all = [ paper_sc; overload_sc; durable_bft ]
let find name = List.find_opt (fun w -> String.equal w.name name) all

(* The batch cap bounds delivery: at most [limit / request bytes] requests
   per batch, one batch per interval. *)
let ceiling_rps () =
  let probe =
    H.Workload.make_request (Rng.create 0L) ~client:0 ~client_seq:1 ~op_bytes
  in
  float_of_int (batch_size_limit / Request.encoded_size probe)
  *. float_of_int batches_per_sec

(* ------------------------------------------------------------ inputs *)

type arrival = { at : Simtime.t; req : Request.t }

type inputs = {
  per_client : arrival array array;  (** Each client's arrivals in time order. *)
  offered : int;
}

type episode = {
  index : int;
  cluster_seed : int64;
  inputs : inputs Lazy.t;
      (** Drawn when the episode first runs, so the first episode's heap
          figure does not carry the other episodes' schedules. *)
}

let make_inputs w rng =
  let load_ms = Simtime.to_ms w.load in
  let mean_gap_ms = 1000.0 /. (w.rate /. float_of_int clients) in
  let per_client =
    Array.init clients (fun client ->
        let rng = Rng.substream rng (Printf.sprintf "client-%d" client) in
        let rec draw at seq acc =
          let at = at +. Rng.exponential rng ~mean:mean_gap_ms in
          if at >= load_ms then Array.of_list (List.rev acc)
          else
            let req = H.Workload.make_request rng ~client ~client_seq:seq ~op_bytes in
            draw at (seq + 1) ({ at = Simtime.of_ms_float at; req } :: acc)
        in
        draw 0.0 1 [])
  in
  { per_client; offered = Array.fold_left (fun n a -> n + Array.length a) 0 per_client }

let make_episodes w ~seed =
  let root = Rng.create (Int64.of_int seed) in
  Array.init w.episodes (fun index ->
      let rng = Rng.substream root (Printf.sprintf "episode-%d" index) in
      let cluster_seed = Rng.int64 (Rng.substream rng "cluster") in
      { index; cluster_seed; inputs = lazy (make_inputs w (Rng.substream rng "arrivals")) })

let arrivals inputs = Array.concat (Array.to_list inputs.per_client)

(* Fingerprint of every episode's arrival schedule: due instants and
   request bytes. *)
let schedule_digest episodes =
  let b = Buffer.create 4096 in
  Array.iter
    (fun e ->
      Array.iter
        (Array.iter (fun a ->
             Buffer.add_string b (string_of_int (Simtime.to_ns a.at));
             Buffer.add_string b (Request.encode a.req)))
        (Lazy.force e.inputs).per_client)
    episodes;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------- spec *)

let spec ?(machine_factory = Sof_smr.Kv_store.machine) w episode =
  {
    (H.Cluster.default_spec ~kind:w.protocol ~f) with
    H.Cluster.scheme = Sof_crypto.Scheme.md5_rsa1024;
    auth = Sof_crypto.Keyring.Sign;
    batching_interval;
    batch_size_limit;
    (* The paper's assumption 3(a)(i): delay estimates never falsely accuse,
       so only the injected faults move the coordinator. *)
    pair_delay_estimate = Simtime.sec 30;
    heartbeat_interval = Simtime.sec 3600;
    seed = episode.cluster_seed;
    faults =
      (match w.faults with
      | Corrupt_primary_at_seq o -> [ (0, P.Fault.Corrupt_digest_at o) ]
      | No_fault | Crash_restart _ -> []);
    machine_factory;
    durable = w.durable;
    checkpoint_interval = (if w.durable then 8 else 0);
  }

let faulty w = match w.faults with Corrupt_primary_at_seq _ -> [ 0 ] | _ -> []

(* ------------------------------------------------------------- a run *)

(* Each client's next arrival is scheduled when the previous one fires, as
   [Sof_harness.Workload.install] does, so the engine's queue holds one
   pending arrival per client rather than the whole schedule. *)
let schedule_arrivals cluster inputs =
  let engine = H.Cluster.engine cluster in
  Array.iter
    (fun arr ->
      let rec next i =
        if i < Array.length arr then
          ignore
            (Engine.schedule_at engine ~at:arr.(i).at (fun () ->
                 H.Cluster.inject_request cluster arr.(i).req;
                 next (i + 1)))
      in
      next 0)
    inputs.per_client

let schedule_faults cluster w =
  match w.faults with
  | Crash_restart { who; crash_at; restart_at } ->
    let engine = H.Cluster.engine cluster in
    ignore (Engine.schedule_at engine ~at:crash_at (fun () -> H.Cluster.crash cluster who));
    ignore
      (Engine.schedule_at engine ~at:restart_at (fun () -> H.Cluster.restart cluster who))
  | No_fault | Corrupt_primary_at_seq _ -> ()

(* After the load stops, keep running in one-second steps until no replica
   delivered anything new during a step: the backlog has drained.  The cap
   only guards against a livelock; the correctness check then reports the
   unanswered requests. *)
let drain_step = Simtime.sec 1

let drive cluster w =
  H.Cluster.run cluster ~until:w.load;
  let n = H.Cluster.process_count cluster in
  let progress () = Array.init n (H.Cluster.delivered_seq cluster) in
  let cap = Simtime.add w.load (Simtime.scale w.load 10.0) in
  let rec drain until before =
    let until = Simtime.add until drain_step in
    H.Cluster.run cluster ~until;
    let after = progress () in
    if Array.for_all2 Int.equal before after || Simtime.compare until cap >= 0 then until
    else drain until after
  in
  drain w.load (progress ())

(* Start the run's clocks: arrivals and faults go on the engine of a freshly
   built cluster, then the simulation runs through its drain.  Returns the
   virtual instant the drain ended. *)
let simulate cluster w episode =
  schedule_arrivals cluster (Lazy.force episode.inputs);
  schedule_faults cluster w;
  drive cluster w

type rep = { wall_s : float; cluster : H.Cluster.t; alloc_words : float }

(* Build a fresh cluster, let [instrument] attach to it, and simulate one
   episode through its drain.  Only the simulation is inside the wall-clock
   window; the collection before it keeps one episode's garbage out of the
   next one's timing. *)
let run ?machine_factory ?(instrument = ignore) w episode =
  Gc.compact ();
  let cluster = H.Cluster.build (spec ?machine_factory w episode) in
  instrument cluster;
  let minor0, promoted0, major0 = Gc.counters () in
  let t0 = Metric.now_ns () in
  let (_ : Simtime.t) = simulate cluster w episode in
  let wall_s = Metric.secs_since t0 in
  let minor1, promoted1, major1 = Gc.counters () in
  {
    wall_s;
    cluster;
    alloc_words = minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0);
  }
