(* The traced run: per-layer figures measured from outside the layers.

   Each step simulates one episode twice, untraced and then traced.  The
   traced simulation records the inputs each layer received:
   - every send's source and payload, through a [Network.set_filter] hook
     that always passes;
   - every state-machine apply, through a timing wrapper passed as
     [machine_factory];
   - every node's [Cpu.queue_delay], from a sampler on a fixed virtual
     period.
   The benchmark then times each layer's public functions on exactly those
   inputs: [Message.decode]/[encode] over the captured traffic,
   [Keyring.sign]/[verify] on its own keyring over each envelope's body,
   [Wal.append]/[sync]/[replay] on its own [Sim_disk] over the delivered
   batches, and the protocol's batch selection on the pending pools the
   arrivals and batches imply.  Exact counts come from the cluster's own
   accounting.  What the replays do not explain of the traced wall time is
   reported as [core.self_host_s], a residual. *)

module Simtime = Sof_sim.Simtime
module Engine = Sof_sim.Engine
module Cpu = Sof_sim.Cpu
module Statistics = Sof_util.Statistics
module Rng = Sof_util.Rng
module Network = Sof_net.Network
module Request = Sof_smr.Request
module SM = Sof_smr.State_machine
module Scheme = Sof_crypto.Scheme
module Keyring = Sof_crypto.Keyring
module Wal = Sof_storage.Wal
module Sim_disk = Sof_storage.Sim_disk
module H = Sof_harness
module P = Sof_protocol
module Message = P.Message

let sample_period = Simtime.ms 10

type capture = {
  mutable sends : (int * string) list;  (** (source, payload), newest first *)
  mutable applies : (int * int) list;  (** host (start, end) ns, newest first *)
  queue_ms : Statistics.t;
}

let fresh_capture () = { sends = []; applies = []; queue_ms = Statistics.create () }

let timing_machine cap () =
  let inner = Sof_smr.Kv_store.machine () in
  SM.create ~name:(SM.name inner) ~init:inner
    ~apply:(fun m op ->
      let t0 = Metric.now_ns () in
      let reply = SM.apply m op in
      cap.applies <- (t0, Metric.now_ns ()) :: cap.applies;
      (m, reply))
    ~digest:SM.state_digest ~snapshot:SM.snapshot
    ~restore:(fun image ->
      SM.restore inner image;
      Some inner)
    ()

let instrument cap cluster =
  let net = H.Cluster.network cluster in
  Network.set_filter net
    (Some
       (fun ~src ~dst:_ ~payload ->
         if not (Network.is_crashed net src) then cap.sends <- (src, payload) :: cap.sends;
         true));
  let engine = H.Cluster.engine cluster in
  let n = H.Cluster.process_count cluster in
  let rec sample () =
    for i = 0 to n - 1 do
      Statistics.add cap.queue_ms (Simtime.to_ms (Cpu.queue_delay (H.Cluster.cpu cluster i)))
    done;
    ignore (Engine.schedule engine ~delay:sample_period sample)
  in
  ignore (Engine.schedule engine ~delay:sample_period sample)

(* ------------------------------------------------------------ replays *)

type span = { s_name : string; s_start : int; s_end : int }

type replay = {
  decodes : int;
  decode_ns : int;
  bytes_decoded : int;
  encodes : int;
  encode_ns : int;
  signs : int;
  sign_ns : int;
  verifies : int;
  verify_ns : int;
  appends : int;
  append_ns : int;
  sync_ns : int;
  replayed : int;
  replay_ns : int;
  selects : int;
  select_ns : int;
  pending_peak : int;
  take_oldest_peak_ns : float;
  spans : span list;
  problems : string list;
}

let timed f =
  let t0 = Metric.now_ns () in
  let r = f () in
  (r, t0, Metric.now_ns ())

(* The scheme's HMAC stand-in, as the cluster signs with it. *)
let wire_scheme = { Scheme.md5_rsa1024 with Scheme.mechanism = Scheme.Mock_hmac }

let wal_payloads cluster =
  let digest = Scheme.md5_rsa1024.Scheme.digest in
  (* Replica 0 is never crashed by any workload, so its deliveries are the
     whole committed sequence once. *)
  List.filter_map
    (fun (_, who, ev) ->
      match ev with
      | P.Context.Delivered { seq; batch } when who = 0 ->
        let requests = batch.P.Batch.requests in
        let w = Sof_util.Codec.Writer.create () in
        P.Checkpoint.write_entry w
          {
            P.Checkpoint.e_o = seq;
            e_digest = P.Batch.digest digest (P.Batch.make requests);
            e_requests = requests;
          };
        Some (Sof_util.Codec.Writer.contents w)
      | _ -> None)
    (H.Cluster.events cluster)

let replay_storage payloads =
  let sector_size = 256 in
  let bytes = List.fold_left (fun acc p -> acc + String.length p + 64) 0 payloads in
  let sd = Sim_disk.create ~sector_size ~sector_count:(2 + (2 * ((bytes / sector_size) + 16))) () in
  let wal = Wal.attach (Sim_disk.disk sd) in
  let append_ns = ref 0 and sync_ns = ref 0 in
  let (), t0, t1 =
    timed (fun () ->
        List.iter
          (fun p ->
            let a = Metric.now_ns () in
            Wal.append wal p;
            let b = Metric.now_ns () in
            Wal.sync wal;
            append_ns := !append_ns + (b - a);
            sync_ns := !sync_ns + (Metric.now_ns () - b))
          payloads)
  in
  let rp, t2, t3 = timed (fun () -> Wal.replay (Wal.attach (Sim_disk.disk sd))) in
  let problems =
    (if (Wal.stats wal).Wal.w_dropped > 0 then [ "storage replay: appends dropped" ] else [])
    @
    if rp.Wal.rp_damaged || not (List.equal String.equal rp.Wal.rp_entries payloads) then
      [ "storage replay: the log did not read back what was appended" ]
    else []
  in
  ( !append_ns,
    !sync_ns,
    List.length rp.Wal.rp_entries,
    t3 - t2,
    [ { s_name = "storage.append_sync"; s_start = t0; s_end = t1 };
      { s_name = "storage.replay"; s_start = t2; s_end = t3 } ],
    problems )

(* Rebuild the pending pool at every batch instant from the arrival
   schedule and the delivered batches, and run the protocol's own batch
   selection on it. *)
let replay_selection (w : Load.t) (episode : Load.episode) (o : Outcome.t) =
  let limit = Load.batch_size_limit in
  let select =
    match w.Load.protocol with
    | H.Cluster.Sc_protocol | H.Cluster.Scr_protocol ->
      fun pool arrival -> P.Batch.take_oldest ~limit ~pool ~arrival
    | H.Cluster.Bft_protocol | H.Cluster.Ct_protocol ->
      fun pool _ -> P.Batch.take_from_pool ~limit ~pool
  in
  let arrivals = Load.arrivals (Lazy.force episode.Load.inputs) in
  Array.sort (fun a b -> Simtime.compare a.Load.at b.Load.at) arrivals;
  let pool = ref Request.Key_map.empty and arrival = ref Request.Key_map.empty in
  let size = ref 0 and next = ref 0 in
  let peak = ref (0, Request.Key_map.empty, Request.Key_map.empty) in
  let selects = ref 0 and select_ns = ref 0 in
  let (), t0, t1 =
    timed (fun () ->
        List.iter
          (fun (_, batched, keys) ->
            (match batched with
            | None -> ()
            | Some at ->
              while !next < Array.length arrivals && Simtime.compare arrivals.(!next).Load.at at <= 0 do
                let a = arrivals.(!next) in
                let k = a.Load.req.Request.key in
                pool := Request.Key_map.add k a.Load.req !pool;
                arrival := Request.Key_map.add k a.Load.at !arrival;
                incr size;
                incr next
              done;
              let peak_size, _, _ = !peak in
              if !size > peak_size then peak := (!size, !pool, !arrival);
              if !size > 0 then begin
                let a = Metric.now_ns () in
                ignore (select !pool !arrival);
                select_ns := !select_ns + (Metric.now_ns () - a);
                incr selects
              end);
            List.iter
              (fun k ->
                if Request.Key_map.mem k !pool then begin
                  pool := Request.Key_map.remove k !pool;
                  arrival := Request.Key_map.remove k !arrival;
                  decr size
                end)
              keys)
          o.Outcome.batch_log)
  in
  let peak_size, peak_pool, peak_arrival = !peak in
  let at_peak, t2, t3 =
    timed (fun () ->
        List.init 5 (fun _ ->
            let a = Metric.now_ns () in
            ignore (P.Batch.take_oldest ~limit ~pool:peak_pool ~arrival:peak_arrival);
            float_of_int (Metric.now_ns () - a)))
  in
  ( !selects,
    !select_ns,
    peak_size,
    (if peak_size = 0 then 0.0 else Metric.median at_peak),
    [ { s_name = "core.batch_select"; s_start = t0; s_end = t1 };
      { s_name = "core.take_oldest_at_peak"; s_start = t2; s_end = t3 } ] )

let replay (w : Load.t) episode cap cluster (o : Outcome.t) =
  let sends = Array.of_list (List.rev cap.sends) in
  let envs, d0, d1 =
    timed (fun () ->
        Array.map
          (fun (_, p) ->
            match Message.decode p with
            | env -> Some env
            | exception Sof_util.Codec.Reader.Truncated -> None)
          sends)
  in
  let problems = ref [] in
  if Array.exists Option.is_none envs then
    problems := "codec replay: a captured payload did not decode" :: !problems;
  (* A multicast hands every destination the same encoded string, so a
     repeat of a source's previous payload is the same encode and the same
     signature. *)
  let n = H.Cluster.process_count cluster in
  let last = Array.make n "" in
  let owner = Array.make (Array.length sends) 0 in
  let distinct = ref [] and count = ref 0 in
  Array.iteri
    (fun i (src, p) ->
      if not (last.(src) == p) then begin
        last.(src) <- p;
        distinct := i :: !distinct;
        incr count
      end;
      owner.(i) <- !count - 1)
    sends;
  let distinct = Array.of_list (List.rev !distinct) in
  let unique = Array.map (fun i -> envs.(i)) distinct in
  let encoded, e0, e1 =
    timed (fun () ->
        Array.map (function Some env -> Message.encode env | None -> "") unique)
  in
  if not (Array.for_all2 (fun i enc -> String.equal enc (snd sends.(i))) distinct encoded) then
    problems := "codec replay: re-encoding changed a payload" :: !problems;
  let keyring = Keyring.create ~scheme:wire_scheme ~rng:(Rng.create 1L) ~node_count:n () in
  let bodies =
    Array.map
      (function
        | Some env -> (env.Message.sender, Message.encode_body env.Message.body)
        | None -> (0, ""))
      unique
  in
  let sigs, s0, s1 =
    timed (fun () -> Array.map (fun (signer, body) -> Keyring.sign keyring ~signer body) bodies)
  in
  let verified, v0, v1 =
    timed (fun () ->
        Array.fold_left
          (fun ok j ->
            let signer, msg = bodies.(j) in
            Keyring.verify keyring ~signer ~msg ~signature:sigs.(j) && ok)
          true owner)
  in
  if not verified then problems := "crypto replay: a signature did not verify" :: !problems;
  let append_ns, sync_ns, replayed, replay_ns, storage_spans, storage_problems =
    if w.Load.durable then replay_storage (wal_payloads cluster) else (0, 0, 0, 0, [], [])
  in
  let selects, select_ns, pending_peak, take_oldest_peak_ns, select_spans =
    replay_selection w episode o
  in
  {
    decodes = Array.length sends;
    decode_ns = d1 - d0;
    bytes_decoded = Array.fold_left (fun acc (_, p) -> acc + String.length p) 0 sends;
    encodes = Array.length distinct;
    encode_ns = e1 - e0;
    signs = Array.length distinct;
    sign_ns = s1 - s0;
    verifies = Array.length sends;
    verify_ns = v1 - v0;
    appends = replayed;
    append_ns;
    sync_ns;
    replayed;
    replay_ns;
    selects;
    select_ns;
    pending_peak;
    take_oldest_peak_ns;
    spans =
      [ { s_name = "codec.decode"; s_start = d0; s_end = d1 };
        { s_name = "codec.encode"; s_start = e0; s_end = e1 };
        { s_name = "crypto.sign"; s_start = s0; s_end = s1 };
        { s_name = "crypto.verify"; s_start = v0; s_end = v1 } ]
      @ storage_spans @ select_spans;
    problems = List.rev !problems @ storage_problems;
  }

let per_op ns ops = if ops = 0 then 0.0 else float_of_int ns /. float_of_int ops

(* ------------------------------------------------------------- spans *)

(* Host spans: the traced simulation with one child per state-machine
   apply, and the replay with one child per layer.  Virtual spans: each
   answered request, with its wait for a batch, its ordering and its
   delivery as children, all carrying the request key. *)
let write_spans path ~sim_start ~sim_end cap (r : replay) (o : Outcome.t) =
  let buf = Buffer.create (1 lsl 20) in
  let id = ref 0 in
  let emit ?parent ?key ~clock name start stop =
    incr id;
    Printf.bprintf buf
      "{\"id\":%d,\"name\":\"%s\",\"clock\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s%s}\n"
      !id name clock start stop
      (match parent with Some p -> string_of_int p | None -> "null")
      (match key with Some k -> Printf.sprintf ",\"key\":\"%s\"" k | None -> "");
    !id
  in
  let rel t = t - sim_start in
  let run = emit ~clock:"host" "traced_run" 0 (rel sim_end) in
  List.iter
    (fun (a, b) -> ignore (emit ~parent:run ~clock:"host" "smr.apply" (rel a) (rel b)))
    (List.rev cap.applies);
  (match r.spans with
  | [] -> ()
  | first :: _ ->
    let stop = List.fold_left (fun acc s -> max acc s.s_end) 0 r.spans in
    let root = emit ~clock:"host" "replay" (rel first.s_start) (rel stop) in
    List.iter
      (fun s -> ignore (emit ~parent:root ~clock:"host" s.s_name (rel s.s_start) (rel s.s_end)))
      r.spans);
  List.iter
    (fun (k, (t : Outcome.request_times)) ->
      let key = Printf.sprintf "%d.%d" k.Request.client k.Request.client_seq in
      let ns = Simtime.to_ns in
      let req =
        emit ~key ~clock:"virtual" "request" (ns t.Outcome.arrival) (ns t.Outcome.answered)
      in
      let child name a b = ignore (emit ~parent:req ~key ~clock:"virtual" name (ns a) (ns b)) in
      Option.iter (fun b -> child "batch_wait" t.Outcome.arrival b) t.Outcome.batched;
      (match (t.Outcome.batched, t.Outcome.committed) with
      | Some b, Some c when Simtime.compare c b >= 0 -> child "order" b c
      | _ -> ());
      match t.Outcome.committed with
      | Some c when Simtime.compare t.Outcome.answered c >= 0 -> child "deliver" c t.Outcome.answered
      | _ -> ())
    o.Outcome.requests;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

(* ------------------------------------------------------------ the run *)

(* What one untraced-then-traced step keeps once its clusters are
   dropped. *)
type step = {
  untraced_wall_s : float;
  traced_wall_s : float;
  events_per_s : float;
  rp : replay;
  apply_count : int;
  apply_ns : int;
  layer_ns : (string * float) list;
      (** Host time the replays attribute to each layer, scaled to the
          cluster's exact operation counts where the replay's differ. *)
}

let explained_ns s = List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 s.layer_ns

(* The first step in full, for the counts and the span file. *)
type first = {
  untraced : Load.rep;
  traced : Load.rep;
  cap : capture;
  outcome : Outcome.t;
  sim_start : int;
}

(* The layers whose host time the traced run attributes, by metric prefix;
   [core.batch_select] is the core's batch selection alone. *)
let share_layers = [ "codec"; "crypto"; "storage"; "core.batch_select"; "smr" ]

let summarize (untraced : Load.rep) (traced : Load.rep) cap rp =
  let apply_count = List.length cap.applies in
  let apply_ns = List.fold_left (fun acc (a, b) -> acc + (b - a)) 0 cap.applies in
  let cc = H.Cluster.total_crypto_counts traced.Load.cluster in
  let sg f =
    match H.Metrics.storage_stats traced.Load.cluster with Some x -> f x | None -> 0
  in
  let scaled ns ops exact = per_op ns ops *. float_of_int exact in
  {
    untraced_wall_s = untraced.Load.wall_s;
    traced_wall_s = traced.Load.wall_s;
    events_per_s =
      float_of_int (Engine.events_fired (H.Cluster.engine untraced.Load.cluster))
      /. untraced.Load.wall_s;
    rp;
    apply_count;
    apply_ns;
    layer_ns =
      List.combine share_layers
        [
          float_of_int (rp.decode_ns + rp.encode_ns);
          scaled rp.sign_ns rp.signs cc.H.Trace.signs
          +. scaled rp.verify_ns rp.verifies cc.H.Trace.verifies;
          scaled rp.append_ns rp.appends (sg (fun x -> x.H.Metrics.st_appends))
          +. scaled rp.sync_ns rp.appends (sg (fun x -> x.H.Metrics.st_syncs))
          +. scaled rp.replay_ns rp.replayed (sg (fun x -> x.H.Metrics.st_replayed_entries));
          float_of_int rp.select_ns;
          float_of_int apply_ns;
        ];
  }

let phase_names = [ "endorse"; "order"; "ack"; "pre_prepare"; "prepare"; "commit" ]

let layer_metrics (w : Load.t) (first : first) (steps : step list) =
  let u = first.untraced.Load.cluster and c = first.traced.Load.cluster in
  let o = first.outcome in
  let s0 = List.hd steps in
  let m = Metric.make in
  let med f = Metric.median (List.map f steps) in
  let steps_n = List.length steps in
  let n = H.Cluster.process_count u in
  let events = Engine.events_fired (H.Cluster.engine u) in
  let elapsed = Simtime.to_ns (Engine.now (H.Cluster.engine u)) in
  let net = Network.stats (H.Cluster.network c) in
  let offered = float_of_int o.Outcome.offered in
  let crypto = H.Cluster.total_crypto_counts c in
  let st f = match H.Metrics.storage_stats c with Some s -> f s | None -> 0 in
  let recovery = H.Metrics.recovery_stats c in
  let signals = H.Metrics.signal_accounting c in
  let bd = H.Metrics.phase_breakdown c in
  let phase name =
    List.find_map
      (fun ps ->
        if String.equal (P.Context.phase_name ps.H.Metrics.ps_phase) name then
          Some ps.H.Metrics.ps_mean_width_ms
        else None)
      bd.H.Metrics.bd_phases
    |> Option.value ~default:0.0
  in
  let analyze_s =
    let (_ : H.Metrics.point), t0, t1 =
      timed (fun () ->
          H.Metrics.analyze c ~warmup:(Simtime.sec 1)
            ~window:(Simtime.diff w.Load.load (Simtime.sec 1)))
    in
    float_of_int (t1 - t0) /. 1e9
  in
  let nodes = List.init n Fun.id in
  [
    m "sim.events" "count" (float_of_int events) ~note:"Engine.events_fired, untraced";
    m "sim.events_per_host_s" "1/s" (med (fun s -> s.events_per_s)) ~samples:steps_n;
    m "sim.alloc_words_per_event" "words" (first.untraced.Load.alloc_words /. float_of_int events)
      ~note:"words allocated during the untraced simulation per event";
    m "sim.cpu_jobs" "count"
      (float_of_int (List.fold_left (fun a i -> a + Cpu.jobs_executed (H.Cluster.cpu u i)) 0 nodes));
    m "sim.cpu_busy_frac_max" "frac"
      (List.fold_left
         (fun a i -> Float.max a (float_of_int (Simtime.to_ns (Cpu.total_busy (H.Cluster.cpu u i)))))
         0.0 nodes
      /. float_of_int elapsed)
      ~note:"busiest node's Cpu.total_busy over the virtual run length";
    m "sim.cpu_queue_delay_p99_ms" "ms"
      (Statistics.percentile first.cap.queue_ms 99.0)
      ~samples:(Statistics.count first.cap.queue_ms)
      ~note:
        (Printf.sprintf "Cpu.queue_delay of every node sampled every %.0f ms"
           (Simtime.to_ms sample_period));
    m "net.msgs_sent" "count" (float_of_int net.Network.messages_sent);
    m "net.bytes_sent" "bytes" (float_of_int net.Network.bytes_sent);
    m "net.msgs_per_request" "msgs" (float_of_int net.Network.messages_sent /. offered)
      ~samples:o.Outcome.offered;
    m "net.bytes_per_request" "bytes" (float_of_int net.Network.bytes_sent /. offered)
      ~samples:o.Outcome.offered;
    m "codec.decode_host_ns" "ns/op" (med (fun s -> per_op s.rp.decode_ns s.rp.decodes))
      ~samples:s0.rp.decodes ~note:"Message.decode over the captured traffic";
    m "codec.encode_host_ns" "ns/op" (med (fun s -> per_op s.rp.encode_ns s.rp.encodes))
      ~samples:s0.rp.encodes ~note:"Message.encode, once per multicast";
    m "codec.bytes_decoded" "bytes" (float_of_int s0.rp.bytes_decoded);
    m "crypto.signs" "count" (float_of_int crypto.H.Trace.signs);
    m "crypto.verifies" "count" (float_of_int crypto.H.Trace.verifies);
    m "crypto.digest_bytes" "bytes" (float_of_int crypto.H.Trace.digest_bytes);
    m "crypto.sign_host_ns" "ns/op" (med (fun s -> per_op s.rp.sign_ns s.rp.signs))
      ~samples:s0.rp.signs ~note:"Keyring.sign over Message.encode_body of each envelope";
    m "crypto.verify_host_ns" "ns/op" (med (fun s -> per_op s.rp.verify_ns s.rp.verifies))
      ~samples:s0.rp.verifies;
    m "crypto.virtual_cpu_ms" "ms"
      (float_of_int
         (crypto.H.Trace.sign_ns + crypto.H.Trace.verify_ns + crypto.H.Trace.hmac_ns
        + crypto.H.Trace.digest_ns)
      /. 1e6)
      ~note:"virtual CPU the cost table charged for signing, verifying and digesting";
    m "core.batches" "count" (float_of_int o.Outcome.batches);
    m "core.requests_per_batch" "req"
      (if o.Outcome.batches = 0 then 0.0
       else float_of_int o.Outcome.delivered_requests /. float_of_int o.Outcome.batches)
      ~samples:o.Outcome.batches;
    m "core.batch_wait_p50_ms" "ms"
      (if Statistics.count o.Outcome.batch_wait_ms = 0 then 0.0
       else Statistics.median o.Outcome.batch_wait_ms)
      ~samples:(Statistics.count o.Outcome.batch_wait_ms)
      ~note:"arrival to Batched of the request's batch";
    m "core.pending_peak" "req" (float_of_int s0.rp.pending_peak)
      ~note:"largest pending pool at a batch instant, from arrivals and batches";
    m "core.take_oldest_host_ns_at_peak" "ns" s0.rp.take_oldest_peak_ns ~samples:5
      ~note:"Batch.take_oldest on the peak pool, median of 5";
    m "core.batch_select_host_ns" "ns/op" (med (fun s -> per_op s.rp.select_ns s.rp.selects))
      ~samples:s0.rp.selects
      ~note:"the protocol's own batch selection on the pool at each batch instant";
    m "core.phase.batch_ms" "ms" bd.H.Metrics.bd_mean_batch_ms ~samples:bd.H.Metrics.bd_batches
      ~note:"Metrics.phase_breakdown mean widths";
  ]
  @ List.map
      (fun name ->
        m (Printf.sprintf "core.phase.%s_ms" name) "ms" (phase name) ~samples:bd.H.Metrics.bd_batches)
      phase_names
  @ [
      m "core.fail_signals" "count" (float_of_int signals.H.Metrics.fa_total);
      m "core.installs" "count" (float_of_int signals.H.Metrics.fa_installs);
      m "core.failover_ms" "ms"
        (Option.value o.Outcome.order.H.Metrics.failover_ms ~default:0.0)
        ~note:"first fail-signal to first install; 0 without a fault";
      m "core.self_host_s" "s"
        (med (fun s -> s.traced_wall_s -. (explained_ns s /. 1e9)))
        ~samples:steps_n ~note:"residual: traced wall time minus the replayed layers' time";
      m "storage.appends" "count" (float_of_int (st (fun s -> s.H.Metrics.st_appends)));
      m "storage.syncs" "count" (float_of_int (st (fun s -> s.H.Metrics.st_syncs)));
      m "storage.checkpoint_writes" "count"
        (float_of_int (st (fun s -> s.H.Metrics.st_checkpoint_writes)));
      m "storage.replayed_entries" "count"
        (float_of_int (st (fun s -> s.H.Metrics.st_replayed_entries)));
      m "storage.append_host_ns" "ns/op" (med (fun s -> per_op s.rp.append_ns s.rp.appends))
        ~samples:s0.rp.appends ~note:"Wal.append on a Sim_disk over the delivered batches";
      m "storage.sync_host_ns" "ns/op" (med (fun s -> per_op s.rp.sync_ns s.rp.appends))
        ~samples:s0.rp.appends;
      m "storage.replay_host_ns" "ns/op" (med (fun s -> per_op s.rp.replay_ns s.rp.replayed))
        ~samples:s0.rp.replayed ~note:"Wal.attach and Wal.replay, per replayed entry";
      m "recovery.transfers_installed" "count"
        (float_of_int recovery.H.Metrics.rc_transfers_installed);
      m "recovery.local_recoveries" "count" (float_of_int recovery.H.Metrics.rc_local_recoveries);
      m "recovery.max_log_length" "entries" (float_of_int recovery.H.Metrics.rc_max_log_length);
      m "recovery.catchup_ms" "ms" (Option.value o.Outcome.catchup_ms ~default:0.0)
        ~note:"restart to the first delivery of a post-restart sequence; 0 without a restart";
      m "smr.ops_applied" "count" (float_of_int s0.apply_count);
      m "smr.apply_host_ns" "ns/op" (med (fun s -> per_op s.apply_ns s.apply_count))
        ~samples:s0.apply_count ~note:"timed inside the traced run by the machine wrapper";
      m "harness.event_log_len" "events" (float_of_int (List.length (H.Cluster.events c)));
      m "harness.analyze_host_s" "s" analyze_s ~note:"Metrics.analyze on the traced cluster";
      m "harness.untraced_run_wall_s" "s" (med (fun s -> s.untraced_wall_s)) ~samples:steps_n;
      m "harness.traced_run_wall_s" "s" (med (fun s -> s.traced_wall_s)) ~samples:steps_n;
      m "harness.tracing_overhead_s" "s"
        (med (fun s -> s.traced_wall_s -. s.untraced_wall_s))
        ~samples:steps_n ~note:"traced minus untraced wall time of the same episode";
    ]
  (* Where the traced wall time goes: each replayed layer's share, and the
     residual the replays leave to the core, engine and network. *)
  @ List.map
      (fun layer ->
        m (layer ^ ".host_share") "frac"
          (med (fun s -> List.assoc layer s.layer_ns /. 1e9 /. s.traced_wall_s))
          ~samples:steps_n ~note:"share of the traced wall time")
      share_layers
  @ [
      m "core.self_host_share" "frac"
        (med (fun s -> 1.0 -. (explained_ns s /. 1e9 /. s.traced_wall_s)))
        ~samples:steps_n ~note:"residual share: core, engine, network and harness";
    ]

let run w episodes ~seconds ~spans =
  let k = Array.length episodes in
  let started = Metric.now_ns () in
  let steps = ref [] and violations = ref [] and first = ref None in
  let outcomes = Array.make k None in
  let i = ref 0 in
  while !i < 1 || Metric.secs_since started < seconds do
    let e = episodes.(!i mod k) in
    let untraced = Load.run w e in
    let cap = fresh_capture () in
    let sim_start = ref 0 in
    let traced =
      Load.run ~machine_factory:(timing_machine cap)
        ~instrument:(fun c ->
          instrument cap c;
          sim_start := Metric.now_ns ())
        w e
    in
    let outcome = Outcome.analyze traced.Load.cluster w e in
    if not (String.equal outcome.Outcome.fingerprint (Outcome.fingerprint untraced.Load.cluster))
    then
      violations :=
        Printf.sprintf "episode %d: tracing changed the virtual outcome" e.Load.index :: !violations;
    let rp = replay w e cap traced.Load.cluster outcome in
    violations := List.rev_append rp.problems !violations;
    if Option.is_none outcomes.(e.Load.index) then outcomes.(e.Load.index) <- Some outcome;
    steps := summarize untraced traced cap rp :: !steps;
    if Option.is_none !first then
      first := Some { untraced; traced; cap; outcome; sim_start = !sim_start };
    incr i
  done;
  let steps = List.rev !steps in
  let first = Option.get !first in
  if not (String.equal spans "") then
    write_spans spans ~sim_start:first.sim_start
      ~sim_end:(first.sim_start + int_of_float (first.traced.Load.wall_s *. 1e9))
      first.cap (List.hd steps).rp first.outcome;
  let pooled = Outcome.pool (List.filter_map Fun.id (Array.to_list outcomes)) in
  (pooled, pooled.Outcome.p_violations @ List.rev !violations, layer_metrics w first steps)
