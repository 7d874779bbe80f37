(* One benchmark run of one workload, from a single process on one thread.

     bench.exe --workload NAME --seed N --seconds S --mode timed|traced
               [--spans PATH]

   [timed] simulates the workload's episodes again and again, tracing off,
   until [S] seconds have passed, timing cluster builds between
   repetitions for set-up, and reports the end-to-end metrics: host
   timings scaled to a reference speed and the virtual results of the
   seed, which every repetition must reproduce.
   [traced] reports the per-layer metrics instead (see [Traced]).  Either
   way the output-correctness check runs on every episode, and the last line
   printed is one JSON document; the process exits 1 when a check fails. *)

module Simtime = Sof_sim.Simtime
module Statistics = Sof_util.Statistics
module Json = Sof_util.Json
module H = Sof_harness

(* A shared machine runs the same code up to twice as fast or slow, in
   phases of seconds to minutes that can outlast a run, and every kind of
   code slows together: cluster builds, the simulation, plain stdlib work.
   So host timings are scaled to a reference speed.  A fixed piece of
   stdlib-only work, the calibration kernel, is timed just before and just
   after every timed repetition; its wall time is multiplied by
   [reference_kernel_s] over the mean of those two kernel times.  The
   kernel uses no code of this repository, so no change to the simulator
   moves it: a scaled time moves only when the simulator's own cost does.
   The unscaled figures are printed too (run_wall_s, setup_wall_s).

   Host timings are medians, so an episode must run several times: after
   one pass over every episode (which the virtual results need) the
   repetitions cycle through the first [timed_episodes] only, at least
   [min_cycles] times and then until the time is up.  run_ref_s is the mean
   over the timed episodes of each one's median scaled repetition.

   Set-up takes tens of microseconds (SC) to milliseconds (durable BFT), so
   builds are timed in rounds of at least [setup_round_s], each round
   reporting its mean build time, scaled by the kernel time measured just
   before it; a few rounds follow every repetition after the first pass,
   so the rounds sample the rest of the run, and setup_s is their median. *)
let timed_episodes = 4
let min_cycles = 2
let setup_round_s = 0.02
let setup_rounds_per_rep = 3

(* The reference machine runs the calibration kernel in exactly this long. *)
let reference_kernel_s = 1e-3
let kernel_samples = 7
let kernel_sink = ref 0

(* About a millisecond of allocation, hashing, MD5 and sorting, the mix the
   simulator itself spends its time on. *)
let kernel () =
  let table = Hashtbl.create 64 in
  let acc = ref 0 in
  for i = 0 to 3999 do
    let key = i * 7919 land 1023 in
    Hashtbl.replace table key (List.init 8 (fun j -> i + j));
    (match Hashtbl.find_opt table (key * 31 land 1023) with
    | Some l -> acc := !acc + List.length l
    | None -> ());
    if i land 15 = 0 then
      acc := !acc + Char.code (Digest.string (string_of_int i ^ String.make 200 'x')).[0]
  done;
  let xs = Array.init 2000 (fun i -> i * 104729 mod 2003) in
  Array.sort compare xs;
  kernel_sink := !acc + xs.(0)

(* The kernel's fastest of [kernel_samples] runs, from a compacted heap so
   that no collection of the simulator's garbage lands in it. *)
let calibrate () =
  Gc.compact ();
  let rec go n best =
    if n = 0 then best
    else begin
      let t0 = Metric.now_ns () in
      kernel ();
      go (n - 1) (Float.min best (Metric.secs_since t0))
    end
  in
  go kernel_samples infinity

let scaled ~kernel_s wall_s = wall_s *. reference_kernel_s /. kernel_s

let setup_round spec =
  (* Start from a compacted heap, so the round does not pay for collecting
     the episode or the round before it. *)
  Gc.compact ();
  let t0 = Metric.now_ns () in
  let rec go builds =
    ignore (H.Cluster.build spec);
    let elapsed = Metric.secs_since t0 in
    if elapsed >= setup_round_s then elapsed /. float_of_int builds else go (builds + 1)
  in
  go 1

type timing = { wall_s : float; kernel_s : float }

(* One pass runs every episode once; then repetitions cycle through the
   timed episodes.  Returns the timed episodes' repetitions, the set-up
   rounds, the top heap after the first episode, and the first pass's
   outcomes; every repetition must reproduce its episode's first
   fingerprint. *)
let repeat w episodes ~seconds =
  let started = Metric.now_ns () in
  let k = Array.length episodes in
  let timed = min k timed_episodes in
  let walls = Array.make timed [] in
  let outcomes = Array.make k None in
  let spec = Load.spec w episodes.(0) in
  let setup = ref [] and mismatches = ref [] and peak_words = ref 0 in
  let i = ref 0 in
  while !i < k + (min_cycles * timed) || Metric.secs_since started < seconds do
    let e = episodes.(if !i < k then !i else (!i - k) mod timed) in
    let before = if e.Load.index < timed then calibrate () else 0.0 in
    let r = Load.run w e in
    if !i = 0 then peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
    (match outcomes.(e.Load.index) with
    | None ->
      outcomes.(e.Load.index) <- Some (Outcome.analyze r.Load.cluster w e)
    | Some o ->
      let fp = Outcome.fingerprint r.Load.cluster in
      if not (String.equal fp o.Outcome.fingerprint) then
        mismatches :=
          Printf.sprintf "episode %d: repetition diverged: %s" e.Load.index fp :: !mismatches);
    if e.Load.index < timed then begin
      let after = calibrate () in
      walls.(e.Load.index) <-
        { wall_s = r.Load.wall_s; kernel_s = (before +. after) /. 2.0 } :: walls.(e.Load.index);
      if !i >= k then
        for _ = 1 to setup_rounds_per_rep do
          setup := { wall_s = setup_round spec; kernel_s = after } :: !setup
        done
    end;
    incr i
  done;
  (walls, !setup, !peak_words, Array.to_list (Array.map Option.get outcomes), List.rev !mismatches)

let end_to_end (p : Outcome.pooled) ~episodes ~setup ~walls ~peak_words =
  let word_mb = float_of_int (Sys.word_size / 8) /. 1e6 in
  let answered = p.Outcome.p_answered in
  let pct q = if answered = 0 then 0.0 else Statistics.percentile p.Outcome.p_reply_ms q in
  let median_of f xs = Metric.median (List.map f xs) in
  let ref_s t = scaled ~kernel_s:t.kernel_s t.wall_s in
  let per_episode f = Metric.mean (Array.to_list (Array.map (median_of f) walls)) in
  let reps = Array.fold_left (fun n l -> n + List.length l) 0 walls in
  let rounds = List.length setup in
  let batches = p.Outcome.p_order_batches in
  [
    Metric.make "setup_s" "s" (median_of ref_s setup) ~samples:rounds
      ~note:"one Cluster.build (keyring, disks, processes) at the reference speed; median over rounds";
    Metric.make "setup_wall_s" "s" (median_of (fun t -> t.wall_s) setup) ~samples:rounds
      ~note:"one Cluster.build, unscaled wall time; median over rounds";
    Metric.make "run_ref_s" "s" (per_episode ref_s) ~samples:reps
      ~note:"simulating one episode through its drain, at the reference speed; mean over the timed episodes of their medians";
    Metric.make "run_wall_s" "s" (per_episode (fun t -> t.wall_s)) ~samples:reps
      ~note:"simulating one episode through its drain, unscaled host wall time";
    Metric.make "kernel_s" "s" (per_episode (fun t -> t.kernel_s)) ~samples:reps
      ~note:"calibration kernel around the timed repetitions (reference: 0.001 s)";
    Metric.make "peak_heap_mb" "MB" (float_of_int peak_words *. word_mb)
      ~note:"Gc top heap after the first episode";
    Metric.make "order_latency_p50_ms" "ms" p.Outcome.p_order_p50_ms ~samples:batches
      ~note:"Batched to first Committed (Metrics.analyze), mean over episodes";
    Metric.make "order_latency_p95_ms" "ms" p.Outcome.p_order_p95_ms ~samples:batches;
    Metric.make "reply_latency_p50_ms" "ms" (pct 50.0) ~samples:answered
      ~note:"arrival to the (f+1)-th replica's Delivered, answered requests of all episodes";
    Metric.make "reply_latency_p99_ms" "ms" (pct 99.0) ~samples:answered;
    Metric.make "goodput_rps" "req/s" p.Outcome.p_goodput_rps ~samples:answered
      ~note:"answered requests per virtual second up to the last reply certificate";
    Metric.make "failed_frac" "frac"
      (float_of_int (p.Outcome.p_offered - answered) /. float_of_int p.Outcome.p_offered)
      ~samples:p.Outcome.p_offered
      ~note:"offered requests with no reply certificate after the drain";
    Metric.make "outage_ms" "ms" p.Outcome.p_outage_ms
      ~samples:episodes
      ~note:"longest gap between successive reply certificates during the load";
  ]
  @ (match p.Outcome.p_failover_ms with
    | Some ms ->
      [ Metric.make "failover_ms" "ms" ms ~samples:episodes
          ~note:"first fail-signal to first install (Metrics.analyze)" ]
    | None -> [])
  @
  match p.Outcome.p_catchup_ms with
  | Some ms ->
    [ Metric.make "catchup_ms" "ms" ms ~samples:episodes
        ~note:"restart to the restarted replica's first delivery of a post-restart sequence" ]
  | None -> []

let timed w episodes ~seconds =
  let walls, setup, peak_words, outcomes, mismatches = repeat w episodes ~seconds in
  let pooled = Outcome.pool outcomes in
  let metrics =
    end_to_end pooled ~episodes:(Array.length episodes) ~setup ~walls ~peak_words
  in
  (pooled, pooled.Outcome.p_violations @ mismatches, metrics)

(* ------------------------------------------------------------ main *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let mode = ref "timed" and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--mode", Arg.Set_string mode, "timed|traced");
      ("--spans", Arg.Set_string spans, "PATH where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --mode timed|traced";
  let w =
    match Load.find !workload with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let episodes = Load.make_episodes w ~seed:!seed in
  let pooled, violations, metrics =
    match !mode with
    | "timed" -> timed w episodes ~seconds:!seconds
    | "traced" -> Traced.run w episodes ~seconds:!seconds ~spans:!spans
    | m ->
      prerr_endline ("unknown mode: " ^ m);
      exit 2
  in
  let correct = violations = [] in
  let attempted = pooled.Outcome.p_offered in
  (* A violated check fails every operation of the run. *)
  let failed = if correct then attempted - pooled.Outcome.p_answered else attempted in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str w.Load.name);
        ("seed", Json.num_of_int !seed);
        ("mode", Json.Str !mode);
        ("episodes", Json.num_of_int w.Load.episodes);
        ("schedule_digest", Json.Str (Load.schedule_digest episodes));
        ( "cluster_seeds",
          Json.List
            (Array.to_list
               (Array.map (fun e -> Json.Str (Int64.to_string e.Load.cluster_seed)) episodes)) );
        ( "regime",
          Json.Str
            (Printf.sprintf "offered %.0f req/s against a batch ceiling of %.0f req/s"
               w.Load.rate (Load.ceiling_rps ())) );
        ( "generator_lateness_ms",
          Json.Str "0 by construction: every arrival fires at its due virtual instant" );
        ("correct", Json.Bool correct);
        ("violations", Json.List (List.map (fun v -> Json.Str v) violations));
        ("attempted", Json.num_of_int attempted);
        ("failed", Json.num_of_int failed);
        ("metrics", Json.List (List.map Metric.to_json metrics));
      ]
  in
  print_endline (Json.to_string doc);
  exit (if correct then 0 else 1)
