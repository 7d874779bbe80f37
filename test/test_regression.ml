(* Chaos regression seeds, promoted into `dune runtest`.

   Each seed replays one full Nemesis campaign — lossy substrate,
   partitions, surges, plus a crash or a seeded Byzantine fault — and the
   run must satisfy every protocol invariant.  The campaigns are
   deterministic in (protocol, byz, seed), so a failure here is a
   replayable bug: `sof chaos --protocol <p> [--byz] --seed <n>`
   reproduces it exactly. *)

module Simtime = Sof_sim.Simtime
module H = Sof_harness

let check_campaign ?(auth = Sof_crypto.Keyring.Sign) ~kind ~byz ~seed () =
  let report =
    H.Nemesis.run ~auth ~byz ~kind ~f:1 ~seed ~duration:(Simtime.sec 10) ()
  in
  (* A Byzantine campaign must actually have drawn a fault — otherwise
     fs-accountability passes vacuously.  CT has no Byzantine model and
     keeps its crash instead. *)
  if byz && kind <> H.Cluster.Ct_protocol then
    Alcotest.(check bool)
      (Printf.sprintf "byz fault drawn (seed %Ld)" seed)
      true
      (report.H.Nemesis.plan.H.Nemesis.byz_faults <> []);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "invariant %s (seed %Ld)" r.H.Invariants.name seed)
        true r.H.Invariants.pass)
    report.H.Nemesis.invariants;
  Alcotest.(check bool)
    (Printf.sprintf "campaign verdict (seed %Ld)" seed)
    true report.H.Nemesis.passed

let case ?auth ~kind ~byz ~proto seed =
  let mac =
    match auth with Some Sof_crypto.Keyring.Mac -> " --auth mac" | _ -> ""
  in
  Alcotest.test_case
    (Printf.sprintf "%s%s%s seed %Ld" proto
       (if byz then " --byz" else "")
       mac seed)
    `Slow
    (check_campaign ?auth ~kind ~byz ~seed)

(* Crash-restart campaigns: the crash target comes back mid-run with empty
   volatile state and must rejoin through checkpointed state transfer.
   Replay with `sof chaos --protocol <p> --restart --seed <n>`. *)
let check_restart_campaign ?(auth = Sof_crypto.Keyring.Sign) ~kind ~seed () =
  let report =
    H.Nemesis.run ~auth ~restart:true ~kind ~f:1 ~seed
      ~duration:(Simtime.sec 10) ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "someone restarted (seed %Ld)" seed)
    true
    (report.H.Nemesis.restarted <> []);
  (match report.H.Nemesis.recovery with
  | None -> Alcotest.fail "restart campaign ran without checkpointing"
  | Some r ->
    Alcotest.(check int)
      (Printf.sprintf "every restart recovered (seed %Ld)" seed)
      r.H.Metrics.rc_restarts r.H.Metrics.rc_recovered);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "invariant %s (seed %Ld)" r.H.Invariants.name seed)
        true r.H.Invariants.pass)
    report.H.Nemesis.invariants;
  Alcotest.(check bool)
    (Printf.sprintf "campaign verdict (seed %Ld)" seed)
    true report.H.Nemesis.passed

let restart_case ?auth ~kind ~proto seed =
  let mac =
    match auth with Some Sof_crypto.Keyring.Mac -> " --auth mac" | _ -> ""
  in
  Alcotest.test_case
    (Printf.sprintf "%s --restart%s seed %Ld" proto mac seed)
    `Slow
    (check_restart_campaign ?auth ~kind ~seed)

(* Host allocation per simulated event must not grow with the backlog.
   SC/SCR at 400 req/s run three times past their batch ceiling, so the
   pending pool grows for as long as the load lasts; a core that re-scans
   that pool on every batch or watchdog tick allocates more per event the
   longer the load.  A ratio of two load lengths, unlike an absolute count,
   holds across compiler versions. *)
let minor_words_per_event ~kind ~load =
  let cluster = H.Cluster.build (H.Cluster.default_spec ~kind ~f:1) in
  H.Workload.install cluster (H.Workload.make ~rate_per_sec:400.0 ()) ~duration:load;
  let before = Gc.minor_words () in
  H.Cluster.run cluster ~until:load;
  let words = Gc.minor_words () -. before in
  words /. float_of_int (Sof_sim.Engine.events_fired (H.Cluster.engine cluster))

let test_allocation_independent_of_backlog kind () =
  let short = minor_words_per_event ~kind ~load:(Simtime.sec 2) in
  let long = minor_words_per_event ~kind ~load:(Simtime.sec 12) in
  if long /. short > 1.25 then
    Alcotest.failf "minor words per event grew %.2fx (2 s load %.0f, 12 s load %.0f; bound 1.25x)"
      (long /. short) short long

let suite =
  [
    ( "regression.backlog",
      [
        Alcotest.test_case "sc allocation per event independent of backlog" `Slow
          (test_allocation_independent_of_backlog H.Cluster.Sc_protocol);
        Alcotest.test_case "scr allocation per event independent of backlog" `Slow
          (test_allocation_independent_of_backlog H.Cluster.Scr_protocol);
      ] );
    ( "regression.chaos",
      List.map
        (case ~kind:H.Cluster.Ct_protocol ~byz:true ~proto:"ct")
        [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 42L ]
      @ List.map
          (case ~kind:H.Cluster.Ct_protocol ~byz:false ~proto:"ct")
          [ 5L; 42L; 99L ]
      (* seed 2 draws corrupt_digest at the coordinator primary: a
         value-domain fault, hence a fail-signal and an SC install
         fail-over inside the campaign. *)
      @ [ case ~kind:H.Cluster.Sc_protocol ~byz:true ~proto:"sc" 2L ]
      (* seed 1 mutes the coordinator primary mid-run, forcing an SCR
         view-change fail-over. *)
      @ [ case ~kind:H.Cluster.Scr_protocol ~byz:true ~proto:"scr" 1L ]
      (* The same Byzantine campaigns under MAC wire authentication:
         fail-signal accountability must still convict when the quorum
         phases carry authenticator vectors instead of signatures —
         accountable bodies (orders, fail-signals, checkpoints) keep
         transferable scheme signatures either way. *)
      @ [
          case ~auth:Sof_crypto.Keyring.Mac ~kind:H.Cluster.Sc_protocol
            ~byz:true ~proto:"sc" 2L;
          case ~auth:Sof_crypto.Keyring.Mac ~kind:H.Cluster.Scr_protocol
            ~byz:true ~proto:"scr" 1L;
        ]
      (* Restart under MAC auth: state-transfer certificates stay on the
         asymmetric path, so rejoin must work identically. *)
      @ List.map
          (fun (kind, proto) ->
            restart_case ~auth:Sof_crypto.Keyring.Mac ~kind ~proto 1L)
          [
            (H.Cluster.Sc_protocol, "sc");
            (H.Cluster.Scr_protocol, "scr");
            (H.Cluster.Bft_protocol, "bft");
          ]
      @ List.concat_map
          (fun (kind, proto) ->
            List.map (restart_case ~kind ~proto) [ 1L; 2L; 3L ])
          [
            (H.Cluster.Ct_protocol, "ct");
            (H.Cluster.Sc_protocol, "sc");
            (H.Cluster.Scr_protocol, "scr");
            (H.Cluster.Bft_protocol, "bft");
          ] );
  ]
