(* The model checker checking itself: the bounded tiny models must exhaust
   clean for all four protocol cores, and the seeded digest-blind mutant
   must be caught with a minimal counterexample that replays to the same
   violation.  These are the CI-facing guarantees of `sof check`; the
   heavier boundary configurations live in the check-smoke CI job. *)

module C = Sof_check
module I = Sof_harness.Invariants

let tiny p = C.Model.default p

let run ?(depth = 40) spec = C.Explore.run spec ~depth

let outcome_label = function
  | C.Explore.Exhausted -> "exhausted"
  | C.Explore.Depth_capped -> "depth-capped"
  | C.Explore.Violation v ->
    Printf.sprintf "violation of %s" v.C.Explore.result.I.name

(* Exact explored-state counts at the default bounds (what
   `sof check --require-exhausted --stats` prints).  Any change to a core's
   message flow or to the explorer moves them; a pure refactor must not. *)
let expected_states = function
  | C.Model.Sc -> 134
  | C.Model.Scr -> 279
  | C.Model.Bft -> 246
  | C.Model.Ct -> 27

let test_exhausts p () =
  let r = run (tiny p) in
  match r.C.Explore.outcome with
  | C.Explore.Exhausted ->
    Alcotest.(check int) "explored states" (expected_states p)
      r.C.Explore.stats.C.Explore.states
  | o -> Alcotest.failf "%s: expected exhaustion, got %s"
           (C.Model.protocol_name p) (outcome_label o)

let mutant_spec =
  {
    (C.Model.default C.Model.Bft) with
    C.Model.digest_blind = true;
    equivocate = Some 1;
  }

let find_counterexample () =
  match (run mutant_spec).C.Explore.outcome with
  | C.Explore.Violation v -> v
  | o -> Alcotest.failf "mutant survived: %s" (outcome_label o)

let test_mutant_caught () =
  let v = find_counterexample () in
  Alcotest.(check string) "the digest-blind bug is a coherence violation"
    "commit-coherence" v.C.Explore.result.I.name

let test_counterexample_replays () =
  let v = find_counterexample () in
  match C.Explore.replay_violation mutant_spec v.C.Explore.schedule with
  | Some r ->
    Alcotest.(check string) "replay re-triggers the same invariant"
      v.C.Explore.result.I.name r.I.name
  | None -> Alcotest.fail "reported schedule replayed clean"

let test_counterexample_minimal () =
  let v = find_counterexample () in
  let sched = v.C.Explore.schedule in
  List.iteri
    (fun i _ ->
      let cand = List.filteri (fun j _ -> not (Int.equal i j)) sched in
      match C.Explore.replay_violation mutant_spec cand with
      | Some r when String.equal r.I.name v.C.Explore.result.I.name ->
        Alcotest.failf "step %d is removable: schedule is not minimal" i
      | Some _ | None -> ())
    sched

let test_equivocation_alone_is_safe () =
  (* Without the mutant the equivocating primary is caught by digest
     checks: the same adversary must not produce any violation. *)
  let spec = { mutant_spec with C.Model.digest_blind = false } in
  match (run spec).C.Explore.outcome with
  | C.Explore.Violation v ->
    Alcotest.failf "honest bft violated %s under equivocation"
      v.C.Explore.result.I.name
  | C.Explore.Exhausted | C.Explore.Depth_capped -> ()

let test_schedule_roundtrip () =
  let sched =
    [ C.Schedule.Fire 1; C.Schedule.Deliver 0; C.Schedule.Crash 2;
      C.Schedule.Deliver 14 ]
  in
  match C.Schedule.decode (C.Schedule.encode sched) with
  | Ok back ->
    Alcotest.(check bool) "decode (encode s) = s" true
      (List.length back = List.length sched
      && List.for_all2 C.Schedule.equal_action back sched)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_replay_rejects_infeasible () =
  match C.Explore.replay (tiny C.Model.Ct) [ C.Schedule.Deliver 9999 ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "delivering an unknown message must be infeasible"

let suite =
  [
    ( "check.explore",
      [
        Alcotest.test_case "sc tiny model exhausts clean" `Slow
          (test_exhausts C.Model.Sc);
        Alcotest.test_case "scr tiny model exhausts clean" `Slow
          (test_exhausts C.Model.Scr);
        Alcotest.test_case "bft tiny model exhausts clean" `Slow
          (test_exhausts C.Model.Bft);
        Alcotest.test_case "ct tiny model exhausts clean" `Quick
          (test_exhausts C.Model.Ct);
        Alcotest.test_case "digest-blind mutant is caught" `Slow test_mutant_caught;
        Alcotest.test_case "counterexample replays to the same violation" `Slow
          test_counterexample_replays;
        Alcotest.test_case "counterexample is minimal" `Slow
          test_counterexample_minimal;
        Alcotest.test_case "equivocation without the mutant is safe" `Slow
          test_equivocation_alone_is_safe;
        Alcotest.test_case "schedule encode/decode roundtrip" `Quick
          test_schedule_roundtrip;
        Alcotest.test_case "replay rejects infeasible schedules" `Quick
          test_replay_rejects_infeasible;
      ] );
  ]
