(* Checkpoint and recovery tests: the certificate/entry codec, image
   wrapping, certificate verification under each trust model, and
   cluster-level crash-restart recovery — including a Byzantine responder
   serving corrupt or stale checkpoint images. *)

module Simtime = Sof_sim.Simtime
module Codec = Sof_util.Codec
module P = Sof_protocol
module H = Sof_harness
module Cluster = H.Cluster
module Workload = H.Workload
module Checkpoint = P.Checkpoint
module Recovery = P.Recovery
module Request = Sof_smr.Request

let ms = Simtime.ms
let sec = Simtime.sec

(* ---------------------------------------------------------------- codec *)

let roundtrip_cert c =
  let w = Codec.Writer.create () in
  Checkpoint.write_cert w c;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  let c' = Checkpoint.read_cert r in
  Codec.Reader.expect_end r;
  Alcotest.(check bool) "cert survives codec" true (Checkpoint.equal_cert c c')

let test_cert_roundtrip () =
  roundtrip_cert
    {
      Checkpoint.cp_seq = 8;
      cp_digest = "digest-bytes";
      cp_proof = [ (0, "sig0"); (2, "sig2"); (3, "sig3") ];
      cp_endorsement = None;
    };
  roundtrip_cert
    {
      Checkpoint.cp_seq = 16;
      cp_digest = "d";
      cp_proof = [ (1, "primary-sig") ];
      cp_endorsement = Some (2, "shadow-endorsement");
    }

let test_entry_roundtrip () =
  let e =
    {
      Checkpoint.e_o = 9;
      e_digest = "batch-digest";
      e_requests =
        [
          Request.make ~client:1 ~client_seq:4 ~op:"set a";
          Request.make ~client:2 ~client_seq:1 ~op:"set b";
        ];
    }
  in
  let w = Codec.Writer.create () in
  Checkpoint.write_entry w e;
  let r = Codec.Reader.of_string (Codec.Writer.contents w) in
  let e' = Checkpoint.read_entry r in
  Codec.Reader.expect_end r;
  Alcotest.(check int) "seq" e.Checkpoint.e_o e'.Checkpoint.e_o;
  Alcotest.(check string) "digest" e.Checkpoint.e_digest e'.Checkpoint.e_digest;
  Alcotest.(check int) "request count" 2 (List.length e'.Checkpoint.e_requests);
  List.iter2
    (fun (a : Request.t) (b : Request.t) ->
      Alcotest.(check string) "op" a.Request.op b.Request.op;
      Alcotest.(check int) "client" a.Request.key.Request.client
        b.Request.key.Request.client)
    e.Checkpoint.e_requests e'.Checkpoint.e_requests

let test_image_wrap_roundtrip () =
  let state = "service-snapshot-bytes" in
  let marks = [ (1, 14); (2, 9); (7, 230) ] in
  let image = Checkpoint.wrap_image ~state ~marks in
  (match Checkpoint.unwrap_image image with
  | None -> Alcotest.fail "well-formed image rejected"
  | Some (state', marks') ->
    Alcotest.(check string) "state" state state';
    Alcotest.(check (list (pair int int))) "marks" marks marks');
  (* Empty marks and empty state are legal images too. *)
  match Checkpoint.unwrap_image (Checkpoint.wrap_image ~state:"" ~marks:[]) with
  | Some ("", []) -> ()
  | Some _ | None -> Alcotest.fail "empty image did not roundtrip"

let test_image_unwrap_rejects_malformed () =
  Alcotest.(check bool)
    "truncated bytes rejected" true
    (Checkpoint.unwrap_image "\xff\xff\xff" = None);
  let image = Checkpoint.wrap_image ~state:"snapshot" ~marks:[ (1, 1) ] in
  let truncated = String.sub image 0 (String.length image - 1) in
  Alcotest.(check bool)
    "chopped image rejected" true
    (Checkpoint.unwrap_image truncated = None)

let test_image_canonical_bytes () =
  (* Same state + same marks must wrap to identical bytes: the certified
     digest is over the wrapped image, so agreement depends on it. *)
  let a = Checkpoint.wrap_image ~state:"s" ~marks:[ (1, 5); (2, 3) ] in
  let b = Checkpoint.wrap_image ~state:"s" ~marks:[ (1, 5); (2, 3) ] in
  Alcotest.(check string) "deterministic bytes" a b

let test_is_boundary () =
  Alcotest.(check bool) "interval 0 never" false (Checkpoint.is_boundary ~interval:0 8);
  Alcotest.(check bool) "zero never" false (Checkpoint.is_boundary ~interval:8 0);
  Alcotest.(check bool) "multiple yes" true (Checkpoint.is_boundary ~interval:8 16);
  Alcotest.(check bool) "non-multiple no" false (Checkpoint.is_boundary ~interval:8 12)

(* --------------------------------------------------- cert verification *)

let keyring =
  lazy
    (let rng = Sof_util.Rng.create 99L in
     Sof_crypto.Keyring.create ~scheme:Sof_crypto.Scheme.mock ~rng ~node_count:6 ())

let sign signer msg = Sof_crypto.Keyring.sign (Lazy.force keyring) ~signer msg

let verify ~signer ~msg ~signature =
  Sof_crypto.Keyring.verify (Lazy.force keyring) ~signer ~msg ~signature

let signed_cert ~seq ~digest ~signers =
  let payload = Recovery.cert_payload ~seq ~digest in
  {
    Checkpoint.cp_seq = seq;
    cp_digest = digest;
    cp_proof = List.map (fun s -> (s, sign s payload)) signers;
    cp_endorsement = None;
  }

let quorum_signed = Recovery.Quorum_signed { quorum = 3; member_ok = (fun s -> s >= 0 && s < 4) }

let test_verify_quorum_signed () =
  let ok = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1; 2 ] in
  Alcotest.(check bool) "2f+1 valid signatures accepted" true
    (Recovery.verify_cert ~verify ~scheme:quorum_signed ok);
  let short = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1 ] in
  Alcotest.(check bool) "too few signers rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed short);
  let dup = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1; 1 ] in
  Alcotest.(check bool) "duplicate signer rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed dup);
  let outsider = signed_cert ~seq:8 ~digest:"d" ~signers:[ 0; 1; 5 ] in
  Alcotest.(check bool) "non-member signer rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed outsider);
  let bad_sig =
    { ok with Checkpoint.cp_proof = (0, "forged") :: List.tl ok.Checkpoint.cp_proof }
  in
  Alcotest.(check bool) "forged signature rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed bad_sig);
  let zero = signed_cert ~seq:0 ~digest:"d" ~signers:[ 0; 1; 2 ] in
  Alcotest.(check bool) "sequence zero rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed zero);
  (* A certificate over a different digest carries signatures that do not
     cover this payload. *)
  let wrong = { ok with Checkpoint.cp_digest = "other" } in
  Alcotest.(check bool) "digest mismatch rejected" false
    (Recovery.verify_cert ~verify ~scheme:quorum_signed wrong)

let test_verify_quorum_counted () =
  (* Crash-only model: claims are unsigned, distinct legitimate senders
     suffice. *)
  let scheme = Recovery.Quorum_counted { quorum = 2; member_ok = (fun s -> s < 4) } in
  let cert =
    { Checkpoint.cp_seq = 8; cp_digest = "d"; cp_proof = [ (0, ""); (3, "") ]; cp_endorsement = None }
  in
  Alcotest.(check bool) "f+1 distinct senders accepted" true
    (Recovery.verify_cert ~verify ~scheme cert);
  let dup = { cert with Checkpoint.cp_proof = [ (0, ""); (0, "") ] } in
  Alcotest.(check bool) "duplicate sender rejected" false
    (Recovery.verify_cert ~verify ~scheme dup)

let test_verify_pair_endorsed () =
  (* Pair (primary 0, shadow 1); unpaired candidate 4. *)
  let pair_ok ~primary ~endorser =
    match (primary, endorser) with
    | 0, Some 1 -> true
    | 4, None -> true
    | _ -> false
  in
  let scheme = Recovery.Pair_endorsed { pair_ok } in
  let seq = 8 and digest = "d" in
  let payload = Recovery.cert_payload ~seq ~digest in
  let body = P.Message.Checkpoint { seq; digest } in
  let first = sign 0 payload in
  let endorsed =
    {
      Checkpoint.cp_seq = seq;
      cp_digest = digest;
      cp_proof = [ (0, first) ];
      cp_endorsement = Some (1, sign 1 (P.Message.endorsement_payload body first));
    }
  in
  Alcotest.(check bool) "pair-endorsed accepted" true
    (Recovery.verify_cert ~verify ~scheme endorsed);
  let singleton =
    {
      Checkpoint.cp_seq = seq;
      cp_digest = digest;
      cp_proof = [ (4, sign 4 payload) ];
      cp_endorsement = None;
    }
  in
  Alcotest.(check bool) "unpaired candidate singleton accepted" true
    (Recovery.verify_cert ~verify ~scheme singleton);
  let unendorsed = { endorsed with Checkpoint.cp_endorsement = None } in
  Alcotest.(check bool) "paired primary without endorsement rejected" false
    (Recovery.verify_cert ~verify ~scheme unendorsed);
  let wrong_shadow =
    {
      endorsed with
      Checkpoint.cp_endorsement = Some (2, sign 2 (P.Message.endorsement_payload body first));
    }
  in
  Alcotest.(check bool) "endorsement from a non-shadow rejected" false
    (Recovery.verify_cert ~verify ~scheme wrong_shadow);
  let forged_endorsement =
    { endorsed with Checkpoint.cp_endorsement = Some (1, "forged") }
  in
  Alcotest.(check bool) "forged endorsement rejected" false
    (Recovery.verify_cert ~verify ~scheme forged_endorsement)

(* ------------------------------------------------- cluster-level runs *)

let count_events cluster pred =
  List.length (List.filter (fun (_, _, e) -> pred e) (Cluster.events cluster))

(* Crash one process mid-run, restart it, and require checkpointed state
   transfer (after local WAL replay, when [durable]) to bring it back into
   agreement with the survivors. *)
let crash_restart_run ?(durable = false) ~kind ~faults ~crashed () =
  let spec =
    {
      (Cluster.default_spec ~kind ~f:1) with
      Cluster.batching_interval = ms 50;
      pair_delay_estimate = sec 30;
      heartbeat_interval = sec 3600;
      checkpoint_interval = 4;
      faults;
      durable;
    }
  in
  let cluster = Cluster.build spec in
  Workload.install cluster (Workload.make ~rate_per_sec:300.0 ()) ~duration:(sec 6);
  Cluster.run cluster ~until:(sec 2);
  Cluster.crash cluster crashed;
  Cluster.run cluster ~until:(sec 4);
  Cluster.restart cluster crashed;
  Cluster.run cluster ~until:(sec 8);
  cluster

let kind_name = function
  | Cluster.Sc_protocol -> "sc"
  | Cluster.Scr_protocol -> "scr"
  | Cluster.Bft_protocol -> "bft"
  | Cluster.Ct_protocol -> "ct"

(* Every process except the Byzantine responders. *)
let honest cluster ~faults =
  List.filter
    (fun p -> not (List.mem_assoc p faults))
    (List.init (Cluster.process_count cluster) Fun.id)

let check_invariants results =
  List.iter
    (fun r ->
      Alcotest.(check bool) ("invariant " ^ r.H.Invariants.name) true r.H.Invariants.pass)
    results

let transfer_installed cluster =
  count_events cluster (function
    | P.Context.State_transfer_installed _ -> true
    | _ -> false)
  >= 1

let test_restart_recovers_via_state_transfer ~kind ~crashed () =
  let cluster = crash_restart_run ~kind ~faults:[] ~crashed () in
  Alcotest.(check bool) "restart recorded" true
    (count_events cluster (function P.Context.Node_restarted -> true | _ -> false) >= 1);
  Alcotest.(check bool) "state transfer installed" true (transfer_installed cluster);
  (* The restarted process resumes delivering after its comeback. *)
  let last_restart =
    List.fold_left
      (fun acc (at, who, e) ->
        match e with
        | P.Context.Node_restarted when who = crashed -> Some at
        | _ -> acc)
      None (Cluster.events cluster)
  in
  let restarted_at = Option.get last_restart in
  Alcotest.(check bool) "restarted process delivers again" true
    (List.exists
       (fun (at, who, e) ->
         who = crashed
         && Simtime.compare at restarted_at > 0
         && match e with P.Context.Delivered _ -> true | _ -> false)
       (Cluster.events cluster));
  let honest = honest cluster ~faults:[] in
  check_invariants
    [
      H.Invariants.agreement cluster ~honest;
      H.Invariants.prefix_consistency cluster ~honest;
      H.Invariants.checkpoint_agreement cluster ~honest;
    ]

(* A Byzantine responder serves corrupt checkpoint images: every such offer
   must be rejected (the image digest does not match the certificate), and
   recovery must still complete from the honest responders. *)
let test_corrupt_checkpoint_image_rejected ~kind ~responder () =
  let faults = [ (responder, P.Fault.Corrupt_checkpoint_image) ] in
  let cluster = crash_restart_run ~kind ~faults ~crashed:3 () in
  Alcotest.(check bool) "corrupt offer rejected" true
    (count_events cluster (function
       | P.Context.State_transfer_rejected { from } -> from = responder
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "recovery still installs" true (transfer_installed cluster);
  let honest = honest cluster ~faults in
  check_invariants
    [
      H.Invariants.agreement cluster ~honest;
      H.Invariants.checkpoint_agreement cluster ~honest;
    ]

(* A stale responder serves its previous stable checkpoint with no log
   suffix: verifiably certified, just old.  The recovering process must end
   up at the freshest offer, not the stale one. *)
let test_stale_checkpoint_tolerated ~kind ~responder () =
  let faults = [ (responder, P.Fault.Stale_checkpoint) ] in
  let cluster = crash_restart_run ~kind ~faults ~crashed:3 () in
  Alcotest.(check bool) "recovery installs despite staleness" true
    (transfer_installed cluster);
  let honest = honest cluster ~faults in
  check_invariants
    [
      H.Invariants.agreement cluster ~honest;
      H.Invariants.prefix_consistency cluster ~honest;
    ]

(* The lifecycle cases run against every core that has the fault.  CT
   (n = 3) crashes its last process; the Byzantine responders are SC/SCR's
   first replica and BFT's first backup (SC's replica 1 answers only after
   f+1 other offers have already ended the fetch). *)
let lifecycle_cases =
  let case fmt kind test =
    Alcotest.test_case (Printf.sprintf fmt (kind_name kind)) `Slow test
  in
  let byzantine =
    [ (Cluster.Sc_protocol, 0); (Cluster.Scr_protocol, 0); (Cluster.Bft_protocol, 1) ]
  in
  List.map
    (fun (kind, crashed) ->
      case "restart recovers via state transfer (%s)" kind
        (test_restart_recovers_via_state_transfer ~kind ~crashed))
    [ (Cluster.Sc_protocol, 3); (Cluster.Scr_protocol, 3); (Cluster.Bft_protocol, 3);
      (Cluster.Ct_protocol, 2) ]
  @ List.map
      (fun (kind, responder) ->
        case "corrupt checkpoint image rejected (%s)" kind
          (test_corrupt_checkpoint_image_rejected ~kind ~responder))
      byzantine
  @ List.map
      (fun (kind, responder) ->
        case "stale checkpoint tolerated (%s)" kind
          (test_stale_checkpoint_tolerated ~kind ~responder))
      byzantine

(* Trajectory pin: an MD5 over every event of a seeded crash-restart run,
   one "time who event" line each.  A refactor of the recovery lifecycle
   must leave these byte-identical: the same messages at the same virtual
   instants, charged the same CPU. *)
let trajectory_digest cluster =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (at, who, e) ->
      Buffer.add_string buf
        (Format.asprintf "%a %d %a\n" Simtime.pp at who P.Context.pp_event e))
    (Cluster.events cluster);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_trajectories =
  let corrupt p = [ (p, P.Fault.Corrupt_checkpoint_image) ] in
  [
    (Cluster.Sc_protocol, corrupt 0, 3, false, "139641b4daae5c69e0ceef43d198bc19");
    (Cluster.Sc_protocol, corrupt 0, 3, true, "9b7f460a9a9982f480b6cdeaa37871f9");
    (Cluster.Scr_protocol, corrupt 0, 3, false, "5e17a9f5dac694b4ea04550b6de28096");
    (Cluster.Scr_protocol, corrupt 0, 3, true, "bbbb2bfe6bf81c00bc44f75208a0c88e");
    (Cluster.Bft_protocol, corrupt 1, 3, false, "0e9e053c444ae937c20818ea5675997e");
    (Cluster.Bft_protocol, corrupt 1, 3, true, "3ca10732d02760a0ab107c106e4e7b9e");
    (Cluster.Ct_protocol, [], 2, false, "b6ff81c11d078fab3ca2b94f95436cb7");
    (Cluster.Ct_protocol, [], 2, true, "a52aa7efbe5b51bfd44ec9c0f37e2903");
  ]

let test_trajectories_pinned () =
  List.iter
    (fun (kind, faults, crashed, durable, expected) ->
      let cluster = crash_restart_run ~durable ~kind ~faults ~crashed () in
      Alcotest.(check string)
        (Printf.sprintf "%s%s trajectory" (kind_name kind)
           (if durable then " durable" else ""))
        expected (trajectory_digest cluster))
    pinned_trajectories

(* Backlog pin: SC/SCR/BFT/CT at 400 req/s, past SC's batch ceiling, with
   f = 2 and default timing, once fault-free and once with process 0 crashed
   at 2 s (SC/SCR fail-signals and an install; a BFT view change, which
   re-stamps the pending arrivals).  The request pool's batch selection and
   watchdog queries must leave these byte-identical. *)
let backlog_run ~kind ~crash =
  let cluster = Cluster.build (Cluster.default_spec ~kind ~f:2) in
  Workload.install cluster (Workload.make ~rate_per_sec:400.0 ()) ~duration:(sec 4);
  if crash then begin
    Cluster.run cluster ~until:(sec 2);
    Cluster.crash cluster 0
  end;
  Cluster.run cluster ~until:(sec 8);
  cluster

let pinned_backlog_trajectories =
  [
    (Cluster.Sc_protocol, false, "bb51af4a3186879b521ea5905a5fdb97");
    (Cluster.Sc_protocol, true, "e512e7d0721387dee3677f8c748276ef");
    (Cluster.Scr_protocol, false, "7a222208e5dd19b3d765687d58b597c7");
    (Cluster.Scr_protocol, true, "c3f5f858c81cb4bdbda68133d049e6f7");
    (Cluster.Bft_protocol, false, "416da202a7d43811a0f8d2f594042f58");
    (Cluster.Bft_protocol, true, "781c5bc2bead74220c81920db1a22e96");
    (Cluster.Ct_protocol, false, "3d25288c637e094fb87d4781b9f6a1b1");
    (Cluster.Ct_protocol, true, "475f4c981c32fcdfe89f0a9ce67b448c");
  ]

let test_backlog_trajectories_pinned () =
  List.iter
    (fun (kind, crash, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s backlog%s trajectory" (kind_name kind)
           (if crash then " crashed" else ""))
        expected
        (trajectory_digest (backlog_run ~kind ~crash)))
    pinned_backlog_trajectories

(* Fault-path pins: the pair machinery's failure handling under each
   injected fault, on the default layout at 200 req/s for 3 s, run to 6 s
   (the adaptive mute runs to 20 s, past the backed-off budgets).  Each run
   must also reach its path — the expected fail-signal domain, a coordinator
   replacement, and under SCR a pair recovery (the member that joined its
   counterpart's signal is only suspected, and comes back up) — so no pin
   can pass on a run where nothing failed.  The last two are SCR runs whose late
   NewView once stalled delivery. *)
type fault_pin = {
  fp_kind : Cluster.kind;
  fp_f : int;
  fp_faults : (int * P.Fault.t) list;
  fp_adaptive : bool;
  fp_dumb : bool;
  fp_value_domain : bool;  (** the domain of the first fail-signal *)
  fp_digest : string;
}

let fault_pin ?(f = 1) ?(adaptive = false) ?(dumb = true) kind faults
    ~value_domain digest =
  {
    fp_kind = kind;
    fp_f = f;
    fp_faults = faults;
    fp_adaptive = adaptive;
    fp_dumb = dumb;
    fp_value_domain = value_domain;
    fp_digest = digest;
  }

let pinned_fault_paths =
  let sc = Cluster.Sc_protocol and scr = Cluster.Scr_protocol in
  let corrupt = [ (0, P.Fault.Corrupt_digest_at 5) ] in
  let equivocate = [ (0, P.Fault.Equivocate_at 5) ] in
  let drop = [ (3, P.Fault.Drop_endorsements) ] in
  let spurious = [ (3, P.Fault.Spurious_fail_signal_at (sec 1)) ] in
  let mute = [ (3, P.Fault.Mute_at (sec 1)) ] in
  [
    fault_pin sc corrupt ~value_domain:true "b847d391136da0a0c4e24f94f75b6c6d";
    fault_pin sc equivocate ~value_domain:true "1b573c71b22f5db34822c517c6e798a1";
    fault_pin sc drop ~value_domain:false "804949289af8c3305bf0bc52bfa465e1";
    fault_pin sc spurious ~value_domain:false "214e447113e537b5796610f39a80cb43";
    fault_pin sc mute ~adaptive:true ~value_domain:false "11ddfbce3061943b3d79da50b78866b8";
    fault_pin sc corrupt ~f:2 ~value_domain:true "1f3b0c9ed65014734a2d1e39c9b2d6b3";
    fault_pin sc corrupt ~f:2 ~dumb:false ~value_domain:true
      "d2a306a518e2334ca94c37135b9ca2d2";
    fault_pin scr corrupt ~value_domain:true "89d21a7cefd0cdd466fda00c55076855";
    fault_pin scr equivocate ~value_domain:true "bdda1e419fc0dd9a686e83521aa3aa05";
    fault_pin scr drop ~value_domain:false "7ad6c4522fbbe00fd15da25242a7f390";
    fault_pin scr mute ~value_domain:false "6a90778d36a0f703a15d4e9de8511d86";
    fault_pin scr mute ~adaptive:true ~value_domain:false "e6f12439ceeaa849122cf7dafaa7ab8f";
    fault_pin scr spurious ~adaptive:true ~value_domain:false
      "f6e54c4db657dc7e372029638682e431";
    fault_pin scr ~f:2
      (corrupt @ [ (1, P.Fault.Unwilling_spam) ])
      ~value_domain:true "7672705c6c0e276bc8467658d81b8d45";
  ]

let fault_path_run pin =
  let spec =
    {
      (Cluster.default_spec ~kind:pin.fp_kind ~f:pin.fp_f) with
      Cluster.faults = pin.fp_faults;
      timing = (if pin.fp_adaptive then P.Config.Adaptive else P.Config.Static);
      dumb_optimization = pin.fp_dumb;
    }
  in
  let cluster = Cluster.build spec in
  Workload.install cluster (Workload.make ~rate_per_sec:200.0 ()) ~duration:(sec 3);
  let mute = List.exists (function _, P.Fault.Mute_at _ -> true | _ -> false) pin.fp_faults in
  Cluster.run cluster ~until:(sec (if pin.fp_adaptive && mute then 20 else 6));
  cluster

let test_fault_paths_pinned () =
  List.iteri
    (fun i pin ->
      let cluster = fault_path_run pin in
      let name what = Printf.sprintf "%s fault path %d: %s" (kind_name pin.fp_kind) i what in
      let first_domain =
        List.find_map
          (fun (_, _, e) ->
            match e with
            | P.Context.Fail_signal_emitted { value_domain; _ } -> Some value_domain
            | _ -> None)
          (Cluster.events cluster)
      in
      Alcotest.(check (option bool)) (name "fail-signal domain") (Some pin.fp_value_domain)
        first_domain;
      Alcotest.(check bool) (name "coordinator replaced") true
        (count_events cluster (function
           | P.Context.Coordinator_installed _ | P.Context.View_installed _ -> true
           | _ -> false)
        >= 1);
      Alcotest.(check bool) (name "pair recovered") (pin.fp_kind = Cluster.Scr_protocol)
        (count_events cluster (function P.Context.Pair_recovered _ -> true | _ -> false) >= 1);
      Alcotest.(check string) (name "trajectory") pin.fp_digest (trajectory_digest cluster))
    pinned_fault_paths

(* Log truncation bounds memory: with checkpointing on, the retained order
   log never grows past a small multiple of the interval. *)
let test_truncation_bounds_log () =
  let spec =
    {
      (Cluster.default_spec ~kind:Cluster.Sc_protocol ~f:1) with
      Cluster.batching_interval = ms 20;
      pair_delay_estimate = sec 30;
      heartbeat_interval = sec 3600;
      checkpoint_interval = 4;
    }
  in
  let cluster = Cluster.build spec in
  Workload.install cluster (Workload.make ~rate_per_sec:400.0 ()) ~duration:(sec 6);
  Cluster.run cluster ~until:(sec 8);
  Alcotest.(check bool) "checkpoints stabilised" true
    (count_events cluster (function
       | P.Context.Checkpoint_stable _ -> true
       | _ -> false)
    >= 4);
  Alcotest.(check bool) "log truncated" true
    (count_events cluster (function P.Context.Log_truncated _ -> true | _ -> false) >= 4);
  for who = 0 to Cluster.process_count cluster - 1 do
    let len = Cluster.log_length cluster who in
    if len > 2 * 4 + 16 then
      Alcotest.failf "process %d retains %d log entries (bound %d)" who len (2 * 4 + 16);
    Alcotest.(check bool)
      (Printf.sprintf "process %d has a stable checkpoint" who)
      true
      (Cluster.stable_checkpoint_seq cluster who > 0)
  done

let suite =
  [
    ( "checkpoint",
      [
        Alcotest.test_case "cert codec roundtrip" `Quick test_cert_roundtrip;
        Alcotest.test_case "entry codec roundtrip" `Quick test_entry_roundtrip;
        Alcotest.test_case "image wrap/unwrap roundtrip" `Quick test_image_wrap_roundtrip;
        Alcotest.test_case "malformed image rejected" `Quick
          test_image_unwrap_rejects_malformed;
        Alcotest.test_case "image bytes canonical" `Quick test_image_canonical_bytes;
        Alcotest.test_case "boundary predicate" `Quick test_is_boundary;
        Alcotest.test_case "verify: quorum-signed" `Quick test_verify_quorum_signed;
        Alcotest.test_case "verify: quorum-counted" `Quick test_verify_quorum_counted;
        Alcotest.test_case "verify: pair-endorsed" `Quick test_verify_pair_endorsed;
        Alcotest.test_case "truncation bounds the log" `Slow test_truncation_bounds_log;
        Alcotest.test_case "crash-restart trajectories pinned" `Slow
          test_trajectories_pinned;
        Alcotest.test_case "backlog trajectories pinned" `Slow
          test_backlog_trajectories_pinned;
        Alcotest.test_case "fault-path trajectories pinned" `Quick test_fault_paths_pinned;
      ]
      @ lifecycle_cases );
  ]
