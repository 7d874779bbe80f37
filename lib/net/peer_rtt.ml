type t = {
  initial : Sof_sim.Simtime.t;
  ests : Delay_estimator.t option array;
  accepted : int array;  (* highest reply nonce measured per peer *)
  mutable nonce : int;
}

let create ~peers ~initial =
  { initial; ests = Array.make peers None; accepted = Array.make peers 0; nonce = 0 }

let estimator t peer =
  match t.ests.(peer) with
  | Some e -> e
  | None ->
    let e = Delay_estimator.create ~initial:t.initial () in
    t.ests.(peer) <- Some e;
    e

let next_nonce t =
  t.nonce <- t.nonce + 1;
  t.nonce

let note_reply t ~src ~nonce ~rtt =
  if nonce > t.accepted.(src) then begin
    t.accepted.(src) <- nonce;
    Delay_estimator.observe (estimator t src) rtt
  end
