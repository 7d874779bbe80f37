(* A reported figure, and the host clock the benchmark times with. *)

module Statistics = Sof_util.Statistics
module Json = Sof_util.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

type t = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** How many observations the value summarises. *)
  note : string;
}

let make ?(samples = 1) ?(note = "") name unit_ value = { name; value; unit_; samples; note }

let to_json m =
  Json.Obj
    ([ ("name", Json.Str m.name); ("value", Json.Num m.value); ("unit", Json.Str m.unit_);
       ("samples", Json.num_of_int m.samples) ]
    @ if String.equal m.note "" then [] else [ ("note", Json.Str m.note) ])

let stats_of xs =
  let s = Statistics.create () in
  List.iter (Statistics.add s) xs;
  s

let median xs = match xs with [] -> 0.0 | _ -> Statistics.median (stats_of xs)
let mean xs = match xs with [] -> 0.0 | _ -> Statistics.mean (stats_of xs)
