(* The ledger's only clock: CLOCK_MONOTONIC through bechamel's stub, so
   a measured interval never jumps with NTP or settimeofday the way
   Unix.gettimeofday can. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)
