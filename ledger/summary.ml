(* Order statistics of a sample.  Quartiles use the "exclusive" method
   of Python's statistics.quantiles(n=4), so a spread computed here
   matches one computed from the printed samples by that function. *)

type t = {
  samples : float list;
  median : float;
  q1 : float;
  q3 : float;
  min : float;
  max : float;
  n : int;
}

let median_sorted a =
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartile a i =
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0

let of_samples samples =
  if samples = [] then invalid_arg "Summary.of_samples: no samples";
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  {
    samples;
    median = median_sorted a;
    q1 = quartile a 1;
    q3 = quartile a 3;
    min = a.(0);
    max = a.(n - 1);
    n;
  }

let median xs = (of_samples xs).median

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))
