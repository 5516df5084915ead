(* Judges a candidate ledger file against a base one, metric by metric,
   with the regression bounds BENCHMARK.json fixes.  This is the first
   suite of a single bench gate; its rule is:

     unresolved  the IQRs overlap and either side's IQR, as a share of
                 its median, exceeds the bound: the runs cannot tell
     worse       the median moved the wrong way by more than the bound
     better      the median moved the right way by more than the bound
     same        otherwise

   A rise in failed_frac fails the comparison whatever the timings. *)

module Json = Mutls_obs.Json

type direction = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : direction;
  bound : float;  (** 0 for per-layer metrics, which have none *)
}

type benchmark = { e2e : metric list; per_layer : metric list }

exception Refused of string

let metric_of_json ~bounded j =
  {
    name = Rows.field "name" Json.to_str j;
    unit_ = Rows.field "unit" Json.to_str j;
    better =
      (match Rows.field "better" Json.to_str j with
      | "lower" -> Lower
      | "higher" -> Higher
      | b -> raise (Rows.Malformed (Printf.sprintf "better = %S" b)));
    bound = (if bounded then Rows.field "bound" Json.to_float j else 0.0);
  }

let read_benchmark path =
  try
    let j =
      try Json.of_string (In_channel.with_open_bin path In_channel.input_all)
      with Json.Parse_error e -> raise (Rows.Malformed ("bad JSON: " ^ e))
    in
    let metrics key ~bounded =
      List.map (metric_of_json ~bounded) (Rows.field key Rows.list_of j)
    in
    {
      e2e = metrics "end_to_end" ~bounded:true;
      per_layer = metrics "per_layer" ~bounded:false;
    }
  with
  | Sys_error e -> raise (Refused e)
  | Rows.Malformed e -> raise (Refused (path ^ ": " ^ e))

type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let spread (s : Summary.t) =
  if s.Summary.median = 0.0 then 0.0
  else (s.Summary.q3 -. s.Summary.q1) /. Float.abs s.Summary.median

let judge m (base : Summary.t) (cand : Summary.t) =
  let overlap = base.Summary.q1 <= cand.Summary.q3 && cand.Summary.q1 <= base.Summary.q3 in
  let change =
    if base.Summary.median = 0.0 then
      if cand.Summary.median = 0.0 then 0.0 else infinity
    else (cand.Summary.median -. base.Summary.median) /. Float.abs base.Summary.median
  in
  let worse_by = match m.better with Lower -> change | Higher -> -.change in
  if overlap && Float.max (spread base) (spread cand) > m.bound then Unresolved
  else if worse_by > m.bound then Worse
  else if worse_by < -.m.bound then Better
  else Same

type line = {
  workload : string;
  metric : metric;
  verdict : verdict;
  base : Summary.t;
  cand : Summary.t;
}

type result = { lines : line list; failed_rises : string list }

let check_comparable (a : Rows.t) (b : Rows.t) =
  let ha = a.Rows.header and hb = b.Rows.header in
  let differ what x y =
    raise (Refused (Printf.sprintf "the files differ in %s (%s vs %s)" what x y))
  in
  (* no seed check: the seed is recorded, but no workload's input
     depends on it *)
  if ha.Rows.seconds <> hb.Rows.seconds then
    differ "seconds per run" (string_of_float ha.Rows.seconds)
      (string_of_float hb.Rows.seconds);
  if ha.Rows.host_cores <> hb.Rows.host_cores then
    differ "host_cores" (string_of_int ha.Rows.host_cores)
      (string_of_int hb.Rows.host_cores);
  let workloads h = List.sort compare (List.map fst h.Rows.passes) in
  if workloads ha <> workloads hb then
    differ "workloads"
      (String.concat "," (workloads ha))
      (String.concat "," (workloads hb))

let compare bench (base : Rows.t) (cand : Rows.t) =
  check_comparable base cand;
  let workloads = List.map fst base.Rows.header.Rows.passes in
  let get file workload metric =
    match Rows.find file ~workload metric with
    | Some r -> r.Rows.summary
    | None ->
      raise (Refused (Printf.sprintf "no %s row for workload %s" metric workload))
  in
  let lines =
    List.concat_map
      (fun workload ->
        List.map
          (fun m ->
            let base = get base workload m.name and cand = get cand workload m.name in
            { workload; metric = m; verdict = judge m base cand; base; cand })
          bench.e2e)
      workloads
  in
  let failed_rises =
    List.filter
      (fun workload ->
        (get cand workload "failed_frac").Summary.median
        > (get base workload "failed_frac").Summary.median)
      workloads
  in
  { lines; failed_rises }

let exit_code r =
  if r.failed_rises <> [] || List.exists (fun l -> l.verdict = Worse) r.lines
  then 1
  else 0
