(* Compare two ledger files under the bounds in BENCHMARK.json:

     dune exec ledger/check.exe -- BASE.json CANDIDATE.json

   Prints better / same / worse / unresolved per (workload, end-to-end
   metric).  Exit 0: no regression; 1: a metric got worse or failed_frac
   rose; 2: the files cannot be compared (malformed, or recorded with a
   different run length, core count or workload set). *)

let () =
  let bench_path = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ ("--benchmark", Arg.Set_string bench_path, " bounds file (default BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    "check [--benchmark FILE] BASE.json CANDIDATE.json";
  match !files with
  | [ base; cand ] -> (
    try
      let bench = Compare.read_benchmark !bench_path in
      let read f =
        try Rows.read f
        with Rows.Malformed e -> raise (Compare.Refused (f ^ ": " ^ e))
      in
      let r = Compare.compare bench (read base) (read cand) in
      List.iter
        (fun (l : Compare.line) ->
          Printf.printf "%-13s %-16s %-10s %.6g -> %.6g %s (bound %.0f%%)\n"
            l.Compare.workload l.Compare.metric.Compare.name
            (Compare.verdict_to_string l.Compare.verdict)
            l.Compare.base.Summary.median l.Compare.cand.Summary.median
            l.Compare.metric.Compare.unit_
            (100.0 *. l.Compare.metric.Compare.bound))
        r.Compare.lines;
      List.iter
        (fun w -> Printf.printf "%-13s failed_frac rose\n" w)
        r.Compare.failed_rises;
      exit (Compare.exit_code r)
    with Compare.Refused msg ->
      Printf.eprintf "check: %s\n" msg;
      exit 2)
  | _ ->
    prerr_endline "check: expected BASE.json CANDIDATE.json";
    exit 2
