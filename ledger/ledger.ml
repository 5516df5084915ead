(* The layer ledger: host time of the MUTLS pipeline, end to end and
   layer by layer (README.md has the metric glossary).

     dune exec ledger/ledger.exe -- --workload sim-light --seed 7 \
       --seconds 15 --trace 0       one workload; last line is a JSON result
     dune exec ledger/ledger.exe    all four workloads, each in a child
                                    process; writes ledger/results/ledger.json
     dune exec ledger/ledger.exe -- --smoke
                                    small sources, two passes, self-checks

   Run it from the repository root.  Each layer is timed from outside,
   around calls into its public entry points, so nothing under lib/
   knows it is being measured.

   Load model: a closed loop with one client.  A pass runs every
   program of the workload once: the sequential oracle, then the TLS
   run, each starting when the previous one returns and each followed
   by a full major GC inside its timed segment, so a run pays for
   collecting its own garbage.  Timing the oracle right next to the TLS
   run means the slow phases a shared host goes through hit both, so
   their ratio hardly moves.  After one warm-up pass, passes repeat until --seconds have
   elapsed.  Every TLS run is checked against the oracle's output; a run
   that raises or diverges is counted as failed and the ledger goes
   on. *)

module Config = Mutls_runtime.Config
module Eval = Mutls_interp.Eval
module Ir = Mutls_mir.Ir
module Telemetry = Mutls_obs.Telemetry
module Trace = Mutls_obs.Trace
module Json = Mutls_obs.Json
module Metrics = Mutls.Metrics

let results_dir = Filename.concat "ledger" "results"

(* The metrics the result line reports, with their units, are the ones
   BENCHMARK.json lists: end-to-end with --trace 0, per-layer with
   --trace 1. *)
let benchmark_json = "BENCHMARK.json"

(* [f] inside a span when the traced pass passes its recorder. *)
let in_span ?spans name f =
  match spans with Some t -> Spans.span t name f | None -> f ()

(* --- set-up: front-end, pass, prepare, oracle -------------------------- *)

type prepared = {
  label : string;
  seq_prog : Eval.prog;  (** the front-end's module, compiled *)
  prog : Eval.prog;  (** the speculator's output, compiled *)
  seq_output : string;
  ts : float;  (** the oracle's virtual time, cycles *)
  arena : int option;  (** heap and globals bytes of every run *)
}

(* Host seconds of one preparation of one program, per compile stage;
   the oracle run is timed again next to each TLS run. *)
type stage_times = { fe : float; pass : float; prep : float }

let compile (p : Workload.program) =
  match p.Workload.lang with
  | Workload.C -> Mutls_minic.Codegen.compile p.Workload.source
  | Workload.Fortran -> Mutls_minifortran.Fcodegen.compile p.Workload.source

let mir_instrs (m : Ir.modul) =
  List.fold_left
    (fun a f ->
      List.fold_left
        (fun a b -> a + List.length b.Ir.phis + List.length b.Ir.insts + 1)
        a f.Ir.blocks)
    0 m.Ir.funcs

let oracle arena prog =
  Eval.run_sequential_prepared ?heap_size:arena ?globals_size:arena prog

(* The work Experiments.prepare does, stage by stage. *)
let prepare ?spans ~arena (p : Workload.program) =
  let stage name f = Clock.time (fun () -> in_span ?spans name f) in
  let m, fe = stage "frontend" (fun () -> compile p) in
  let t, pass = stage "pass" (fun () -> Mutls_speculator.Pass.run m) in
  let (seq_prog, prog), prep =
    stage "prepare" (fun () -> (Eval.prepare m, Eval.prepare t))
  in
  let s, _ =
    stage "engine.seq" (fun () -> oracle arena seq_prog)
  in
  ( { label = p.Workload.label; seq_prog; prog; seq_output = s.Eval.soutput;
      ts = s.Eval.scost; arena },
    { fe; pass; prep },
    (mir_instrs m, mir_instrs t) )

(* --- timed segments ---------------------------------------------------- *)

(* What a segment cost: wall time, GC work and process CPU time. *)
type cost = {
  secs : float;
  minor_words : float;
  promoted_words : float;
  major_collections : float;
  user_s : float;
  sys_s : float;
}

let zero =
  { secs = 0.0; minor_words = 0.0; promoted_words = 0.0;
    major_collections = 0.0; user_s = 0.0; sys_s = 0.0 }

let add a b =
  {
    secs = a.secs +. b.secs;
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_collections = a.major_collections +. b.major_collections;
    user_s = a.user_s +. b.user_s;
    sys_s = a.sys_s +. b.sys_s;
  }

(* [f] then the full major GC that collects its garbage, both timed.
   [f] must not return anything large: the GC can free only what is
   dead by then. *)
let segment ?spans name f =
  let g0 = Gc.quick_stat () and u0 = Unix.times () in
  let t0 = Clock.now () in
  let r = in_span ?spans name f in
  in_span ?spans "gc" Gc.full_major;
  let secs = Clock.now () -. t0 in
  let g1 = Gc.quick_stat () and u1 = Unix.times () in
  ( r,
    {
      secs;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections =
        float_of_int (g1.Gc.major_collections - g0.Gc.major_collections);
      user_s = u1.Unix.tms_utime -. u0.Unix.tms_utime;
      sys_s = u1.Unix.tms_stime -. u0.Unix.tms_stime;
    } )

(* A TLS run keeps its figures, never its [Eval.tls_result]: that holds
   the run's manager and tens of MB of arenas. *)
type run = {
  cost : cost;
  ok : bool;
  metrics : Metrics.t option;  (** on the simulator, when [ok] *)
  reg : Telemetry.t;
}

let execute backend cfg p =
  let run =
    match backend with
    | Workload.Sim -> Eval.run_tls_prepared
    | Workload.Par -> Eval.run_tls_par_prepared
  in
  run ?heap_size:p.arena ?globals_size:p.arena cfg p.prog

(* One TLS run checked against the oracle; a raised exception is a
   failed run, not a crashed benchmark. *)
let tls_run ?spans ?(trace_sink = Trace.null) ?(name = "runtime.tls") backend
    cfg p =
  let reg = Telemetry.create () in
  let cfg = { cfg with Config.telemetry = reg; trace_sink } in
  let (ok, metrics), cost =
    segment ?spans name (fun () ->
        match execute backend cfg p with
        | r when r.Eval.toutput = p.seq_output ->
          ( true,
            match backend with
            | Workload.Sim -> Some (Metrics.compute ~ts:p.ts r)
            | Workload.Par -> None )
        | _ ->
          Printf.eprintf "ledger: %s output differs from the oracle\n%!" p.label;
          (false, None)
        | exception ((Out_of_memory | Sys.Break) as e) -> raise e
        | exception e ->
          Printf.eprintf "ledger: %s raised %s\n%!" p.label
            (Printexc.to_string e);
          (false, None))
  in
  { cost; ok; metrics; reg }

type pass = {
  seq : float list;  (** oracle seconds, per program *)
  runs : run list;  (** TLS runs, per program *)
}

let pass_cost p = List.fold_left (fun a r -> add a r.cost) zero p.runs
let pass_secs p = (pass_cost p).secs

let timed_pass backend cfg prepared =
  let pairs =
    List.map
      (fun p ->
        let (), seq =
          segment "engine.seq" (fun () ->
              ignore (oracle p.arena p.seq_prog))
        in
        (seq.secs, tls_run backend cfg p))
      prepared
  in
  { seq = List.map fst pairs; runs = List.map snd pairs }

(* At least two timed passes, so every row has a spread.  [between]
   runs untimed after each pass, with the seconds elapsed so far. *)
let timed_passes ?(between = ignore) ~seconds backend cfg prepared =
  let t0 = Clock.now () in
  let rec go acc n =
    if n >= 2 && Clock.now () -. t0 >= seconds then List.rev acc
    else begin
      let p = timed_pass backend cfg prepared in
      between (Clock.now () -. t0);
      go (p :: acc) (n + 1)
    end
  in
  go [] 0

(* --- telemetry --------------------------------------------------------- *)

(* Sum of a metric over all its label sets: counter values, histogram
   sums, gauge values. *)
let tele reg name =
  List.fold_left
    (fun a m ->
      if m.Telemetry.m_name <> name then a
      else
        a
        +.
        match m.Telemetry.m_value with
        | Telemetry.Counter n -> float_of_int n
        | Telemetry.Gauge g -> g
        | Telemetry.Histogram h -> h.sum)
    0.0 (Telemetry.snapshot reg)

let runtime_counts =
  [
    ("runtime.loads", "mutls_loads_total");
    ("runtime.stores", "mutls_stores_total");
    ("runtime.validate_words", "mutls_validate_words");
    ("runtime.commit_words", "mutls_commit_words");
    ("runtime.spills", "mutls_gbuf_spills_total");
    ("runtime.parks", "mutls_gbuf_parks_total");
    ("runtime.frames", "mutls_frames_total");
    ("runtime.forks", "mutls_forks_total");
    ("runtime.fork_denied", "mutls_fork_denied_total");
    ("runtime.commits", "mutls_commits_total");
    ("runtime.rollbacks", "mutls_rollbacks_total");
  ]

let par_counts =
  [ ("par.steals", "mutls_domain_steals_total");
    ("par.tasks", "mutls_domain_tasks_total") ]

let pass_count pass name =
  List.fold_left (fun a r -> a +. tele r.reg name) 0.0 pass.runs

(* --- virtual time ------------------------------------------------------ *)

(* The geomean of Ts/TN (Figs. 3/4), and the Fig. 9 categories over all
   programs weighted by speculative runtime. *)
let virtual_metrics runs =
  let ms = List.filter_map (fun r -> r.metrics) runs in
  let spec m = m.Metrics.coverage *. m.Metrics.tn in
  let total = List.fold_left (fun a m -> a +. spec m) 0.0 ms in
  let frac cat =
    if total <= 0.0 then 0.0
    else
      List.fold_left
        (fun a m -> a +. (List.assoc cat m.Metrics.spec_breakdown *. spec m))
        0.0 ms
      /. total
  in
  ( Summary.geomean (List.map (fun m -> m.Metrics.speedup) ms),
    [
      ("vt.work_frac", frac "work");
      ("vt.wasted_frac", frac "wasted work");
      ("vt.validation_frac", frac "validation");
      ("vt.commit_frac", frac "commit");
      ("vt.idle_frac", frac "idle");
    ] )

(* --- host facts --------------------------------------------------------- *)

let read_file f =
  try Some (String.trim (In_channel.with_open_bin f In_channel.input_all))
  with Sys_error _ -> None

(* The checked-out commit, read from .git without running git. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head when not (String.starts_with ~prefix:"ref: " head) -> head
  | Some head -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read_file (Filename.concat ".git" r) with
    | Some h -> h
    | None -> (
      let packed =
        Option.value ~default:"" (read_file ".git/packed-refs")
        |> String.split_on_char '\n'
      in
      match
        List.find_opt (fun l -> String.ends_with ~suffix:(" " ^ r) l) packed
      with
      | Some l -> List.hd (String.split_on_char ' ' l)
      | None -> "unknown"))

let date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let header ~seed ~seconds ~passes =
  {
    Rows.host_cores = Domain.recommended_domain_count ();
    ocaml_version = Sys.ocaml_version;
    commit = commit ();
    seed;
    seconds;
    passes;
    date = date ();
  }

(* Peak resident set of this process, from the kernel's high-water
   mark. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> failwith "peak_rss_mb: /proc/self/status is unreadable"
  | Some s ->
    let line =
      List.find
        (String.starts_with ~prefix:"VmHWM:")
        (String.split_on_char '\n' s)
    in
    Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* --- one workload ------------------------------------------------------ *)

type outcome = {
  rows : Rows.row list;
  passes : int;
  attempted : int;
  failed : int;
}

let sum_by f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let run_workload ~small ~seconds ~trace ~micro ~pid name =
  let w = Workload.make ~small name in
  let backend = w.Workload.backend and cfg = w.Workload.cfg in
  let rows = ref [] in
  let add ?params unit_ metric samples =
    rows := Rows.row ?params ~workload:name ~unit_ metric samples :: !rows
  in
  let attempted = ref 0 and failed = ref 0 in
  let tally runs =
    List.iter
      (fun r ->
        incr attempted;
        if not r.ok then incr failed)
      runs
  in
  let arena = w.Workload.arena and setups = w.Workload.setups in
  let setup () =
    Clock.time (fun () -> List.map (prepare ~arena) w.Workload.programs)
  in
  (* Each set-up's stage times and total; only the first set-up's
     programs are kept, and timed. *)
  let first, first_s = setup () in
  let times r = List.map (fun (_, s, _) -> s) r in
  let reps = ref [ (times first, first_s) ] in
  let prepared = List.map (fun (p, _, _) -> p) first in
  (* warm-up, then the timed passes.  The memory peak is read after the
     warm-up: what preparing the workload and running each program once
     costs.  Later passes only repeat that work, and each one is another
     chance for a rare schedule of the domains backend to add a
     transient spike. *)
  tally (timed_pass backend cfg prepared).runs;
  add "MB" "peak_rss_mb" [ peak_rss_mb () ];
  (* The other set-ups run between timed passes, the k-th once k/setups
     of --seconds have passed, so that setup_s's median covers the same
     stretch of host time as run_s's: the host's slow phases last longer
     than [setups] back-to-back set-ups.  An untimed full GC after each
     keeps its garbage out of the next pass. *)
  let one_more () =
    let r, secs = setup () in
    reps := (times r, secs) :: !reps;
    Gc.full_major ()
  in
  let due elapsed =
    let k = List.length !reps in
    k < setups && elapsed >= seconds *. float_of_int k /. float_of_int setups
  in
  let passes =
    timed_passes ~seconds
      ~between:(fun elapsed -> if due elapsed then one_more ())
      backend cfg prepared
  in
  while List.length !reps < setups do
    one_more ()
  done;
  let reps = List.rev !reps in
  add "s" "setup_s" (List.map snd reps);
  let stage f =
    List.map (fun (r, _) -> sum_by f r) reps
  in
  add "s" "frontend.s" (stage (fun s -> s.fe));
  add "s" "pass.s" (stage (fun s -> s.pass));
  add "s" "prepare.s" (stage (fun s -> s.prep));
  add "count" "frontend.mir_instrs"
    [ float_of_int (List.fold_left (fun a (_, _, (f, _)) -> a + f) 0 first) ];
  add "count" "pass.mir_instrs"
    [ float_of_int (List.fold_left (fun a (_, _, (_, t)) -> a + t) 0 first) ];
  List.iter (fun p -> tally p.runs) passes;
  let per_pass unit_ metric f = add unit_ metric (List.map f passes) in
  per_pass "s" "run_s" pass_secs;
  per_pass "s" "engine.seq_s" (fun p -> sum_by Fun.id p.seq);
  let ts_total = sum_by (fun p -> p.ts) prepared in
  per_pass "ns" "engine.ns_per_vcycle" (fun p -> sum_by Fun.id p.seq *. 1e9 /. ts_total);
  (* per program: the oracle and TLS seconds of the same pass, paired *)
  let pairs i =
    List.filter_map
      (fun pass ->
        let r = List.nth pass.runs i in
        if r.ok then Some (List.nth pass.seq i, r.cost.secs) else None)
      passes
  in
  let ratios =
    List.concat
      (List.mapi
         (fun i p ->
           let params = [ ("program", p.label) ] in
           match pairs i with
           | [] -> []
           | ps ->
             add ~params "s" "engine.seq_s" (List.map fst ps);
             add ~params "s" "tls_s" (List.map snd ps);
             [ Summary.median (List.map (fun (s, t) -> s /. t) ps) ])
         prepared)
  in
  add "x" "host_speedup" [ Summary.geomean ratios ];
  let overhead pass =
    List.fold_left2
      (fun a r s -> if r.ok then a +. (r.cost.secs -. s) else a)
      0.0 pass.runs pass.seq
  in
  per_pass "s" "runtime.overhead_s" overhead;
  List.iter
    (fun (metric, tname) -> per_pass "count" metric (fun p -> pass_count p tname))
    runtime_counts;
  per_pass "ns" "runtime.ns_per_access" (fun p ->
      overhead p *. 1e9
      /. Float.max 1.0
           (pass_count p "mutls_loads_total" +. pass_count p "mutls_stores_total"));
  per_pass "ratio" "runtime.commit_ratio" (fun p ->
      let c = pass_count p "mutls_commits_total"
      and r = pass_count p "mutls_rollbacks_total" in
      if c +. r = 0.0 then 0.0 else c /. (c +. r));
  List.iteri
    (fun i p ->
      let r = List.nth (List.hd passes).runs i in
      List.iter
        (fun (metric, tname) ->
          add ~params:[ ("program", p.label) ] "count" metric [ tele r.reg tname ])
        [ ("runtime.loads", "mutls_loads_total");
          ("runtime.stores", "mutls_stores_total") ])
    prepared;
  per_pass "words" "gc.minor_words" (fun p -> (pass_cost p).minor_words);
  per_pass "words" "gc.promoted_words" (fun p -> (pass_cost p).promoted_words);
  per_pass "count" "gc.major_collections" (fun p ->
      (pass_cost p).major_collections);
  per_pass "s" "os.user_s" (fun p -> (pass_cost p).user_s);
  per_pass "s" "os.sys_s" (fun p -> (pass_cost p).sys_s);
  (* virtual time: from the passes on the simulator; the domains
     backend has none, so par-1dom reports one simulator run of its
     programs at the same configuration *)
  let vt =
    match backend with
    | Workload.Sim -> List.map (fun p -> virtual_metrics p.runs) passes
    | Workload.Par ->
      let runs = List.map (tls_run Workload.Sim cfg) prepared in
      tally runs;
      [ virtual_metrics runs ]
  in
  add "x" "virtual_speedup" (List.map fst vt);
  List.iter
    (fun (metric, _) ->
      add "ratio" metric (List.map (fun (_, fr) -> List.assoc metric fr) vt))
    (snd (List.hd vt));
  let multi = { cfg with Config.domains = w.Workload.par_domains } in
  if trace then begin
    (* the same passes on several domains: scheduler counts, and how
       much the extra domains help *)
    if backend = Workload.Par then begin
      let run_median = Summary.median (List.map pass_secs passes) in
      let dom2 = timed_passes ~seconds:0.0 backend multi prepared in
      List.iter (fun p -> tally p.runs) dom2;
      let per_dom2 unit_ metric f = add unit_ metric (List.map f dom2) in
      per_dom2 "s" "par.dom2_s" pass_secs;
      per_dom2 "x" "par.scaling" (fun p -> run_median /. pass_secs p);
      List.iter
        (fun (metric, tname) ->
          per_dom2 "count" metric (fun p -> pass_count p tname))
        par_counts;
      per_dom2 "ratio" "par.busy_frac" (fun p ->
          pass_count p "mutls_domain_busy_fraction"
          /. float_of_int (List.length p.runs * w.Workload.par_domains))
    end;
    (* the traced pass: a span around every layer call, and the
       benchmark's own sink on the runtime's event stream *)
    let spans = Spans.create () in
    let sink = Spans.sink spans in
    let traced = ref [] in
    Spans.span spans "workload" (fun () ->
        List.iter
          (fun (p : Workload.program) ->
            Spans.span spans p.Workload.label (fun () ->
                let pr, _, _ = prepare ~spans ~arena p in
                let main =
                  match backend with
                  | Workload.Sim -> "runtime.tls"
                  | Workload.Par -> "par.run"
                in
                traced :=
                  tls_run ~spans ~trace_sink:sink ~name:main backend cfg pr
                  :: !traced;
                if backend = Workload.Par then
                  tally [ tls_run ~spans ~name:"par.run_2dom" backend multi pr ]))
          w.Workload.programs);
    tally !traced;
    let stages, unattributed = Spans.attribution spans in
    let wall = Spans.duration (Spans.root spans) in
    List.iter
      (fun (stage, self) -> add "s" ("trace." ^ stage ^ ".self_s") [ self ])
      stages;
    add "s" "trace.unattributed_s" [ unattributed ];
    add "ratio" "ledger.unattributed_frac" [ unattributed /. wall ];
    add "count" "obs.trace_events" [ float_of_int (Spans.event_count spans) ];
    add "x" "obs.trace_overhead"
      [
        sum_by (fun r -> r.cost.secs) !traced
        /. Summary.median (List.map pass_secs passes);
      ];
    mkdir_p results_dir;
    Spans.write_chrome
      (Filename.concat results_dir ("trace-" ^ name ^ ".json"))
      ~pid ~process:name spans;
    if micro then
      List.iter (fun (metric, unit_, xs) -> add unit_ metric xs) (Micro.all ())
  end;
  add "ratio" "failed_frac"
    [ float_of_int !failed /. float_of_int (max 1 !attempted) ];
  {
    rows = List.rev !rows;
    passes = List.length passes;
    attempted = !attempted;
    failed = !failed;
  }

(* --- output ----------------------------------------------------------- *)

(* A metric's median; 0 when its layer does not run on the workload
   (par.* on the simulator). *)
let value rows metric =
  match
    List.find_opt (fun r -> r.Rows.metric = metric && r.Rows.params = []) rows
  with
  | Some r -> r.Rows.summary.Summary.median
  | None -> 0.0

let print_rows name (metrics : Compare.metric list) rows =
  List.iter
    (fun (m : Compare.metric) ->
      Printf.printf "%s %s %.6g %s\n" name m.Compare.name
        (value rows m.Compare.name) m.Compare.unit_)
    metrics

(* The result line: the metrics' medians, and the run counts.  Failures
   are reported here, not as a metric: failed_frac is in the ledger
   file, but BENCHMARK.json lists no metric that reads 0 when healthy. *)
let result_line ~correct o (metrics : Compare.metric list) =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int o.attempted));
         ("failed", Json.Num (float_of_int o.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (m : Compare.metric) ->
                  ( m.Compare.name,
                    Json.Obj
                      [
                        ("value", Json.Num (value o.rows m.Compare.name));
                        ("unit", Json.Str m.Compare.unit_);
                      ] ))
                metrics) );
       ])

let rows_path name = Filename.concat results_dir (name ^ ".json")
let trace_path name = Filename.concat results_dir ("trace-" ^ name ^ ".json")

(* One workload in this process: what BENCHMARK.json's command runs. *)
let single ~seed ~seconds ~trace name =
  let bench = Compare.read_benchmark benchmark_json in
  let pid =
    fst
      (List.find
         (fun (_, n) -> n = name)
         (List.mapi (fun i n -> (i, n)) Workload.names))
  in
  let o = run_workload ~small:false ~seconds ~trace ~micro:true ~pid name in
  mkdir_p results_dir;
  Rows.write (rows_path name)
    {
      Rows.header = header ~seed ~seconds ~passes:[ (name, o.passes) ];
      rows = o.rows;
    };
  let metrics = if trace then bench.Compare.per_layer else bench.Compare.e2e in
  print_rows name metrics o.rows;
  let finite =
    List.for_all
      (fun (m : Compare.metric) -> Float.is_finite (value o.rows m.Compare.name))
      metrics
  in
  print_endline (result_line ~correct:(o.failed = 0 && finite) o metrics)

(* Every workload, each in its own child process so that one's heap and
   peak RSS do not leak into the next; the children's files are merged
   into ledger.json (and trace.json). *)
let all ~seed ~seconds ~trace =
  let run name =
    let args =
      [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
         "--seconds"; Printf.sprintf "%g" seconds; "--trace";
         (if trace then "1" else "0") |]
    in
    let pid =
      Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
        Unix.stderr
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> ()
    | _ ->
      Printf.eprintf "ledger: workload %s failed\n" name;
      exit 1
  in
  List.iter run Workload.names;
  let files = List.map (fun n -> Rows.read (rows_path n)) Workload.names in
  let out = Filename.concat results_dir "ledger.json" in
  Rows.write out
    {
      Rows.header =
        {
          (List.hd files).Rows.header with
          Rows.passes = List.concat_map (fun f -> f.Rows.header.Rows.passes) files;
        };
      rows = List.concat_map (fun f -> f.Rows.rows) files;
    };
  if trace then begin
    let events =
      List.concat_map
        (fun n ->
          match
            Json.of_string
              (In_channel.with_open_bin (trace_path n) In_channel.input_all)
          with
          | Json.List l -> l
          | _ -> failwith (trace_path n ^ ": not a trace_event list"))
        Workload.names
    in
    Out_channel.with_open_bin (Filename.concat results_dir "trace.json")
      (fun oc -> output_string oc (Json.to_string (Json.List events)))
  end;
  Printf.printf "[wrote %s]\n" out

(* --- smoke ------------------------------------------------------------- *)

(* Test-sized sources, two passes, no microbenchmarks (dune runtest
   runs it): checks that the ledger emits every metric BENCHMARK.json
   names with its unit, that no run fails, that simulator counts repeat
   exactly, and that the compare tool accepts a file against itself. *)
let smoke () =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let bench = Compare.read_benchmark benchmark_json in
  let outcomes =
    List.mapi
      (fun pid name ->
        let o =
          run_workload ~small:true ~seconds:0.0 ~trace:true ~micro:false ~pid
            name
        in
        let backend = (Workload.make ~small:true name).Workload.backend in
        List.iter
          (fun (m : Compare.metric) ->
            let has p = String.starts_with ~prefix:p m.Compare.name in
            let emitted =
              (not (has "gbuf." || has "deque."))
              && (backend = Workload.Par || not (has "par."))
            in
            match List.find_opt (fun r -> r.Rows.metric = m.Compare.name) o.rows with
            | None -> if emitted then fail "%s: no %s row" name m.Compare.name
            | Some r when r.Rows.unit_ <> m.Compare.unit_ ->
              fail "%s: %s is in %s, BENCHMARK.json says %s" name m.Compare.name
                r.Rows.unit_ m.Compare.unit_
            | Some _ -> ())
          (bench.Compare.e2e @ bench.Compare.per_layer);
        if o.failed > 0 then fail "%s: %d failed run(s)" name o.failed;
        (* simulator counts are deterministic; host times are not *)
        List.iter
          (fun r ->
            let s = r.Rows.summary in
            let exact =
              backend = Workload.Sim
              && (r.Rows.metric = "virtual_speedup"
                 || r.Rows.unit_ = "count"
                    && String.starts_with ~prefix:"runtime." r.Rows.metric)
            in
            if exact && s.Summary.min <> s.Summary.max then
              fail "%s: %s differs between passes" name r.Rows.metric)
          o.rows;
        (name, o))
      Workload.names
  in
  mkdir_p results_dir;
  let path = Filename.concat results_dir "smoke.json" in
  Rows.write path
    {
      Rows.header =
        header ~seed:0 ~seconds:0.0
          ~passes:(List.map (fun (n, o) -> (n, o.passes)) outcomes);
      rows = List.concat_map (fun (_, o) -> o.rows) outcomes;
    };
  let file = Rows.read path in
  if Compare.exit_code (Compare.compare bench file file) <> 0 then
    fail "the compare tool rejects %s against itself" path;
  match !problems with
  | [] -> print_endline "ledger smoke: ok"
  | ps ->
    List.iter (fun p -> Printf.eprintf "ledger smoke: %s\n" p) (List.rev ps);
    exit 1

(* --- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 15.0 in
  let trace = ref 0 and smoke_mode = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload,
       " one of " ^ String.concat ", " Workload.names ^ " (default: all)");
      ("--seed", Arg.Set_int seed,
       " recorded in the ledger file (default 7); the inputs are fixed");
      ("--seconds", Arg.Set_float seconds,
       " timed passes run this long (default 15)");
      ("--trace", Arg.Set_int trace,
       " 1 adds the traced pass and microbenchmarks and prints per-layer metrics");
      ("--smoke", Arg.Set smoke_mode, " test-sized self-check");
    ]
  in
  Arg.parse (Arg.align spec)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "ledger: --trace takes 0 or 1";
    exit 2
  end;
  if !workload <> "" && not (List.mem !workload Workload.names) then begin
    Printf.eprintf "ledger: unknown workload %S (expected one of: %s)\n"
      !workload (String.concat ", " Workload.names);
    exit 2
  end;
  let trace = !trace = 1 in
  try
    if !smoke_mode then smoke ()
    else if !workload = "" then all ~seed:!seed ~seconds:!seconds ~trace
    else single ~seed:!seed ~seconds:!seconds ~trace !workload
  with Compare.Refused msg | Rows.Malformed msg ->
    Printf.eprintf "ledger: %s\n" msg;
    exit 2
