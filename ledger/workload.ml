(* The ledger's four workloads.  Each one is a fixed set of paper
   programs and one runtime configuration; README.md records why each
   exists and which layer it stresses.

   par-1dom times the domains backend on one domain.  On the two-vCPU
   reference host a two-domain pass flips, for minutes at a time,
   between about 0.95 s and 1.45 s while the one-domain pass stays near
   1.05 s: whether the host runs the second vCPU decides it, not the
   code.  The traced run adds [par_domains]-domain passes, which the
   per-layer par.* metrics report. *)

module Config = Mutls_runtime.Config
module W = Mutls_workloads.Workloads

type lang = C | Fortran

type program = { label : string; lang : lang; source : string }

type backend = Sim | Par

type t = {
  name : string;
  programs : program list;
  backend : backend;
  cfg : Config.t;
      (** [telemetry] and [trace_sink] are replaced per run *)
  setups : int;  (** set-up repetitions *)
  arena : int option;
      (** heap and globals bytes of every run; [None]: the engine's
          defaults *)
  par_domains : int;  (** domains of the traced run's extra par passes *)
}

let program ~small (name, lang) =
  let w = W.find name in
  match (small, lang) with
  | true, _ -> { label = name ^ "/small"; lang = C; source = w.W.small () }
  | false, C -> { label = name ^ "/c"; lang; source = w.W.c_source () }
  | false, Fortran ->
    let src = Option.get w.W.fortran_source in
    { label = name ^ "/f"; lang; source = src () }

(* The small variants exist in C only, so a smoke run keeps one copy of
   each program. *)
let programs ~small specs =
  let specs =
    if small then List.filter (fun (_, l) -> l = C) specs else specs
  in
  List.map (program ~small) specs

let light = [ ("3x+1", C); ("3x+1", Fortran); ("nqueen", C); ("fft", C) ]

let heavy =
  [
    ("mandelbrot", C); ("mandelbrot", Fortran); ("md", C); ("md", Fortran);
    ("matmult", C); ("tsp", C); ("bh", C);
  ]

let names = [ "sim-light"; "sim-heavy"; "sim-rollback"; "par-1dom" ]

(* [small] is the smoke run: test-sized sources, 2 set-ups, 1 MB
   arenas (the default 64 MB zero-fill would dominate its time) and no
   second domain.

   sim-rollback keeps the configuration's fixed injection seed rather
   than taking the benchmark's: a rollback's cost depends on where in
   the speculation tree it lands, so pass time varies by about 50 %
   (IQR over median) from one injection seed to the next, which no run
   of reasonable length averages away.  With the seed fixed every pass
   replays the same rollbacks and its counts compare exactly. *)
let make ~small name =
  let sim16 = { Config.default with ncpus = 16 } in
  let specs, backend, cfg =
    match name with
    | "sim-light" -> (light, Sim, sim16)
    | "sim-heavy" -> (heavy, Sim, sim16)
    | "sim-rollback" -> (light, Sim, { sim16 with rollback_probability = 0.05 })
    | "par-1dom" ->
      ( List.map (fun w -> (w.W.name, C)) W.all,
        Par,
        { Config.default with ncpus = 8; domains = 1 } )
    | _ ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (expected one of: %s)" name
           (String.concat ", " names))
  in
  {
    name;
    programs = programs ~small specs;
    backend;
    cfg;
    setups = (if small then 2 else 5);
    arena = (if small then Some (1 lsl 20) else None);
    par_domains = (if small then 1 else 2);
  }
