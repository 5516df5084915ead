(* The ledger file: a header of host facts and run settings, then one
   row per (workload, params, metric) in the schema
   {suite, workload, params, metric, unit, samples, median, q1, q3,
   min, max, n}.  The compare tool reads back what [write] produces. *)

module Json = Mutls_obs.Json

type row = {
  workload : string;
  params : (string * string) list;
  metric : string;
  unit_ : string;
  summary : Summary.t;
}

type header = {
  host_cores : int;
  ocaml_version : string;
  commit : string;
  seed : int;
  seconds : float;
  passes : (string * int) list;  (** timed passes, per workload *)
  date : string;
}

type t = { header : header; rows : row list }

let suite = "ledger"

let row ?(params = []) ~workload ~unit_ metric samples =
  { workload; params; metric; unit_; summary = Summary.of_samples samples }

let num x = Json.Num x

let row_to_json r =
  let s = r.summary in
  Json.Obj
    [
      ("suite", Json.Str suite);
      ("workload", Json.Str r.workload);
      ("params", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.params));
      ("metric", Json.Str r.metric);
      ("unit", Json.Str r.unit_);
      ("samples", Json.List (List.map num s.Summary.samples));
      ("median", num s.Summary.median);
      ("q1", num s.Summary.q1);
      ("q3", num s.Summary.q3);
      ("min", num s.Summary.min);
      ("max", num s.Summary.max);
      ("n", num (float_of_int s.Summary.n));
    ]

let header_to_json h =
  Json.Obj
    [
      ("suite", Json.Str suite);
      ("host_cores", num (float_of_int h.host_cores));
      ("ocaml_version", Json.Str h.ocaml_version);
      ("commit", Json.Str h.commit);
      ("seed", num (float_of_int h.seed));
      ("seconds", num h.seconds);
      ( "passes",
        Json.Obj (List.map (fun (w, n) -> (w, num (float_of_int n))) h.passes) );
      ("date", Json.Str h.date);
    ]

let to_json t =
  Json.Obj
    [
      ("header", header_to_json t.header);
      ("rows", Json.List (List.map row_to_json t.rows));
    ]

let write path t =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

(* --- reading back ---------------------------------------------------- *)

exception Malformed of string

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> raise (Malformed (Printf.sprintf "missing or ill-typed field %S" name))

let list_of = function Json.List l -> Some l | _ -> None
let obj_of = function Json.Obj l -> Some l | _ -> None

let row_of_json j =
  let samples = List.filter_map Json.to_float (field "samples" list_of j) in
  if samples = [] then raise (Malformed "row without samples");
  {
    workload = field "workload" Json.to_str j;
    params =
      List.map
        (fun (k, v) ->
          match Json.to_str v with
          | Some s -> (k, s)
          | None -> raise (Malformed "params values must be strings"))
        (field "params" obj_of j);
    metric = field "metric" Json.to_str j;
    unit_ = field "unit" Json.to_str j;
    summary = Summary.of_samples samples;
  }

let header_of_json j =
  {
    host_cores = field "host_cores" Json.to_int j;
    ocaml_version = field "ocaml_version" Json.to_str j;
    commit = field "commit" Json.to_str j;
    seed = field "seed" Json.to_int j;
    seconds = field "seconds" Json.to_float j;
    passes =
      List.map
        (fun (w, n) ->
          match Json.to_int n with
          | Some n -> (w, n)
          | None -> raise (Malformed "passes values must be integers"))
        (field "passes" obj_of j);
    date = field "date" Json.to_str j;
  }

let read path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> raise (Malformed e)
  in
  let j =
    try Json.of_string text
    with Json.Parse_error e -> raise (Malformed ("bad JSON: " ^ e))
  in
  {
    header = header_of_json (field "header" Option.some j);
    rows = List.map row_of_json (field "rows" list_of j);
  }

(* The e2e row of [metric] for [workload] (rows without params). *)
let find t ~workload metric =
  List.find_opt
    (fun r -> r.workload = workload && r.metric = metric && r.params = [])
    t.rows
