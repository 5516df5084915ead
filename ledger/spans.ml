(* The traced pass's instruments, all owned by the benchmark: spans
   around each call into a layer, and a trace sink that stamps the
   runtime's speculation events with the monotonic clock.  Both stay in
   memory until [write_chrome] puts them in one Chrome trace_event
   file. *)

module Trace = Mutls_obs.Trace
module Json = Mutls_obs.Json

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for the root *)
  start : float;
  stop : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

type event = { at : float; rank : int; kind : string }

type t = {
  mutable spans : span list;
  mutable stack : int list;
  mutable next_id : int;
  counts : (string, int) Hashtbl.t;
  mutable events : event list;
  mutable stored : int;
}

let create () =
  {
    spans = [];
    stack = [];
    next_id = 0;
    counts = Hashtbl.create 16;
    events = [];
    stored = 0;
  }

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let g0 = Gc.quick_stat () in
  let start = Clock.now () in
  Fun.protect f ~finally:(fun () ->
      let stop = Clock.now () in
      let g1 = Gc.quick_stat () in
      t.stack <- List.tl t.stack;
      t.spans <-
        {
          id;
          name;
          parent;
          start;
          stop;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: t.spans)

(* Records kept for the timeline; every other kind is only counted.  The
   cap bounds memory on long runs. *)
let stamped = [ "fork"; "validate"; "commit"; "rollback" ]
let max_stored = 200_000

let sink t =
  {
    Trace.enabled = true;
    emit =
      (fun r ->
        let kind = Trace.event_name r.Trace.event in
        Hashtbl.replace t.counts kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts kind));
        if t.stored < max_stored && List.mem kind stamped then begin
          t.stored <- t.stored + 1;
          t.events <- { at = Clock.now (); rank = r.Trace.rank; kind } :: t.events
        end);
    close = ignore;
  }

let event_count t = Hashtbl.fold (fun _ n a -> a + n) t.counts 0

let duration s = s.stop -. s.start

let self_time t s =
  List.fold_left
    (fun a c -> if c.parent = s.id then a -. duration c else a)
    (duration s) t.spans

let is_leaf t s = not (List.exists (fun c -> c.parent = s.id) t.spans)

(* Self time summed per leaf-span name (the stages), and the self time
   of every enclosing span — work the stages do not account for. *)
let attribution t =
  let stages = Hashtbl.create 8 in
  let unattributed = ref 0.0 in
  List.iter
    (fun s ->
      let self = self_time t s in
      if is_leaf t s then
        Hashtbl.replace stages s.name
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt stages s.name))
      else unattributed := !unattributed +. self)
    t.spans;
  (List.sort compare (List.of_seq (Hashtbl.to_seq stages)), !unattributed)

let root t = List.find (fun s -> s.parent = -1) t.spans

let write_chrome path ~pid ~process t =
  let t0 = (root t).start in
  let us x = Json.Num (Float.round ((x -. t0) *. 1e7) /. 10.0) in
  let num x = Json.Num x in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", num (float_of_int pid));
        ("args", Json.Obj [ ("name", Json.Str process) ]);
      ]
  in
  let span_ev s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("ph", Json.Str "X");
        ("ts", us s.start);
        ("dur", Json.Num (duration s *. 1e6));
        ("pid", num (float_of_int pid));
        ("tid", num 0.0);
        ( "args",
          Json.Obj
            [
              ("self_s", num (self_time t s));
              ("minor_words", num s.minor_words);
              ("promoted_words", num s.promoted_words);
              ("major_collections", num (float_of_int s.major_collections));
            ] );
      ]
  in
  let instant e =
    Json.Obj
      [
        ("name", Json.Str e.kind);
        ("ph", Json.Str "i");
        ("s", Json.Str "t");
        ("ts", us e.at);
        ("pid", num (float_of_int pid));
        ("tid", num (float_of_int (e.rank + 1)));
      ]
  in
  let evs =
    (meta :: List.rev_map span_ev t.spans) @ List.rev_map instant t.events
  in
  let oc = open_out path in
  output_string oc (Json.to_string (Json.List evs));
  output_char oc '\n';
  close_out oc
