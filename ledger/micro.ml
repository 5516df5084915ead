(* Microbenchmarks of the runtime primitives, timed directly with the
   monotonic clock.  Every buffer is created once, outside the timed
   region, and reset with [finalize] between repetitions, so an access
   row measures accesses and [gbuf.create_us] alone measures
   allocation.  Buffers use the default configuration's geometry: the
   one every TLS run allocates once per virtual CPU.

   bench/main.exe's [micro] times the same primitives with bechamel,
   but its globalbuffer-write-512 and -read-miss-512 closures create a
   4096-slot buffer inside the timed region, so they mostly measure
   allocation; [gbuf.write_miss_ns] and [gbuf.read_miss_ns] do not. *)

module Gb = Mutls_runtime.Global_buffer
module Config = Mutls_runtime.Config
module Deque = Mutls_par.Deque
module Memory = Mutls_interp.Memory

let reps = 101
let words = 512

(* [reps] samples of [f]'s time divided by [ops], in ns; [reset] runs
   untimed after each sample. *)
let per_op ?(reset = ignore) ~ops f =
  List.init reps (fun _ ->
      let t0 = Clock.now () in
      f ();
      let dt = Clock.now () -. t0 in
      reset ();
      dt *. 1e9 /. float_of_int ops)

let geometry = Config.effective_buffers Config.default

(* Words at [addr i] hash to distinct home slots; those at [conflict i]
   all hash to one. *)
let addr i = Memory.null_guard + (8 * i)
let stride = 8 * geometry.Config.Buffers.slots
let conflict i = Memory.null_guard + (i * stride)

(* The engine's own main memory, through the view a TLS run hands the
   runtime, large enough for every address above. *)
let memio () =
  Memory.memio
    (Memory.create ~globals_size:(32 * stride) ~heap_size:0 ~stack_size:0
       ~nstacks:0)

let create ?(spill_slots = geometry.Config.Buffers.spill_slots) () =
  let b = geometry in
  Gb.create ~shards:b.Config.Buffers.shards ~spill_slots
    ~line_words:b.Config.Buffers.line_words ~slots:b.Config.Buffers.slots
    ~temp_slots:b.Config.Buffers.temp_slots ()

let reads gb mem () =
  for i = 0 to words - 1 do
    ignore (Gb.read gb mem (addr i) 8)
  done

let writes gb mem () =
  for i = 0 to words - 1 do
    ignore (Gb.write gb mem (addr i) 8 (Int64.of_int i))
  done

let gbuf () =
  let mem = memio () in
  let gb = create () in
  let reset () = ignore (Gb.finalize gb) in
  let read_miss = per_op ~ops:words ~reset (reads gb mem) in
  let write_miss = per_op ~ops:words ~reset (writes gb mem) in
  reads gb mem ();
  let read_hit = per_op ~ops:words (reads gb mem) in
  let validate =
    per_op ~ops:words (fun () -> assert (Gb.validate gb mem = words))
  in
  reset ();
  writes gb mem ();
  let write_hit = per_op ~ops:words (writes gb mem) in
  let commit = per_op ~ops:words (fun () -> assert (Gb.commit gb mem = words)) in
  reset ();
  (* every address hashes to one home slot: the first write takes it
     and the remaining ones go to the spill tier *)
  let spilled = 31 in
  let sgb = create ~spill_slots:64 () in
  let occupy () =
    ignore (Gb.finalize sgb);
    ignore (Gb.write sgb mem (conflict 0) 8 0L)
  in
  occupy ();
  let spill =
    per_op ~ops:spilled ~reset:occupy (fun () ->
        for i = 1 to spilled do
          ignore (Gb.write sgb mem (conflict i) 8 (Int64.of_int i))
        done)
  in
  let create_us =
    List.init 21 (fun _ -> snd (Clock.time (fun () -> create ())) *. 1e6)
  in
  [
    ("gbuf.read_hit_ns", "ns", read_hit);
    ("gbuf.read_miss_ns", "ns", read_miss);
    ("gbuf.write_hit_ns", "ns", write_hit);
    ("gbuf.write_miss_ns", "ns", write_miss);
    ("gbuf.validate_ns_per_word", "ns", validate);
    ("gbuf.commit_ns_per_word", "ns", commit);
    ("gbuf.spill_ns", "ns", spill);
    ("gbuf.create_us", "us", create_us);
  ]

let deque () =
  let ops = 1000 in
  let d = Deque.create ~capacity:(2 * ops) () in
  let push_pop =
    per_op ~ops (fun () ->
        for i = 1 to ops do
          ignore (Deque.push d i);
          ignore (Deque.pop d)
        done)
  in
  let fill () =
    for i = 1 to ops do
      ignore (Deque.push d i)
    done
  in
  fill ();
  let steal =
    per_op ~ops ~reset:fill (fun () ->
        for _ = 1 to ops do
          ignore (Deque.steal d)
        done)
  in
  [ ("deque.push_pop_ns", "ns", push_pop); ("deque.steal_ns", "ns", steal) ]

let all () = gbuf () @ deque ()
