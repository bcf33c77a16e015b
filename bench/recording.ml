(* Recorded event streams for the replay benchmarks: each kernel runs
   once under a collector tool, and the stream is replayed through the
   layer under test.

   [views] keeps each event as the machine describes it, a view with
   its own location arrays and no record; [refill] copies one back
   into a reused view the way the machine fills its own (fields and
   location prefixes, cached record cleared), so a replay fed this way
   times the layer exactly as it runs behind the machine.  [events]
   keeps boxed records, for the layers that take them. *)

open Dift_isa
open Dift_vm
open Dift_workloads

let record (w : Workload.t) ~size ~seed tool =
  let input = w.Workload.input ~size ~seed in
  let m = Machine.create w.Workload.program ~input in
  Machine.attach m tool;
  ignore (Machine.run m)

let events w ~size ~seed =
  let acc = ref [] in
  record w ~size ~seed
    (Tool.make ~on_exec:(fun e -> acc := e :: !acc) "bench-collector");
  Array.of_list (List.rev !acc)

let copy (v : Event.view) =
  {
    v with
    Event.v_reads = Array.sub v.Event.v_reads 0 v.Event.v_nreads;
    v_writes = Array.sub v.Event.v_writes 0 v.Event.v_nwrites;
    v_exec = None;
  }

let views w ~size ~seed =
  let acc = ref [] in
  record w ~size ~seed
    (Tool.make ~on_view:(fun v -> acc := copy v :: !acc) "bench-collector");
  Array.of_list (List.rev !acc)

(* A reused view wide enough for any event (a call reads every
   argument register plus an indirect target). *)
let scratch () =
  let v = Event.view_blank () in
  v.Event.v_reads <- Array.make (Reg.count + 2) 0;
  v.Event.v_writes <- Array.make (Reg.count + 2) 0;
  v

(* Mirrors the machine's fill: integer fields and location prefixes
   stored plainly, the function only when it changes, the cached
   record cleared only when there is one. *)
let refill (dst : Event.view) (src : Event.view) =
  dst.Event.v_step <- src.Event.v_step;
  dst.Event.v_tid <- src.Event.v_tid;
  dst.Event.v_pc <- src.Event.v_pc;
  let nr = src.Event.v_nreads and nw = src.Event.v_nwrites in
  for i = 0 to nr - 1 do
    dst.Event.v_reads.(i) <- src.Event.v_reads.(i)
  done;
  dst.Event.v_nreads <- nr;
  for i = 0 to nw - 1 do
    dst.Event.v_writes.(i) <- src.Event.v_writes.(i)
  done;
  dst.Event.v_nwrites <- nw;
  dst.Event.v_addr <- src.Event.v_addr;
  dst.Event.v_next_pc <- src.Event.v_next_pc;
  dst.Event.v_input_index <- src.Event.v_input_index;
  dst.Event.v_value <- src.Event.v_value;
  if dst.Event.v_func != src.Event.v_func then
    dst.Event.v_func <- src.Event.v_func;
  (match dst.Event.v_exec with
  | Some _ -> dst.Event.v_exec <- None
  | None -> ());
  dst.Event.v_instr <- src.Event.v_instr
