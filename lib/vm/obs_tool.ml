(** VM observability tool; see the interface for the metric list. *)

open Dift_isa

(* Instruction classes, in the order of [class_names]. *)
let class_names =
  [|
    "nop"; "mov"; "alu"; "cmp"; "load"; "store"; "jmp"; "br"; "call";
    "icall"; "ret"; "halt"; "sys_read"; "sys_write"; "sys_thread";
    "sys_sync"; "sys_heap"; "sys_check"; "sys_mark"; "sys_exit";
  |]

let class_of_instr : Instr.t -> int = function
  | Instr.Nop -> 0
  | Instr.Mov _ -> 1
  | Instr.Binop _ -> 2
  | Instr.Cmp _ -> 3
  | Instr.Load _ -> 4
  | Instr.Store _ -> 5
  | Instr.Jmp _ -> 6
  | Instr.Br _ -> 7
  | Instr.Call _ -> 8
  | Instr.Icall _ -> 9
  | Instr.Ret _ -> 10
  | Instr.Halt -> 11
  | Instr.Sys s -> (
      match s with
      | Instr.Read _ -> 12
      | Instr.Write _ -> 13
      | Instr.Spawn _ | Instr.Join _ | Instr.Tid _ -> 14
      | Instr.Lock _ | Instr.Unlock _ | Instr.Barrier_init _
      | Instr.Barrier _ -> 15
      | Instr.Alloc _ | Instr.Free _ -> 16
      | Instr.Check _ -> 17
      | Instr.Mark _ -> 18
      | Instr.Exit -> 19)

let tool reg =
  let open Dift_obs in
  let execs =
    Registry.counter reg "vm.events.exec" ~help:"instructions executed"
  in
  let faults = Registry.counter reg "vm.events.fault" ~help:"machine faults" in
  let finishes =
    Registry.counter reg "vm.events.finish" ~help:"completed runs"
  in
  let classes =
    Array.map
      (fun n ->
        Registry.counter reg ("vm.instr." ^ n)
          ~help:(n ^ " instructions executed"))
      class_names
  in
  Tool.make ~dispatch_cost:0
    ~on_view:(fun v ->
      Registry.incr execs;
      Registry.incr classes.(class_of_instr v.Event.v_instr))
    ~on_fault:(fun _ -> Registry.incr faults)
    ~on_finish:(fun _ -> Registry.incr finishes)
    "obs"

let attach reg m = Machine.attach m (tool reg)

(* 1-in-64 sampled instruction-class instants on the calling domain's
   trace track; the first event is always recorded so short runs still
   show up. *)
let trace_tool tr =
  let open Dift_obs in
  let left = ref 1 in
  Tool.make ~dispatch_cost:0
    ~on_view:(fun v ->
      decr left;
      if !left <= 0 then begin
        left := 64;
        Trace.instant tr ~cat:"vm"
          ~args:
            [ ("step", Json.Int v.Event.v_step); ("pc", Json.Int v.Event.v_pc) ]
          ("instr." ^ class_names.(class_of_instr v.Event.v_instr))
      end)
    ~on_fault:(fun f ->
      Trace.instant tr ~cat:"vm"
        ~args:[ ("step", Json.Int f.Event.at_step) ]
        "fault")
    ~on_finish:(fun _ -> Trace.instant tr ~cat:"vm" "finish")
    "obs-trace"

let attach_trace tr m = Machine.attach m (trace_tool tr)
