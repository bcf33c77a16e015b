(* The machine's one event: every tool sees the same event whether it
   reads the live view or takes a record, records are built once per
   event and shared, kept records never alias the view, and a run
   allocates (almost) nothing per event. *)

open Dift_vm
open Dift_workloads

let check = Alcotest.check

(* The view as a record, copied field by field (not through
   [Event.view_to_exec], so the comparison is independent of it). *)
let snapshot (v : Event.view) =
  let prefix arr n = Array.to_list (Array.sub arr 0 n) in
  {
    Event.step = v.Event.v_step;
    tid = v.Event.v_tid;
    func = v.Event.v_func;
    pc = v.Event.v_pc;
    instr = v.Event.v_instr;
    reads = prefix v.Event.v_reads v.Event.v_nreads;
    writes = prefix v.Event.v_writes v.Event.v_nwrites;
    addr = v.Event.v_addr;
    next_pc = v.Event.v_next_pc;
    input_index = v.Event.v_input_index;
    value = v.Event.v_value;
  }

(* Field for field; the function and instruction are the program's
   own, so they compare physically. *)
let same (a : Event.exec) (b : Event.exec) =
  a.Event.step = b.Event.step
  && a.Event.tid = b.Event.tid
  && a.Event.func == b.Event.func
  && a.Event.pc = b.Event.pc
  && a.Event.instr == b.Event.instr
  && a.Event.reads = b.Event.reads
  && a.Event.writes = b.Event.writes
  && a.Event.addr = b.Event.addr
  && a.Event.next_pc = b.Event.next_pc
  && a.Event.input_index = b.Event.input_index
  && a.Event.value = b.Event.value

(* The twelve kernels plus the server, with and without bounds
   checking: (name, machine maker).  A case's machines share one
   program, so their events share its functions and instructions. *)
let cases =
  let server ~check_bounds =
    let b = Server_sim.generate ~requests:60 ~seed:5 ~faulty:true () in
    let program = Server_sim.program ~workers:2 () in
    fun () ->
      Machine.create
        ~config:{ Machine.default_config with seed = 9; check_bounds }
        program ~input:b.Server_sim.input
  in
  List.map
    (fun (w : Workload.t) ->
      let k = w.Workload.name in
      let size = match k with "matmul" -> 12 | "butterfly" -> 6 | _ -> 60 in
      ( k,
        fun () ->
          Machine.create w.Workload.program
            ~input:(w.Workload.input ~size ~seed:7) ))
    Spec_like.all
  @ [
      ("server", server ~check_bounds:false);
      ("server+bounds", server ~check_bounds:true);
    ]

let collect make =
  let acc = ref [] in
  let m = make () in
  Machine.attach m (Tool.make ~on_exec:(fun e -> acc := e :: !acc) "collect");
  ignore (Machine.run m);
  List.rev !acc

let test_one_event () =
  List.iter
    (fun (name, make) ->
      let m = make () in
      let a = ref [] and seen = ref [] and b = ref [] in
      Machine.attach m (Tool.make ~on_exec:(fun e -> a := e :: !a) "exec-a");
      Machine.attach m
        (Tool.make ~on_view:(fun v -> seen := snapshot v :: !seen) "view");
      Machine.attach m (Tool.make ~on_exec:(fun e -> b := e :: !b) "exec-b");
      ignore (Machine.run m);
      let a = List.rev !a and seen = List.rev !seen and b = List.rev !b in
      let n = List.length seen in
      check Alcotest.bool (name ^ ": ran") true (n > 0);
      check Alcotest.int (name ^ ": exec tool A, every event") n
        (List.length a);
      check Alcotest.int (name ^ ": exec tool B, every event") n
        (List.length b);
      check Alcotest.bool
        (name ^ ": view and exec tools see the same events")
        true
        (List.for_all2 same seen a);
      check Alcotest.bool
        (name ^ ": one record per event, shared by both exec tools")
        true
        (List.for_all2 ( == ) a b);
      let fresh = collect make in
      check Alcotest.bool
        (name ^ ": kept records equal a fresh collector's stream")
        true
        (List.length fresh = n && List.for_all2 same fresh a))
    cases

(* -- allocation budget ---------------------------------------------------

   Minor words allocated per event, on the allocating domain: a native
   [Machine.run] (after [Machine.create]) and a whole
   [Parallel.run_inline] call, fixed costs included.  Measured with
   these inputs: native crc 0.829, matmul 0.236; inline crc 0.845,
   matmul 0.692 — what remains is the input log (an entry per input
   word read), the schedule log, memory-cell inserts and the engine's
   fixed costs.  The counts repeat exactly.
   Each bound is the measured value plus half a word per event of
   headroom: one option or list cell built per event (2 or 3 words)
   breaks them all. *)

let alloc_cases = [ ("crc", 5000, 0.829, 0.845); ("matmul", 15, 0.236, 0.692) ]
let headroom = 0.5

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_alloc_budget () =
  List.iter
    (fun (k, size, native, inline) ->
      let w = Spec_like.by_name k in
      let input = w.Workload.input ~size ~seed:7 in
      let m = Machine.create w.Workload.program ~input in
      let native_words = minor_words (fun () -> ignore (Machine.run m)) in
      let inline_words =
        minor_words (fun () ->
            ignore (Dift_parallel.Parallel.run_inline w.Workload.program ~input))
      in
      let n = float_of_int (Machine.steps m) in
      let native_words = native_words /. n and inline_words = inline_words /. n in
      let within what measured bound =
        if measured > bound then
          Alcotest.failf "%s %s: %.3f minor words/event > bound %.3f" k what
            measured bound
      in
      within "native" native_words (native +. headroom);
      within "inline" inline_words (inline +. headroom))
    alloc_cases

let suite =
  [
    Alcotest.test_case "one event: view and exec tools agree" `Quick
      test_one_event;
    Alcotest.test_case "allocation budget per event" `Quick test_alloc_budget;
  ]
