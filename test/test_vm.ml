(* Tests for the virtual machine: instruction semantics, threading,
   synchronisation, faults, replay and checkpointing. *)

open Dift_isa
open Dift_vm

let check = Alcotest.check

let run_program ?config ?(input = [||]) funcs =
  let p = Program.make funcs in
  let m = Machine.create ?config p ~input in
  let outcome = Machine.run m in
  (m, outcome)

let expect_halted outcome =
  match outcome with
  | Event.Halted -> ()
  | o -> Alcotest.failf "expected halted, got %a" Event.pp_outcome o

(* r0 <- 2 + 3; write r0; halt *)
let test_arith () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.add b Reg.r0 (Operand.imm 2) (Operand.imm 3);
        Builder.write b (Operand.reg Reg.r0);
        Builder.halt b)
  in
  let m, o = run_program [ main ] in
  expect_halted o;
  check Alcotest.(list int) "output" [ 5 ] (Machine.output_values m)

let test_alu_ops () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        let w op x y =
          Builder.binop b op Reg.r0 (Operand.imm x) (Operand.imm y);
          Builder.write b (Operand.reg Reg.r0)
        in
        w Instr.Add 7 3;
        w Instr.Sub 7 3;
        w Instr.Mul 7 3;
        w Instr.Div 7 3;
        w Instr.Rem 7 3;
        w Instr.And 6 3;
        w Instr.Or 6 3;
        w Instr.Xor 6 3;
        w Instr.Shl 3 2;
        w Instr.Shr 12 2;
        Builder.halt b)
  in
  let m, o = run_program [ main ] in
  expect_halted o;
  check
    Alcotest.(list int)
    "alu results"
    [ 10; 4; 21; 2; 1; 2; 7; 5; 12; 3 ]
    (Machine.output_values m)

let test_cmp_ops () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        let w op x y =
          Builder.cmp b op Reg.r0 (Operand.imm x) (Operand.imm y);
          Builder.write b (Operand.reg Reg.r0)
        in
        w Instr.Eq 4 4;
        w Instr.Ne 4 4;
        w Instr.Lt 3 4;
        w Instr.Le 4 4;
        w Instr.Gt 3 4;
        w Instr.Ge 4 4;
        Builder.halt b)
  in
  let m, o = run_program [ main ] in
  expect_halted o;
  check Alcotest.(list int) "cmp results" [ 1; 0; 1; 1; 0; 1 ]
    (Machine.output_values m)

(* Sum 0..9 via a loop; tests branches and the for_up helper. *)
let test_loop_sum () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r0 0;
        Builder.for_up b ~idx:Reg.r1 ~from_:(Operand.imm 0)
          ~below:(Operand.imm 10) (fun () ->
            Builder.add b Reg.r0 (Operand.reg Reg.r0) (Operand.reg Reg.r1));
        Builder.write b (Operand.reg Reg.r0);
        Builder.halt b)
  in
  let m, o = run_program [ main ] in
  expect_halted o;
  check Alcotest.(list int) "sum" [ 45 ] (Machine.output_values m)

let test_memory_ops () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r0 100;
        Builder.store b (Operand.imm 7) (Operand.reg Reg.r0) 5;
        Builder.load b Reg.r1 (Operand.reg Reg.r0) 5;
        Builder.write b (Operand.reg Reg.r1);
        (* unwritten memory reads as zero *)
        Builder.load b Reg.r2 (Operand.imm 555) 0;
        Builder.write b (Operand.reg Reg.r2);
        Builder.halt b)
  in
  let m, o = run_program [ main ] in
  expect_halted o;
  check Alcotest.(list int) "mem" [ 7; 0 ] (Machine.output_values m)

(* Calls: args flow in, return value flows out, caller registers are
   untouched by callee clobbering. *)
let test_call_ret () =
  let double =
    Builder.define ~name:"double" ~arity:1 (fun b ->
        Builder.add b Reg.r0 (Operand.reg Reg.r0) (Operand.reg Reg.r0);
        (* clobber a high register to prove isolation *)
        Builder.movi b Reg.r9 999;
        Builder.ret b (Some (Operand.reg Reg.r0)))
  in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r9 7;
        Builder.movi b Reg.r0 21;
        Builder.call b "double" ~ret:(Some Reg.r1);
        Builder.write b (Operand.reg Reg.r1);
        Builder.write b (Operand.reg Reg.r9);
        Builder.halt b)
  in
  let m, o = run_program [ main; double ] in
  expect_halted o;
  check Alcotest.(list int) "call" [ 42; 7 ] (Machine.output_values m)

let test_recursion () =
  (* fib via naive recursion *)
  let fib =
    Builder.define ~name:"fib" ~arity:1 (fun b ->
        Builder.lt b Reg.r1 (Operand.reg Reg.r0) (Operand.imm 2);
        Builder.if_nz b (Operand.reg Reg.r1)
          ~then_:(fun () -> Builder.ret b (Some (Operand.reg Reg.r0)))
          ~else_:(fun () ->
            Builder.mov b Reg.r5 (Operand.reg Reg.r0);
            Builder.sub b Reg.r0 (Operand.reg Reg.r5) (Operand.imm 1);
            Builder.call b "fib" ~ret:(Some Reg.r6);
            Builder.sub b Reg.r0 (Operand.reg Reg.r5) (Operand.imm 2);
            Builder.call b "fib" ~ret:(Some Reg.r7);
            Builder.add b Reg.r0 (Operand.reg Reg.r6) (Operand.reg Reg.r7);
            Builder.ret b (Some (Operand.reg Reg.r0))))
  in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r0 10;
        Builder.call b "fib" ~ret:(Some Reg.r1);
        Builder.write b (Operand.reg Reg.r1);
        Builder.halt b)
  in
  let m, o = run_program [ main; fib ] in
  expect_halted o;
  check Alcotest.(list int) "fib 10" [ 55 ] (Machine.output_values m)

let test_icall () =
  let f1 =
    Builder.define ~name:"inc" ~arity:1 (fun b ->
        Builder.add b Reg.r0 (Operand.reg Reg.r0) (Operand.imm 1);
        Builder.ret b (Some (Operand.reg Reg.r0)))
  in
  let f2 =
    Builder.define ~name:"dec" ~arity:1 (fun b ->
        Builder.sub b Reg.r0 (Operand.reg Reg.r0) (Operand.imm 1);
        Builder.ret b (Some (Operand.reg Reg.r0)))
  in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r0 10;
        Builder.movi b Reg.r2 2;
        (* function id of "dec" is 2 given ordering [main; inc; dec] *)
        Builder.icall b (Operand.reg Reg.r2) ~ret:(Some Reg.r1);
        Builder.write b (Operand.reg Reg.r1);
        Builder.halt b)
  in
  let m, o = run_program [ main; f1; f2 ] in
  expect_halted o;
  check Alcotest.(list int) "icall dec" [ 9 ] (Machine.output_values m)

let test_icall_invalid () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r0 77;
        Builder.icall b (Operand.reg Reg.r0) ~ret:None;
        Builder.halt b)
  in
  let _, o = run_program [ main ] in
  match o with
  | Event.Faulted { kind = Event.Invalid_icall 77; _ } -> ()
  | o -> Alcotest.failf "expected invalid icall, got %a" Event.pp_outcome o

let test_div_by_zero () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r1 0;
        Builder.div b Reg.r0 (Operand.imm 5) (Operand.reg Reg.r1);
        Builder.halt b)
  in
  let _, o = run_program [ main ] in
  match o with
  | Event.Faulted { kind = Event.Div_by_zero; _ } -> ()
  | o -> Alcotest.failf "expected div fault, got %a" Event.pp_outcome o

let test_check_fault () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        Builder.check b (Operand.reg Reg.r0);
        Builder.write b (Operand.imm 1);
        Builder.halt b)
  in
  let _, o = run_program ~input:[| 0 |] [ main ] in
  (match o with
  | Event.Faulted { kind = Event.Check_failed; _ } -> ()
  | o -> Alcotest.failf "expected check fault, got %a" Event.pp_outcome o);
  let m2, o2 = run_program ~input:[| 1 |] [ main ] in
  expect_halted o2;
  check Alcotest.(list int) "passes" [ 1 ] (Machine.output_values m2)

let test_input_eof () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        Builder.read b Reg.r1;
        Builder.write b (Operand.reg Reg.r0);
        Builder.write b (Operand.reg Reg.r1);
        Builder.halt b)
  in
  let m, o = run_program ~input:[| 9 |] [ main ] in
  expect_halted o;
  check Alcotest.(list int) "eof" [ 9; -1 ] (Machine.output_values m)

let test_alloc_free () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.alloc b Reg.r0 (Operand.imm 4);
        Builder.store b (Operand.imm 11) (Operand.reg Reg.r0) 0;
        Builder.store b (Operand.imm 22) (Operand.reg Reg.r0) 3;
        Builder.load b Reg.r1 (Operand.reg Reg.r0) 3;
        Builder.write b (Operand.reg Reg.r1);
        Builder.free b (Operand.reg Reg.r0);
        Builder.halt b)
  in
  let m, o = run_program [ main ] in
  expect_halted o;
  check Alcotest.(list int) "heap" [ 22 ] (Machine.output_values m)

let test_invalid_free () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.free b (Operand.imm 12345);
        Builder.halt b)
  in
  let _, o = run_program [ main ] in
  match o with
  | Event.Faulted { kind = Event.Invalid_free _; _ } -> ()
  | o -> Alcotest.failf "expected invalid free, got %a" Event.pp_outcome o

let test_bounds_checking () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.alloc b Reg.r0 (Operand.imm 4);
        Builder.store b (Operand.imm 1) (Operand.reg Reg.r0) 4;
        (* one past the end *)
        Builder.halt b)
  in
  let config = { Machine.default_config with check_bounds = true } in
  let _, o = run_program ~config [ main ] in
  match o with
  | Event.Faulted { kind = Event.Out_of_bounds _; _ } -> ()
  | o -> Alcotest.failf "expected bounds fault, got %a" Event.pp_outcome o

(* Two threads each add 1000 to a shared counter under a lock; the
   result must be exactly 2000. *)
let worker_body b =
  Builder.movi b Reg.r1 0;
  Builder.for_up b ~idx:Reg.r2 ~from_:(Operand.imm 0) ~below:(Operand.imm 1000)
    (fun () ->
      Builder.lock b (Operand.imm 1);
      Builder.load b Reg.r3 (Operand.imm 50) 0;
      Builder.add b Reg.r3 (Operand.reg Reg.r3) (Operand.imm 1);
      Builder.store b (Operand.reg Reg.r3) (Operand.imm 50) 0;
      Builder.unlock b (Operand.imm 1));
  Builder.ret b None

let test_threads_lock () =
  let worker = Builder.define ~name:"worker" ~arity:1 worker_body in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.spawn b Reg.r0 "worker" (Operand.imm 0);
        Builder.spawn b Reg.r1 "worker" (Operand.imm 1);
        Builder.join b (Operand.reg Reg.r0);
        Builder.join b (Operand.reg Reg.r1);
        Builder.load b Reg.r2 (Operand.imm 50) 0;
        Builder.write b (Operand.reg Reg.r2);
        Builder.halt b)
  in
  let m, o = run_program [ main; worker ] in
  expect_halted o;
  check Alcotest.(list int) "locked counter" [ 2000 ]
    (Machine.output_values m)

(* Without the lock and with aggressive preemption, increments are lost
   on some seed — demonstrating that the scheduler interleaves. *)
let racy_worker_body b =
  Builder.for_up b ~idx:Reg.r2 ~from_:(Operand.imm 0) ~below:(Operand.imm 200)
    (fun () ->
      Builder.load b Reg.r3 (Operand.imm 50) 0;
      Builder.add b Reg.r3 (Operand.reg Reg.r3) (Operand.imm 1);
      Builder.store b (Operand.reg Reg.r3) (Operand.imm 50) 0);
  Builder.ret b None

let test_threads_race_visible () =
  let worker = Builder.define ~name:"worker" ~arity:1 racy_worker_body in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.spawn b Reg.r0 "worker" (Operand.imm 0);
        Builder.spawn b Reg.r1 "worker" (Operand.imm 1);
        Builder.join b (Operand.reg Reg.r0);
        Builder.join b (Operand.reg Reg.r1);
        Builder.load b Reg.r2 (Operand.imm 50) 0;
        Builder.write b (Operand.reg Reg.r2);
        Builder.halt b)
  in
  let p = Program.make [ main; worker ] in
  let lost_somewhere =
    List.exists
      (fun seed ->
        let config =
          { Machine.default_config with seed; quantum_min = 1; quantum_max = 5 }
        in
        let m = Machine.create ~config p ~input:[||] in
        ignore (Machine.run m);
        Machine.output_values m <> [ 400 ])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "some seed loses updates" true lost_somewhere

let test_barrier () =
  (* Each of 3 workers writes its phase-0 value, waits at the barrier,
     then reads the slot of the next worker; without the barrier the
     read could see zero. *)
  let worker =
    Builder.define ~name:"worker" ~arity:1 (fun b ->
        (* r0 = my index (0..2) *)
        Builder.add b Reg.r1 (Operand.imm 60) (Operand.reg Reg.r0);
        Builder.store b (Operand.imm 1) (Operand.reg Reg.r1) 0;
        Builder.barrier b (Operand.imm 9);
        Builder.add b Reg.r2 (Operand.reg Reg.r0) (Operand.imm 1);
        Builder.rem b Reg.r2 (Operand.reg Reg.r2) (Operand.imm 3);
        Builder.add b Reg.r2 (Operand.imm 60) (Operand.reg Reg.r2);
        Builder.load b Reg.r3 (Operand.reg Reg.r2) 0;
        Builder.check b (Operand.reg Reg.r3);
        Builder.ret b None)
  in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.barrier_init b (Operand.imm 9) (Operand.imm 3);
        Builder.spawn b Reg.r0 "worker" (Operand.imm 0);
        Builder.spawn b Reg.r1 "worker" (Operand.imm 1);
        Builder.spawn b Reg.r2 "worker" (Operand.imm 2);
        Builder.join b (Operand.reg Reg.r0);
        Builder.join b (Operand.reg Reg.r1);
        Builder.join b (Operand.reg Reg.r2);
        Builder.write b (Operand.imm 1);
        Builder.halt b)
  in
  List.iter
    (fun seed ->
      let config =
        { Machine.default_config with seed; quantum_min = 1; quantum_max = 7 }
      in
      let m, o =
        run_program ~config [ main; worker ]
      in
      expect_halted o;
      check Alcotest.(list int) (Fmt.str "barrier ok seed %d" seed) [ 1 ]
        (Machine.output_values m))
    [ 1; 2; 3; 4; 5 ]

let test_deadlock_detection () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.lock b (Operand.imm 1);
        Builder.lock b (Operand.imm 2);
        Builder.join b (Operand.imm 99);
        (* join a nonexistent... *)
        Builder.halt b)
  in
  (* Joining an unknown tid succeeds (treated as finished), so build a
     real deadlock: one thread waits on a barrier nobody else reaches. *)
  let main2 =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.barrier_init b (Operand.imm 1) (Operand.imm 2);
        Builder.barrier b (Operand.imm 1);
        Builder.halt b)
  in
  ignore main;
  let _, o = run_program [ main2 ] in
  match o with
  | Event.Deadlocked -> ()
  | o -> Alcotest.failf "expected deadlock, got %a" Event.pp_outcome o

(* Replay: a racy multithreaded run, replayed from its schedule log,
   must reproduce the exact same fingerprint and output. *)
let test_replay_determinism () =
  let worker = Builder.define ~name:"worker" ~arity:1 racy_worker_body in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r4;
        Builder.store b (Operand.reg Reg.r4) (Operand.imm 50) 0;
        Builder.spawn b Reg.r0 "worker" (Operand.imm 0);
        Builder.spawn b Reg.r1 "worker" (Operand.imm 1);
        Builder.join b (Operand.reg Reg.r0);
        Builder.join b (Operand.reg Reg.r1);
        Builder.load b Reg.r2 (Operand.imm 50) 0;
        Builder.write b (Operand.reg Reg.r2);
        Builder.halt b)
  in
  let p = Program.make [ main; worker ] in
  List.iter
    (fun seed ->
      let config =
        { Machine.default_config with seed; quantum_min = 1; quantum_max = 9 }
      in
      let m1 = Machine.create ~config p ~input:[| 5 |] in
      ignore (Machine.run m1);
      let sched = Machine.schedule_log m1 in
      let config2 =
        { Machine.default_config with schedule = Some sched }
      in
      let m2 = Machine.create ~config:config2 p ~input:[| 5 |] in
      ignore (Machine.run m2);
      check Alcotest.int
        (Fmt.str "fingerprint seed %d" seed)
        (Machine.fingerprint m1) (Machine.fingerprint m2);
      check
        Alcotest.(list int)
        (Fmt.str "output seed %d" seed)
        (Machine.output_values m1) (Machine.output_values m2))
    [ 11; 12; 13; 14 ]

(* Forty input values stored to cells 1000..1039: two runs whose
   inputs differ only in the last value have memories that differ only
   in their highest cell, and that difference must show in the
   fingerprint. *)
let test_fingerprint_high_cell () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.for_up b ~idx:Reg.r7 ~from_:(Operand.imm 0)
          ~below:(Operand.imm 40) (fun () ->
            Builder.read b Reg.r1;
            Builder.store b (Operand.reg Reg.r1) (Operand.reg Reg.r7) 1000);
        Builder.halt b)
  in
  let p = Program.make [ main ] in
  let fingerprint last =
    let m =
      Machine.create p
        ~input:(Array.init 40 (fun i -> if i = 39 then last else i + 1))
    in
    ignore (Machine.run m);
    Machine.fingerprint m
  in
  check Alcotest.bool "one high cell changes the fingerprint" true
    (fingerprint 40 <> fingerprint 41)

let test_checkpoint_restore () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.movi b Reg.r0 0;
        Builder.for_up b ~idx:Reg.r1 ~from_:(Operand.imm 0)
          ~below:(Operand.imm 100) (fun () ->
            Builder.add b Reg.r0 (Operand.reg Reg.r0) (Operand.reg Reg.r1);
            Builder.store b (Operand.reg Reg.r0) (Operand.imm 70) 0);
        Builder.load b Reg.r2 (Operand.imm 70) 0;
        Builder.write b (Operand.reg Reg.r2);
        Builder.halt b)
  in
  let p = Program.make [ main ] in
  (* Run to completion once for the reference output. *)
  let ref_m = Machine.create p ~input:[||] in
  ignore (Machine.run ref_m);
  let expected = Machine.output_values ref_m in
  (* Run a fresh machine a while, checkpoint mid-loop, continue from the
     checkpoint on a new machine; same final output. *)
  let config = { Machine.default_config with max_steps = 150 } in
  let m1 = Machine.create ~config p ~input:[||] in
  (match Machine.run m1 with
  | Event.Out_of_steps -> ()
  | o -> Alcotest.failf "expected out of steps, got %a" Event.pp_outcome o);
  let cp = Machine.checkpoint m1 in
  let m2 = Machine.of_checkpoint p ~input:[||] cp in
  let o2 = Machine.run m2 in
  expect_halted o2;
  check Alcotest.(list int) "resumed output" expected
    (Machine.output_values m2)

let test_mark_and_tid () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.tid b Reg.r0;
        Builder.write b (Operand.reg Reg.r0);
        Builder.mark b 3 (Operand.imm 123);
        Builder.halt b)
  in
  let m, o = run_program [ main ] in
  expect_halted o;
  check Alcotest.(list int) "tid" [ 0 ] (Machine.output_values m)

let test_input_override () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        Builder.read b Reg.r1;
        Builder.write b (Operand.reg Reg.r0);
        Builder.write b (Operand.reg Reg.r1);
        Builder.halt b)
  in
  let config =
    { Machine.default_config with input_override = [ (1, 99) ] }
  in
  let m, o = run_program ~config ~input:[| 1; 2 |] [ main ] in
  expect_halted o;
  check Alcotest.(list int) "override" [ 1; 99 ] (Machine.output_values m)

(* -- golden event streams -------------------------------------------------

   Every field of every exec event, folded into one hash per run and
   pinned: a change to the interpreter must emit the same stream,
   event for event, field for field. *)

let mix h x = (h * 0x100000001b3) lxor x

let stream_fingerprint ?config program ~input =
  let n = ref 0 and h = ref 0x84222325 in
  let rec locs h = function [] -> h | l :: tl -> locs (mix h l) tl in
  let on_exec (e : Event.exec) =
    incr n;
    let x = mix !h e.Event.step in
    let x = mix x e.Event.tid in
    let x = mix x (Hashtbl.hash e.Event.func.Func.name) in
    let x = mix x e.Event.pc in
    let x = locs (mix x (List.length e.Event.reads)) e.Event.reads in
    let x = locs (mix x (List.length e.Event.writes)) e.Event.writes in
    let x = mix x e.Event.addr in
    let x = mix x e.Event.next_pc in
    let x = mix x e.Event.input_index in
    h := mix x e.Event.value
  in
  let m = Machine.create ?config program ~input in
  Machine.attach m (Tool.make ~on_exec "golden");
  let o = Machine.run m in
  (m, o, !n, !h)

let golden_streams =
  [
    ("matmul", 29045, 1212335150259692734);
    ("qsort", 5949, -3152660004045715055);
    ("rle", 1999, -1067183776118183007);
    ("search", 2893, 2583988937897917517);
    ("hash", 863, -3770264780578267097);
    ("crc", 607, -2314982979918530380);
    ("sieve", 1469, -389006743779922526);
    ("poly", 4987, 4052558416460584950);
    ("butterfly", 5189, 3585734174036361892);
    ("bfs", 3363, -1750444716837200258);
    ("treesum", 1686, 4121097704259672409);
    ("feistel", 8891, -3021539458677584877);
    ("server", 8686, 3957123628983357391);
    ("server+bounds", 8686, 3957123628983357391);
  ]

let golden_run name =
  let server ?config () =
    let b =
      Dift_workloads.Server_sim.generate ~requests:60 ~seed:5 ~faulty:true ()
    in
    let config =
      match config with
      | Some c -> c
      | None -> { Machine.default_config with seed = 9 }
    in
    stream_fingerprint ~config
      (Dift_workloads.Server_sim.program ~workers:2 ())
      ~input:b.Dift_workloads.Server_sim.input
  in
  match name with
  | "server" -> server ()
  | "server+bounds" ->
      server
        ~config:{ Machine.default_config with seed = 9; check_bounds = true }
        ()
  | k ->
      let w = Dift_workloads.Spec_like.by_name k in
      let size = match k with "matmul" -> 12 | "butterfly" -> 6 | _ -> 60 in
      stream_fingerprint w.Dift_workloads.Workload.program
        ~input:(w.Dift_workloads.Workload.input ~size ~seed:7)

let test_golden_streams () =
  List.iter
    (fun (name, events, hash) ->
      let _, _, n, h = golden_run name in
      check Alcotest.(pair int int) (name ^ " (events, hash)") (events, hash)
        (n, h))
    golden_streams

(* A replay of the recorded schedule emits the very same stream. *)
let test_golden_replay () =
  let m, _, n, h = golden_run "server" in
  let b =
    Dift_workloads.Server_sim.generate ~requests:60 ~seed:5 ~faulty:true ()
  in
  let config =
    { Machine.default_config with schedule = Some (Machine.schedule_log m) }
  in
  let _, _, n', h' =
    stream_fingerprint ~config
      (Dift_workloads.Server_sim.program ~workers:2 ())
      ~input:b.Dift_workloads.Server_sim.input
  in
  check Alcotest.(pair int int) "replayed stream" (n, h) (n', h')

let suite =
  [
    Alcotest.test_case "arith" `Quick test_arith;
    Alcotest.test_case "all alu ops" `Quick test_alu_ops;
    Alcotest.test_case "all cmp ops" `Quick test_cmp_ops;
    Alcotest.test_case "loop sum" `Quick test_loop_sum;
    Alcotest.test_case "memory load/store" `Quick test_memory_ops;
    Alcotest.test_case "call/ret isolation" `Quick test_call_ret;
    Alcotest.test_case "recursion (fib)" `Quick test_recursion;
    Alcotest.test_case "indirect call" `Quick test_icall;
    Alcotest.test_case "invalid indirect call faults" `Quick
      test_icall_invalid;
    Alcotest.test_case "division by zero faults" `Quick test_div_by_zero;
    Alcotest.test_case "check faults on zero" `Quick test_check_fault;
    Alcotest.test_case "input EOF yields -1" `Quick test_input_eof;
    Alcotest.test_case "alloc/free" `Quick test_alloc_free;
    Alcotest.test_case "invalid free faults" `Quick test_invalid_free;
    Alcotest.test_case "bounds checking" `Quick test_bounds_checking;
    Alcotest.test_case "threads with lock" `Quick test_threads_lock;
    Alcotest.test_case "race visible without lock" `Quick
      test_threads_race_visible;
    Alcotest.test_case "barrier" `Quick test_barrier;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
    Alcotest.test_case "fingerprint reads every cell" `Quick
      test_fingerprint_high_cell;
    Alcotest.test_case "checkpoint/restore" `Quick test_checkpoint_restore;
    Alcotest.test_case "mark and tid" `Quick test_mark_and_tid;
    Alcotest.test_case "input override" `Quick test_input_override;
    Alcotest.test_case "golden event streams" `Quick test_golden_streams;
    Alcotest.test_case "replay emits the recorded stream" `Quick
      test_golden_replay;
  ]
