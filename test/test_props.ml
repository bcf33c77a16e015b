(* Property-based tests over randomly generated programs.

   The generator produces terminating programs (straight-line code,
   bounded loops, guarded blocks, direct calls into a generated
   callee, indirect calls to it through a function-id register, calls
   into a bounded recursive function, and stores inside a held mutex)
   over a small register file and eight memory cells spread over five
   64-location blocks, with input reads and output writes sprinkled
   in.  Properties cross-validate independent implementations against
   each other: the taint engine against the dependence graph + slicer,
   the recording machine against its replay, and checkpoint/resume
   against uninterrupted execution. *)

open Dift_isa
open Dift_vm
open Dift_core

let imm = Operand.imm
let reg = Operand.reg

(* -- random program generator --------------------------------------------- *)

type op =
  | G_movi of int * int  (* rd, const *)
  | G_arith of int * int * int * int  (* kind, rd, ra, rb *)
  | G_read of int
  | G_write of int
  | G_store of int * int  (* ra, cell *)
  | G_load of int * int  (* rd, cell *)
  | G_call of int  (* rd := callee (r0, r1) *)
  | G_icall of int  (* rd := callee (r0, r1), through its function id *)
  | G_rec of int * int  (* rd := recurse (depth 1..3) *)
  | G_locked of int * op list  (* mutex (0..1), stores made holding it *)
  | G_guarded of int * op list  (* guard reg, body *)
  | G_loop of int * int * op list
      (* index reg (distinct per nesting depth), iterations (1..4), body *)

let store_gen =
  QCheck2.Gen.(map2 (fun ra cell -> G_store (ra, cell)) (0 -- 5) (0 -- 7))

let rec op_gen ~calls depth =
  QCheck2.Gen.(
    let leaf =
      oneof
        ((if calls then
            [
              map (fun rd -> G_call rd) (0 -- 5);
              map (fun rd -> G_icall rd) (0 -- 5);
              map2 (fun rd n -> G_rec (rd, n)) (0 -- 5) (1 -- 3);
            ]
          else [])
        @ [
          map2
            (fun m body -> G_locked (m, body))
            (0 -- 1)
            (list_size (1 -- 3) store_gen);
          map2 (fun rd k -> G_movi (rd, k)) (0 -- 5) (0 -- 100);
          map2
            (fun (k, rd) (ra, rb) -> G_arith (k, rd, ra, rb))
            (pair (0 -- 2) (0 -- 5))
            (pair (0 -- 5) (0 -- 5));
          map (fun rd -> G_read rd) (0 -- 5);
          map (fun ra -> G_write ra) (0 -- 5);
          map2 (fun ra cell -> G_store (ra, cell)) (0 -- 5) (0 -- 7);
          map2 (fun rd cell -> G_load (rd, cell)) (0 -- 5) (0 -- 7);
        ])
    in
    if depth = 0 then leaf
    else
      frequency
        [
          (6, leaf);
          ( 1,
            map2
              (fun g body -> G_guarded (g, body))
              (0 -- 5)
              (list_size (1 -- 4) (op_gen ~calls (depth - 1))) );
          ( 1,
            map2
              (fun n body -> G_loop (6 + depth, 1 + (n mod 4), body))
              (0 -- 3)
              (list_size (1 -- 4) (op_gen ~calls (depth - 1))) );
        ])

(* [main]'s body and the callee's, which makes no calls itself. *)
let prog_gen =
  QCheck2.Gen.(
    pair
      (list_size (3 -- 25) (op_gen ~calls:true 2))
      (list_size (1 -- 6) (op_gen ~calls:false 1)))

(* Each cell its own address, [40 * cell] apart: the eight cells span
   addresses 100 to 380. *)
let cell_addr cell = 100 + (40 * cell)

(* The callee's function id: every generated program lists [main]
   first and [callee] second. *)
let callee_id = 1

(* A register no generated op names, for the indirect call's target. *)
let fid_reg = Reg.make 11

let rec emit b op =
  match op with
  | G_movi (rd, k) -> Builder.movi b (Reg.make rd) k
  | G_arith (k, rd, ra, rb) ->
      let o = match k with 0 -> Instr.Add | 1 -> Instr.Sub | _ -> Instr.Mul in
      Builder.binop b o (Reg.make rd) (reg (Reg.make ra)) (reg (Reg.make rb))
  | G_read rd -> Builder.read b (Reg.make rd)
  | G_write ra -> Builder.write b (reg (Reg.make ra))
  | G_store (ra, cell) ->
      Builder.store b (reg (Reg.make ra)) (imm (cell_addr cell)) 0
  | G_load (rd, cell) -> Builder.load b (Reg.make rd) (imm (cell_addr cell)) 0
  | G_call rd -> Builder.call b "callee" ~ret:(Some (Reg.make rd))
  | G_icall rd ->
      Builder.movi b fid_reg callee_id;
      Builder.icall b (reg fid_reg) ~ret:(Some (Reg.make rd))
  | G_rec (rd, n) ->
      Builder.movi b Reg.r0 n;
      Builder.call b "recurse" ~ret:(Some (Reg.make rd))
  | G_locked (m, body) ->
      Builder.lock b (imm m);
      List.iter (emit b) body;
      Builder.unlock b (imm m)
  | G_guarded (g, body) ->
      Builder.if_nz1 b (reg (Reg.make g)) (fun () -> List.iter (emit b) body)
  | G_loop (idx, n, body) ->
      Builder.for_up b ~idx:(Reg.make idx) ~from_:(imm 0) ~below:(imm n)
        (fun () -> List.iter (emit b) body)

let define_callee callee =
  Builder.define ~name:"callee" ~arity:2 (fun b ->
      List.iter (emit b) callee;
      Builder.ret b (Some (reg (Reg.make 0))))

(* [recurse n] calls itself down to [n = 0], storing [n] at every
   level on the way back: a fresh register frame per level. *)
let define_recurse () =
  Builder.define ~name:"recurse" ~arity:1 (fun b ->
      Builder.if_nz1 b (reg Reg.r0) (fun () ->
          Builder.sub b Reg.r1 (reg Reg.r0) (imm 1);
          Builder.mov b Reg.r0 (reg Reg.r1);
          Builder.call b "recurse" ~ret:(Some Reg.r1));
      Builder.store b (reg Reg.r0) (imm (cell_addr 0)) 0;
      Builder.ret b (Some (reg Reg.r0)))

let build_program (ops, callee) =
  Program.make
    [
      Builder.define ~name:"main" ~arity:0 (fun b ->
          List.iter (emit b) ops;
          (* always end with an observable output *)
          Builder.write b (reg (Reg.make 0));
          Builder.halt b);
      define_callee callee;
      define_recurse ();
    ]

let inputs_for _ops = Array.init 64 (fun i -> (i * 37) + 3)

(* -- property 1: engine taint vs dependence slicing ------------------------ *)

module Set_engine = Engine.Make (Taint.Input_set)
module Int_set = Taint.Int_set

(* For every output event: the engine's input-set taint must be a
   subset of the inputs found by backward-slicing the dependence graph
   from that output (the slice additionally follows address
   dependences, so it can only be larger). *)
let prop_taint_subset_of_slice =
  QCheck2.Test.make ~count:120 ~name:"taint set ⊆ slice inputs" prog_gen
    (fun ops ->
      let p = build_program ops in
      let input = inputs_for ops in
      let m = Machine.create p ~input in
      let eng = Set_engine.create p in
      let outputs = ref [] in
      Set_engine.on_sink eng (fun sink taint e ->
          if sink = Engine.Sink_output then
            outputs := (e.Event.step, taint) :: !outputs);
      Set_engine.attach eng m;
      let tracer = Ontrac.create ~opts:Ontrac.no_opts p in
      Ontrac.attach tracer m;
      ignore (Machine.run m);
      let g, w = Ontrac.final_graph tracer in
      List.for_all
        (fun (step, taint) ->
          let slice = Slicing.backward ~window_start:w g ~criterion:[ step ] in
          let slice_inputs =
            List.fold_left
              (fun acc s ->
                match Ddg.node g s with
                | Some n when n.Ddg.input_index >= 0 ->
                    Int_set.add n.Ddg.input_index acc
                | _ -> acc)
              Int_set.empty (Slicing.steps slice)
          in
          Int_set.subset taint slice_inputs)
        !outputs)

(* -- property 2: optimized and unoptimized graphs agree -------------------- *)

let prop_optimized_graph_equal =
  QCheck2.Test.make ~count:80 ~name:"optimized DDG ≡ unoptimized DDG"
    prog_gen (fun ops ->
      let p = build_program ops in
      let input = inputs_for ops in
      let run opts =
        let m = Machine.create p ~input in
        let tracer = Ontrac.create ~opts p in
        Ontrac.attach tracer m;
        ignore (Machine.run m);
        let g, _ = Ontrac.final_graph tracer in
        g
      in
      let g1 = run Ontrac.default_opts in
      let g2 = run Ontrac.no_opts in
      Ddg.num_nodes g1 = Ddg.num_nodes g2 && Ddg.num_edges g1 = Ddg.num_edges g2)

(* -- property 3: record/replay determinism --------------------------------- *)

let prop_replay_fingerprint =
  QCheck2.Test.make ~count:100 ~name:"replay reproduces the fingerprint"
    QCheck2.Gen.(pair prog_gen (1 -- 1000))
    (fun (ops, seed) ->
      let p = build_program ops in
      let input = inputs_for ops in
      let config = { Machine.default_config with seed } in
      let m1 = Machine.create ~config p ~input in
      ignore (Machine.run m1);
      let config2 =
        { Machine.default_config with
          schedule = Some (Machine.schedule_log m1) }
      in
      let m2 = Machine.create ~config:config2 p ~input in
      ignore (Machine.run m2);
      Machine.fingerprint m1 = Machine.fingerprint m2
      && Machine.output_values m1 = Machine.output_values m2)

(* -- property 4: checkpoint/resume ≡ uninterrupted run ---------------------- *)

let prop_checkpoint_resume =
  QCheck2.Test.make ~count:80 ~name:"checkpoint/resume ≡ straight run"
    QCheck2.Gen.(pair prog_gen (5 -- 60))
    (fun (ops, cut) ->
      let p = build_program ops in
      let input = inputs_for ops in
      let m_ref = Machine.create p ~input in
      ignore (Machine.run m_ref);
      let expected = Machine.output_values m_ref in
      let config = { Machine.default_config with max_steps = cut } in
      let m1 = Machine.create ~config p ~input in
      match Machine.run m1 with
      | Event.Halted -> Machine.output_values m1 = expected
      | Event.Out_of_steps ->
          let cp = Machine.checkpoint m1 in
          let m2 = Machine.of_checkpoint p ~input cp in
          ignore (Machine.run m2);
          Machine.output_values m2 = expected
      | Event.Faulted _ | Event.Deadlocked | Event.Stopped _ -> false)

(* -- property 5: trace buffer invariants ------------------------------------ *)

let prop_buffer_invariants =
  QCheck2.Test.make ~count:200 ~name:"trace buffer invariants"
    QCheck2.Gen.(
      pair (10 -- 500) (list_size (1 -- 200) (pair (0 -- 50) (1 -- 30))))
    (fun (capacity, adds) ->
      let buf = Trace_buffer.create ~capacity in
      let step = ref 0 in
      let total = ref 0 in
      List.for_all
        (fun (dstep, bytes) ->
          step := !step + dstep;
          total := !total + bytes;
          Trace_buffer.add buf ~use_step:!step ~bytes;
          Trace_buffer.stored_bytes buf <= max capacity bytes
          && Trace_buffer.total_bytes buf = !total
          && Trace_buffer.window_start buf >= 0)
        adds)

(* -- property 6: encoding round-trip ----------------------------------------- *)

let prop_encoding_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"dependence encoding round-trips"
    QCheck2.Gen.(list_size (0 -- 100) (pair (0 -- 4) (pair (0 -- 50) (0 -- 40))))
    (fun raw ->
      (* build records with monotone use steps *)
      let _, deps =
        List.fold_left
          (fun (use, acc) (kind, (duse, ddef)) ->
            let use = use + duse in
            ( use,
              { Dep.kind = Dep.kind_of_int kind; use_step = use;
                def_step = max 0 (use - ddef) }
              :: acc ))
          (0, []) raw
      in
      let deps = List.rev deps in
      let w = Encoding.writer () in
      List.iter (Encoding.write w) deps;
      let decoded = Encoding.decode (Encoding.contents w) in
      List.length decoded = List.length deps
      && List.for_all2
           (fun (a : Dep.t) (b : Dep.t) ->
             a.Dep.kind = b.Dep.kind
             && a.Dep.use_step = b.Dep.use_step
             && a.Dep.def_step = b.Dep.def_step)
           deps decoded)

(* -- property 7: forward/backward slicing duality ---------------------------- *)

let prop_slice_duality =
  QCheck2.Test.make ~count:80
    ~name:"t in backward(s) iff s in forward(t)" prog_gen (fun ops ->
      let p = build_program ops in
      let input = inputs_for ops in
      let m = Machine.create p ~input in
      let tracer = Ontrac.create ~opts:Ontrac.no_opts p in
      Ontrac.attach tracer m;
      ignore (Machine.run m);
      let g, w = Ontrac.final_graph tracer in
      match Slicing.last_output g with
      | None -> true
      | Some out ->
          let bwd = Slicing.backward ~window_start:w g ~criterion:[ out ] in
          (* every input read: in the backward slice iff the output is
             in its forward slice *)
          let ok = ref true in
          Ddg.iter_nodes
            (fun n ->
              if n.Ddg.input_index >= 0 then begin
                let fwd =
                  Slicing.forward ~window_start:w g
                    ~criterion:[ n.Ddg.step ]
                in
                let in_bwd = Slicing.mem_step bwd n.Ddg.step in
                let reaches = Slicing.mem_step fwd out in
                if in_bwd <> reaches then ok := false
              end)
            g;
          !ok)

(* -- property 8: chops are intersections -------------------------------------- *)

let prop_chop_subset =
  QCheck2.Test.make ~count:80 ~name:"chop ⊆ backward slice" prog_gen
    (fun ops ->
      let p = build_program ops in
      let input = inputs_for ops in
      let m = Machine.create p ~input in
      let tracer = Ontrac.create ~opts:Ontrac.no_opts p in
      Ontrac.attach tracer m;
      ignore (Machine.run m);
      let g, w = Ontrac.final_graph tracer in
      match Slicing.last_output g with
      | None -> true
      | Some out ->
          let sources = ref [] in
          Ddg.iter_nodes
            (fun n ->
              if n.Ddg.input_index >= 0 then sources := n.Ddg.step :: !sources)
            g;
          let bwd = Slicing.backward ~window_start:w g ~criterion:[ out ] in
          let chop =
            Slicing.chop ~window_start:w g ~source:!sources ~sink:[ out ]
          in
          List.for_all (fun s -> Slicing.mem_step bwd s) (Slicing.steps chop))

(* -- property: DDG serialisation round-trips ---------------------------------- *)

let prop_ddg_roundtrip =
  QCheck2.Test.make ~count:80 ~name:"ddg serialisation round-trips"
    prog_gen (fun ops ->
      let p = build_program ops in
      let input = inputs_for ops in
      let m = Machine.create p ~input in
      let tracer = Ontrac.create ~opts:Ontrac.no_opts p in
      Ontrac.attach tracer m;
      ignore (Machine.run m);
      let g, w = Ontrac.final_graph tracer in
      let g' = Ddg_io.deserialize (Ddg_io.serialize g) in
      Ddg.num_nodes g = Ddg.num_nodes g'
      && Ddg.num_edges g = Ddg.num_edges g'
      &&
      match Slicing.last_output g with
      | None -> true
      | Some out ->
          let s1 = Slicing.backward ~window_start:w g ~criterion:[ out ] in
          let s2 = Slicing.backward ~window_start:w g' ~criterion:[ out ] in
          Slicing.steps s1 = Slicing.steps s2
          && Slicing.sites s1 = Slicing.sites s2)

(* -- property 9: same seed, same run ----------------------------------------- *)

let prop_determinism =
  QCheck2.Test.make ~count:80 ~name:"same seed reproduces the run"
    QCheck2.Gen.(pair prog_gen (1 -- 1000))
    (fun (ops, seed) ->
      let p = build_program ops in
      let input = inputs_for ops in
      let config = { Machine.default_config with seed } in
      let m1 = Machine.create ~config p ~input in
      ignore (Machine.run m1);
      let m2 = Machine.create ~config p ~input in
      ignore (Machine.run m2);
      Machine.fingerprint m1 = Machine.fingerprint m2
      && Machine.cycles m1 = Machine.cycles m2)

let suite =
  List.map Qcheck_run.to_alcotest
    [
      prop_taint_subset_of_slice;
      prop_optimized_graph_equal;
      prop_replay_fingerprint;
      prop_checkpoint_resume;
      prop_buffer_invariants;
      prop_encoding_roundtrip;
      prop_slice_duality;
      prop_chop_subset;
      prop_ddg_roundtrip;
      prop_determinism;
    ]
