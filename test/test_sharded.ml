(* The helper runtime's cluster entry point,
   [Parallel.run_sharded_result ~shards:1] (the name the benchmark
   ledger calls), is [run_result]: field by field on every kernel and
   the server, on both wires, with the filter on, and it refuses any
   other count before a domain starts.  The helper cluster
   ({!Shard_engine.Make.cluster}) computes exactly what the solo
   worker computes — same sinks, stats and final shadow — as QCheck
   properties, sink by sink, for generated programs (which also spawn
   a thread) and call-dense kernels, in the Bool, Pc and Input_set
   domains, on both wires, under the default and security policies
   and the full policy.  Plus the regression test for channel-geometry
   validation. *)

open Dift_isa
open Dift_vm
open Dift_core
open Dift_workloads
open Dift_parallel

let check = Alcotest.check

(* Unwrap a run that must succeed. *)
let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "run failed: %a" Parallel.pp_error e

let same_result name (a : Parallel.result) (b : Parallel.result) =
  check Alcotest.bool
    (Fmt.str "%s: outcome agrees" name)
    true (a.Parallel.outcome = b.Parallel.outcome);
  check Alcotest.int (Fmt.str "%s: events" name) a.Parallel.events
    b.Parallel.events;
  check Alcotest.int (Fmt.str "%s: sources" name) a.Parallel.sources
    b.Parallel.sources;
  check Alcotest.int (Fmt.str "%s: sink hits" name) a.Parallel.sink_hits
    b.Parallel.sink_hits;
  check Alcotest.int
    (Fmt.str "%s: sink trace hash" name)
    a.Parallel.sink_trace_hash b.Parallel.sink_trace_hash;
  check Alcotest.int
    (Fmt.str "%s: tainted locations" name)
    a.Parallel.tainted_locations b.Parallel.tainted_locations;
  check Alcotest.int (Fmt.str "%s: shadow words" name)
    a.Parallel.shadow_words b.Parallel.shadow_words;
  check Alcotest.int
    (Fmt.str "%s: taint fingerprint" name)
    a.Parallel.taint_fingerprint b.Parallel.taint_fingerprint

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let spawn_chaos () =
  match Chaos.plan_of_string "spawn@1=crash" with
  | Ok p -> Chaos.create p
  | Error e -> Alcotest.failf "bad plan: %s" e

(* Control-flow taint entangles all events through per-thread state:
   two shards are refused before any domain starts (a spawn fault
   never fires), and the one helper must get it right from either
   entry point. *)
let test_control_policy () =
  let w = Spec_like.search in
  let input = w.Workload.input ~size:10 ~seed:2 in
  let policy = Policy.full in
  let chaos = spawn_chaos () in
  check Alcotest.bool "two shards refused" true
    (raises_invalid (fun () ->
         Parallel.run_sharded_result ~chaos ~policy ~shards:2
           w.Workload.program ~input));
  check Alcotest.int "no domain spawned" 0 (Chaos.fired chaos);
  let inline = Parallel.run_inline ~policy w.Workload.program ~input in
  let two = ok (Parallel.run_result ~policy w.Workload.program ~input) in
  same_result "search/full two-domain" inline.Parallel.i_result
    two.Parallel.result;
  let one =
    ok (Parallel.run_sharded_result ~policy ~shards:1 w.Workload.program
        ~input)
  in
  same_result "search/full one shard" inline.Parallel.i_result
    one.Parallel.s_result

(* -- one shard is the two-domain runtime -------------------------------- *)

(* [run_result] and [run_sharded_result ~shards:1] are one runtime: on
   every kernel and the server, both wires, filter off and on, the
   same result and every deterministic field of the report the same.
   The filter's admissions depend on how far the helper has got, so
   with the filter on the two runs are tied through the batch count
   instead: the channel ships full batches of the forwarded events
   plus one trailing partial batch.  Any other shard count is refused
   before a domain starts. *)
let test_one_shard_is_two_domain () =
  let batch_size = 8 and queue_capacity = 4 in
  let server =
    let b = Server_sim.generate ~requests:12 ~seed:3 () in
    ("server", Server_sim.program ~workers:2 (), b.Server_sim.input)
  in
  List.iter
    (fun (kernel, program, input) ->
      let inline = Parallel.run_inline program ~input in
      List.iter
        (fun (wire, forward_filter) ->
          let name =
            Fmt.str "%s/%a/filter=%b" kernel Channel.pp_wire wire
              forward_filter
          in
          let two =
            ok
              (Parallel.run_result ~wire ~forward_filter ~queue_capacity
                 ~batch_size program ~input)
          in
          let one =
            ok
              (Parallel.run_sharded_result ~wire ~forward_filter
                 ~queue_capacity ~batch_size ~shards:1 program ~input)
          in
          let s = one.Parallel.s_helper in
          same_result (name ^ " two-domain") inline.Parallel.i_result
            two.Parallel.result;
          same_result (name ^ " one shard") two.Parallel.result
            one.Parallel.s_result;
          check Alcotest.int (name ^ ": queue capacity")
            two.Parallel.queue_capacity one.Parallel.s_queue_capacity;
          check Alcotest.int (name ^ ": batch size") two.Parallel.batch_size
            one.Parallel.s_batch_size;
          check Alcotest.bool (name ^ ": wire") true
            (two.Parallel.wire = one.Parallel.s_wire);
          check Alcotest.bool (name ^ ": neither degraded") true
            (two.Parallel.degraded = None && one.Parallel.s_degraded = None);
          let batches forwarded = (forwarded + batch_size - 1) / batch_size in
          check Alcotest.int (name ^ ": two-domain batches")
            (batches (two.Parallel.result.Parallel.events
                     - two.Parallel.filtered_events))
            two.Parallel.batches;
          check Alcotest.int (name ^ ": one-shard batches")
            (batches (one.Parallel.s_result.Parallel.events
                     - one.Parallel.s_filtered_events))
            s.Probe.batches;
          if not forward_filter then begin
            check Alcotest.int (name ^ ": same batches") two.Parallel.batches
              s.Probe.batches;
            check Alcotest.int (name ^ ": nothing filtered") 0
              (two.Parallel.filtered_events + one.Parallel.s_filtered_events)
          end;
          check Alcotest.int (name ^ ": same dropped batches")
            two.Parallel.dropped_batches s.Probe.dropped_batches;
          check Alcotest.int (name ^ ": same dropped events")
            two.Parallel.dropped_events s.Probe.dropped_events)
        [
          (`Coded, false); (`Boxed, true); (`Coded, true); (`Boxed, false);
        ])
    (server
    :: List.map
         (fun (w : Workload.t) ->
           (w.Workload.name, w.Workload.program,
            w.Workload.input ~size:12 ~seed:4))
         Spec_like.all);
  let w = Spec_like.crc in
  let input = w.Workload.input ~size:12 ~seed:4 in
  List.iter
    (fun shards ->
      let chaos = spawn_chaos () in
      check Alcotest.bool
        (Fmt.str "shards %d refused" shards)
        true
        (raises_invalid (fun () ->
             Parallel.run_sharded_result ~chaos ~shards w.Workload.program
               ~input));
      check Alcotest.int
        (Fmt.str "shards %d: no domain spawned" shards)
        0 (Chaos.fired chaos))
    [ 0; 2 ]

(* A one-shard run degrades by resuming after its helper's last fully
   processed batch, from either entry point. *)
let test_one_shard_degrade_resumes () =
  let w = Spec_like.crc in
  let input = w.Workload.input ~size:12 ~seed:3 in
  let inline = Parallel.run_inline w.Workload.program ~input in
  let chaos () =
    match Chaos.plan_of_string "pop@2=crash" with
    | Ok p -> Chaos.create p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  let resumed name (r : Parallel.result) = function
    | None -> Alcotest.failf "%s: report must be flagged degraded" name
    | Some d ->
        same_result name inline.Parallel.i_result r;
        check Alcotest.bool (name ^ ": resumed past a real cutoff") true
          (d.Parallel.d_cutoff_step >= 0);
        check Alcotest.bool (name ^ ": replayed only the suffix") true
          (d.Parallel.d_replayed_events < r.Parallel.events)
  in
  let two =
    ok
      (Parallel.run_result ~chaos:(chaos ()) ~degrade:`Inline
         ~queue_capacity:4 ~batch_size:1 w.Workload.program ~input)
  in
  resumed "two-domain" two.Parallel.result two.Parallel.degraded;
  let one =
    ok
      (Parallel.run_sharded_result ~chaos:(chaos ()) ~degrade:`Inline
         ~queue_capacity:4 ~batch_size:1 ~shards:1 w.Workload.program ~input)
  in
  resumed "one shard" one.Parallel.s_result one.Parallel.s_degraded

(* -- regression: channel geometry below 1 must raise, not hang ------- *)

let test_invalid_geometry_rejected () =
  let w = Spec_like.crc in
  let input = w.Workload.input ~size:4 ~seed:1 in
  let p = w.Workload.program in
  List.iter
    (fun (name, f) ->
      check Alcotest.bool name true (raises_invalid f))
    [
      ( "run: queue_capacity 0",
        fun () -> ignore (Parallel.run_result ~queue_capacity:0 p ~input) );
      ( "run: batch_size 0",
        fun () -> ignore (Parallel.run_result ~batch_size:0 p ~input) );
      ( "run: batch_size negative",
        fun () -> ignore (Parallel.run_result ~batch_size:(-3) p ~input) );
      ( "run_sharded: shards 0",
        fun () -> ignore (Parallel.run_sharded_result ~shards:0 p ~input) );
      ( "run_sharded: shards negative",
        fun () -> ignore (Parallel.run_sharded_result ~shards:(-1) p ~input) );
      ( "run_sharded: shards 2",
        fun () -> ignore (Parallel.run_sharded_result ~shards:2 p ~input) );
      ( "run_sharded: queue_capacity 0",
        fun () ->
          ignore (Parallel.run_sharded_result ~queue_capacity:0 ~shards:1 p
              ~input)
      );
      ( "run_sharded: batch_size 0",
        fun () ->
          ignore (Parallel.run_sharded_result ~batch_size:0 ~shards:1 p
              ~input) );
    ]

(* The helper's sink callbacks fire at join, in step order — the
   same observations, in the same order, as the streaming inline
   runtime. *)
let test_deferred_on_sink_order () =
  let w = Spec_like.rle in
  let input = w.Workload.input ~size:12 ~seed:8 in
  let observe acc sink taint (e : Event.exec) =
    acc := (Engine.sink_to_string sink, taint, e.Event.step) :: !acc
  in
  let inline_obs = ref [] in
  let _ =
    Parallel.run_inline ~on_sink:(observe inline_obs) w.Workload.program
      ~input
  in
  let sharded_obs = ref [] in
  let _ =
    ok (Parallel.run_sharded_result ~shards:1 ~on_sink:(observe sharded_obs)
        w.Workload.program ~input)
  in
  check Alcotest.bool "same sink observations, same order" true
    (!inline_obs = !sharded_obs);
  check Alcotest.bool "observations non-empty" true (!inline_obs <> [])

(* An exception from the deferred on_sink comes back as a structured
   application-leg error, with or without degraded completion. *)
exception Sink_boom

let test_on_sink_exception () =
  let w = Spec_like.sieve in
  let input = w.Workload.input ~size:10 ~seed:1 in
  List.iter
    (fun degrade ->
      match
        Parallel.run_sharded_result ?degrade ~shards:1
          ~on_sink:(fun _ _ _ -> raise Sink_boom)
          w.Workload.program ~input
      with
      | Ok _ -> Alcotest.fail "a raising on_sink must fail the run"
      | Error e ->
          check Alcotest.bool "application leg" true (e.Parallel.e_leg = `App);
          check Alcotest.bool "the callback's exception" true
            (e.Parallel.e_exn = Sink_boom))
    [ None; Some `Inline ]

(* -- QCheck: generated programs, helper ≡ solo, sink by sink ---------- *)

(* The property's channel geometries, (queue capacity, batch size):
   down to two-slot rings of three-event batches. *)
let geometries = [ (8, 8); (4, 4); (2, 3) ]

let run_machine program ~input on_view =
  let m = Machine.create program ~input in
  Machine.attach m (Tool.make ~on_view "prop-feed");
  Machine.run m

module Prop (D : Taint.DOMAIN) = struct
  module SE = Shard_engine.Make (D)

  (* Everything observable about a run, with its sinks one by one in
     step order: the sink, its taint and every field of its event, so
     a sink event decoded wrong (a lane, an implied next pc) shows even
     where the taint does not.  Taint values are compared
     structurally: the helper replays the exact sequential join order,
     so representations (not just abstract values) must coincide. *)
  let key (m : SE.summary) sinks =
    let event (e : Event.exec) =
      ( (e.Event.step, e.Event.tid, e.Event.func.Func.name, e.Event.pc),
        (e.Event.reads, e.Event.writes, e.Event.addr, e.Event.next_pc),
        (e.Event.input_index, e.Event.value) )
    in
    ( m.SE.m_events,
      m.SE.m_sources,
      m.SE.m_sink_hits,
      List.map (fun (sink, taint, e) -> (sink, taint, event e)) sinks,
      m.SE.m_tainted_locations,
      m.SE.m_shadow_words,
      m.SE.m_fingerprint )

  (* The oracle: a solo worker driven by the machine; its summary and
     its sinks. *)
  let solo policy program ~input =
    let w = SE.solo ~policy ~record_sinks:false program in
    let sinks = ref [] in
    SE.E.on_sink (SE.engine w) (fun sink taint e ->
        sinks := (sink, taint, e) :: !sinks);
    ignore (run_machine program ~input (SE.transfer w));
    (SE.summary w, List.rev !sinks)

  (* A helper cluster fed the machine's views, as the runtime feeds
     it; its key, with its sink events when [sink_events]. *)
  let helper policy wire (queue_capacity, batch_size) ~sink_events program
      ~input =
    let c = SE.cluster ~policy ~wire ~queue_capacity ~batch_size program in
    if sink_events then SE.record_sink_events c;
    SE.start c;
    (match run_machine program ~input (SE.feed_view c) with
    | _ -> ()
    | exception ex ->
        SE.abort c;
        ignore (SE.finish_result c);
        raise ex);
    match SE.finish_result c with
    | Ok m ->
        key m
          (List.map (fun (_, sink, taint, e) -> (sink, taint, Option.get e))
             m.SE.m_sinks)
    | Error f -> raise f.Shard_engine.f_primary

  (* Every configuration of the grid agrees with the solo worker on
     [program]: under each of [policies] and, with [full],
     [Policy.full], geometries x both wires, with and without the sink
     events.  Recording them forwards every sink's value, which makes
     every sink event (each Load, Store and Br among them) a cut on the
     coded wire; only the run without them takes the implied path,
     whose Load/Store addresses come from the lane alone. *)
  let agree ~policies ~full program ~input =
    let grid policy =
      let m, sinks = solo policy program ~input in
      List.for_all
        (fun sink_events ->
          let reference = key m (if sink_events then sinks else []) in
          List.for_all
            (fun wire ->
              List.for_all
                (fun geometry ->
                  helper policy wire geometry ~sink_events program ~input
                  = reference)
                geometries)
            [ `Coded; `Boxed ])
        [ true; false ]
    in
    List.for_all grid (if full then Policy.full :: policies else policies)
end

module Bool_prop = Prop (Taint.Bool)
module Pc_prop = Prop (Taint.Pc)
module Set_prop = Prop (Taint.Input_set)

(* {!Test_props.prog_gen}'s programs (memory cells over five blocks,
   direct, indirect and recursive calls), extended: after its
   generated body,
   [main] spawns a generated [worker] on one of its registers, makes
   stores holding mutex 0 or 1 for eight rounds while the worker runs,
   and joins it.  The argument is tainted whenever that register is,
   and always when [main] first reads an input into it (three cases in
   four).  The worker writes its r0 out first, stores it holding mutex
   0 for eight rounds, then runs its generated body.  A spawn writes
   the spawner's tid register and the child's r0, two frames: the
   wire carries a spawn's value in its cut.  After the join, [main]
   fills one to three pairs of adjacent addresses with different
   taint ({!adjacent}). *)
let spawn_prog_gen =
  QCheck2.Gen.(
    triple Test_props.prog_gen
      (triple (0 -- 5)
         (frequencyl [ (3, true); (1, false) ])
         (list_size (1 -- 3)
            (map2
               (fun m body -> Test_props.G_locked (m, body))
               (0 -- 1)
               (list_size (1 -- 2) Test_props.store_gen))))
      (pair
         (list_size (0 -- 4) (Test_props.op_gen ~calls:true 1))
         (list_size (1 -- 3) (pair (0 -- 7) bool))))

(* Eight rounds of [body]: long enough for the scheduler to preempt
   one thread inside a held mutex and run the other against it. *)
let repeat b body =
  Builder.for_up b ~idx:(Reg.make 10) ~from_:(Operand.imm 0)
    ~below:(Operand.imm 8) body

(* A fresh input and a constant stored at adjacent addresses, the
   cell's and the one past it ([tainted_first] says which gets the
   input), loaded back crosswise and written out.  The stores and
   loads run back to back, so most take the coded wire's implied path,
   where an address off by one moves the taint to another location of
   the shadow fingerprint. *)
let adjacent b (cell, tainted_first) =
  let reg x = Operand.reg (Reg.make x) in
  let a = Test_props.cell_addr cell in
  let at, ac = if tainted_first then (a, a + 1) else (a + 1, a) in
  Builder.read b (Reg.make 4);
  Builder.movi b (Reg.make 5) 7;
  Builder.store b (reg 4) (Operand.imm at) 0;
  Builder.store b (reg 5) (Operand.imm ac) 0;
  Builder.load b (Reg.make 4) (Operand.imm ac) 0;
  Builder.load b (Reg.make 5) (Operand.imm at) 0;
  Builder.write b (reg 4);
  Builder.write b (reg 5)

let build_spawning
    ((ops, callee), (arg, read_first, meanwhile), (worker, pairs)) =
  let reg x = Operand.reg (Reg.make x) and tid = Reg.make 9 in
  Program.make
    [
      Builder.define ~name:"main" ~arity:0 (fun b ->
          List.iter (Test_props.emit b) ops;
          if read_first then Builder.read b (Reg.make arg);
          Builder.spawn b tid "worker" (reg arg);
          repeat b (fun () -> List.iter (Test_props.emit b) meanwhile);
          Builder.join b (Operand.reg tid);
          List.iter (adjacent b) pairs;
          Builder.write b (reg 0);
          Builder.halt b);
      Test_props.define_callee callee;
      Builder.define ~name:"worker" ~arity:1 (fun b ->
          Builder.write b (reg 0);
          repeat b (fun () ->
              Test_props.emit b
                (Test_props.G_locked (0, [ Test_props.G_store (0, 1) ])));
          List.iter (Test_props.emit b) worker;
          Builder.ret b None);
      Test_props.define_recurse ();
    ]

let pp_program ppf case = Program.pp ppf (build_spawning case)

(* A property over {!spawn_prog_gen}'s programs. *)
let program_property ~count name agree =
  Qcheck_run.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:(Fmt.str "%a" pp_program)
       spawn_prog_gen (fun case ->
         agree (build_spawning case) ~input:(Test_props.inputs_for ())))

(* The call-dense kernels at random sizes and seeds: every activation
   a fresh register frame, every call and return a cut on the wire. *)
let kernel_gen =
  QCheck2.Gen.(
    let* w, lo, hi =
      oneofl
        [ (Spec_like.treesum, 2, 12); (Spec_like.feistel, 1, 3);
          (Spec_like.qsort, 3, 12) ]
    in
    let* size = lo -- hi in
    let* seed = 0 -- 1000 in
    return (w, size, seed))

let kernel_property =
  QCheck2.Test.make ~count:2
    ~name:"helper ≡ solo (call-dense kernels)"
    ~print:(fun ((w : Workload.t), size, seed) ->
      Fmt.str "%s size %d seed %d" w.Workload.name size seed)
    kernel_gen
    (fun ((w : Workload.t), size, seed) ->
      let input = w.Workload.input ~size ~seed in
      let policies = [ Policy.default; Policy.security ] in
      Bool_prop.agree ~policies ~full:true w.Workload.program ~input
      && Pc_prop.agree ~policies ~full:false w.Workload.program ~input)

let qcheck_tests =
  [
    program_property ~count:6 "helper ≡ solo (generated programs, Bool)"
      (Bool_prop.agree ~policies:[ Policy.default ] ~full:true);
    program_property ~count:6
      "helper ≡ solo (generated programs, Pc and Input_set)"
      (fun program ~input ->
        Pc_prop.agree ~policies:[ Policy.default ] ~full:true program ~input
        && Set_prop.agree ~policies:[ Policy.default ] ~full:true program
             ~input);
    program_property ~count:6
      "sharded ≡ sequential, security policy (generated programs, Bool, Pc \
       and Input_set)"
      (fun program ~input ->
        Bool_prop.agree ~policies:[ Policy.security ] ~full:false program
          ~input
        && Pc_prop.agree ~policies:[ Policy.security ] ~full:false program
             ~input
        && Set_prop.agree ~policies:[ Policy.security ] ~full:false program
             ~input);
    Qcheck_run.to_alcotest kernel_property;
  ]

let suite =
  [
    Alcotest.test_case "control policy: rejected exact, correct at one shard"
      `Quick test_control_policy;
    Alcotest.test_case "one shard ≡ two-domain run (wires, filter, server)"
      `Quick test_one_shard_is_two_domain;
    Alcotest.test_case "one shard degrades by resuming" `Quick
      test_one_shard_degrade_resumes;
    Alcotest.test_case "invalid channel geometry raises" `Quick
      test_invalid_geometry_rejected;
    Alcotest.test_case "deferred on_sink: same observations, same order"
      `Quick test_deferred_on_sink_order;
    Alcotest.test_case "on_sink exception surfaces at caller" `Quick
      test_on_sink_exception;
  ]
  @ qcheck_tests
