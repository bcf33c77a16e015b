(* The sharded N-helper runtime computes exactly what the sequential
   engine computes — same sink trace, same stats, same final shadow —
   for every workload kernel at 1, 2 and 4 shards, and (as QCheck
   properties, sink by sink) for generated programs (which also spawn
   a thread) and call-dense kernels whose memory cells and register
   frames spread over the shards, in the Bool and Pc domains, on both
   wires, under the default and security policies, and under the full
   policy on one shard.  Plus the regression test for channel-geometry
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

(* -- every kernel, 1/2/4 shards, bit-identical to inline -------------- *)

let test_equivalence_all_kernels () =
  let found_cross = ref false in
  List.iter
    (fun (w : Workload.t) ->
      let input = w.Workload.input ~size:14 ~seed:11 in
      let inline = Parallel.run_inline w.Workload.program ~input in
      List.iter
        (fun shards ->
          let rep =
            ok (Parallel.run_sharded_result ~queue_capacity:8 ~batch_size:8
                ~shards w.Workload.program ~input)
          in
          same_result
            (Fmt.str "%s/shards=%d" w.Workload.name shards)
            inline.Parallel.i_result rep.Parallel.s_result;
          if rep.Parallel.s_cross_events > 0 then found_cross := true)
        [ 1; 2; 4 ])
    Spec_like.all;
  (* if no kernel ever crossed shards, the exchange protocol was never
     exercised and the equivalences above prove nothing about it *)
  check Alcotest.bool "cross-shard exchange exercised" true !found_cross

(* The sharded runtime must also agree with the two-domain [run]
   (which asserts the hash chain is the same one [make_engine] mixes). *)
let test_agrees_with_two_domain_run () =
  let w = Spec_like.crc in
  let input = w.Workload.input ~size:12 ~seed:5 in
  let two = ok (Parallel.run_result w.Workload.program ~input) in
  let sharded =
    ok (Parallel.run_sharded_result ~shards:2 w.Workload.program ~input)
  in
  same_result "crc run_result vs run_sharded_result" two.Parallel.result
    sharded.Parallel.s_result

(* The security policy (pointer flows) must survive sharding. *)
let test_security_policy () =
  let w = Spec_like.bfs in
  let input = w.Workload.input ~size:14 ~seed:3 in
  let policy = Policy.security in
  let inline = Parallel.run_inline ~policy w.Workload.program ~input in
  let rep =
    ok (Parallel.run_sharded_result ~policy ~shards:4 w.Workload.program ~input)
  in
  same_result "bfs/security sharded" inline.Parallel.i_result
    rep.Parallel.s_result

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* Control-flow taint entangles all events through per-thread state:
   two shards must refuse it before any domain starts (a spawn fault
   never fires), and one shard, which exchanges nothing, must get it
   right from either entry point. *)
let test_control_policy () =
  let w = Spec_like.search in
  let input = w.Workload.input ~size:10 ~seed:2 in
  let policy = Policy.full in
  let chaos =
    match Chaos.plan_of_string "spawn@1=crash" with
    | Ok p -> Chaos.create p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  check Alcotest.bool "two shards reject propagate_control" true
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
   every kernel, both wires, filter off and on, the same
   result and the same channel accounting.  The filter's admissions
   depend on how far the helper has got, so with the filter on the two
   runs are tied through the batch count instead: one helper's channel
   ships full batches of the forwarded events plus one trailing
   partial batch. *)
let test_one_shard_is_two_domain () =
  let batch_size = 8 in
  List.iter
    (fun (w : Workload.t) ->
      let input = w.Workload.input ~size:12 ~seed:4 in
      let inline = Parallel.run_inline w.Workload.program ~input in
      List.iter
        (fun (wire, forward_filter) ->
          let name =
            Fmt.str "%s/%a/filter=%b" w.Workload.name Channel.pp_wire wire
              forward_filter
          in
          let two =
            ok
              (Parallel.run_result ~wire ~forward_filter ~queue_capacity:4
                 ~batch_size w.Workload.program ~input)
          in
          let one =
            ok
              (Parallel.run_sharded_result ~wire ~forward_filter
                 ~queue_capacity:4 ~batch_size ~shards:1 w.Workload.program
                 ~input)
          in
          let s = one.Parallel.s_per_shard.(0) in
          same_result (name ^ " two-domain") inline.Parallel.i_result
            two.Parallel.result;
          same_result (name ^ " one shard") two.Parallel.result
            one.Parallel.s_result;
          let batches forwarded = (forwarded + batch_size - 1) / batch_size in
          check Alcotest.int (name ^ ": two-domain batches")
            (batches (two.Parallel.result.Parallel.events
                     - two.Parallel.filtered_events))
            two.Parallel.batches;
          check Alcotest.int (name ^ ": one-shard batches")
            (batches (one.Parallel.s_result.Parallel.events
                     - one.Parallel.s_filtered_events))
            s.Shard_engine.batches;
          if not forward_filter then begin
            check Alcotest.int (name ^ ": same batches") two.Parallel.batches
              s.Shard_engine.batches;
            check Alcotest.int (name ^ ": nothing filtered") 0
              (two.Parallel.filtered_events + one.Parallel.s_filtered_events)
          end;
          check Alcotest.int (name ^ ": same dropped batches")
            two.Parallel.dropped_batches s.Shard_engine.dropped_batches;
          check Alcotest.int (name ^ ": same dropped events")
            two.Parallel.dropped_events s.Shard_engine.dropped_events)
        [
          (`Coded, false); (`Boxed, true); (`Coded, true); (`Boxed, false);
        ])
    Spec_like.all

(* A one-shard run degrades by resuming after its helper's last fully
   processed batch, from either entry point; N shards rerun from
   scratch. *)
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
  resumed "one shard" one.Parallel.s_result one.Parallel.s_degraded;
  let two_shards =
    ok
      (Parallel.run_sharded_result ~chaos:(chaos ()) ~degrade:`Inline
         ~queue_capacity:4 ~batch_size:1 ~shards:2 w.Workload.program ~input)
  in
  same_result "two shards" inline.Parallel.i_result
    two_shards.Parallel.s_result;
  match two_shards.Parallel.s_degraded with
  | None -> Alcotest.fail "two shards: report must be flagged degraded"
  | Some d ->
      check Alcotest.int "two shards rerun from scratch" (-1)
        d.Parallel.d_cutoff_step

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
      ( "run_sharded: queue_capacity 0",
        fun () ->
          ignore (Parallel.run_sharded_result ~queue_capacity:0 ~shards:2 p
              ~input)
      );
      ( "run_sharded: batch_size 0",
        fun () ->
          ignore (Parallel.run_sharded_result ~batch_size:0 ~shards:2 p
              ~input) );
    ]

(* Sharded sink callbacks fire at join, in global step order — the
   same observations, in the same order, as the streaming runtimes. *)
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
    ok (Parallel.run_sharded_result ~shards:3 ~on_sink:(observe sharded_obs)
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
        Parallel.run_sharded_result ?degrade ~shards:2
          ~on_sink:(fun _ _ _ -> raise Sink_boom)
          w.Workload.program ~input
      with
      | Ok _ -> Alcotest.fail "a raising on_sink must fail the run"
      | Error e ->
          check Alcotest.bool "application leg" true (e.Parallel.e_leg = `App);
          check Alcotest.bool "the callback's exception" true
            (e.Parallel.e_exn = Sink_boom))
    [ None; Some `Inline ]

(* -- QCheck: generated programs, sharded(N) ≡ solo, sink by sink ----- *)

(* The property's channel geometries, (queue capacity, batch size):
   down to two-slot rings of three-event batches. *)
let geometries = [ (8, 8); (4, 4); (2, 3) ]

(* Generated cases run, those whose run crossed shards at 2 and at 4
   shards, and those with an event that writes on two shards: a
   property none of whose cases crosses shards says nothing about the
   exchange, and one with no such write says nothing about its
   receiver leg. *)
type tally = {
  mutable cases : int;
  mutable cross2 : int;
  mutable cross4 : int;
  mutable split_writes : int;
}

let run_machine program ~input on_view =
  let m = Machine.create program ~input in
  Machine.attach m (Tool.make ~on_view "prop-feed");
  Machine.run m

(* Whether some event writes locations that 4 shards place on two
   different shards (2 shards split no write that 4 keep together). *)
let writes_split program ~input =
  let router = Router.create ~shards:4 () in
  let split = ref false in
  ignore
    (run_machine program ~input (fun v ->
         let w = v.Event.v_writes in
         for i = 1 to v.Event.v_nwrites - 1 do
           if Router.shard_of_loc router w.(i) <> Router.shard_of_loc router w.(0)
           then split := true
         done));
  !split

module Prop (D : Taint.DOMAIN) = struct
  module SE = Shard_engine.Make (D)

  (* Everything observable about a merged run, with its sinks one by
     one in step order: the sink, its taint and every field of its
     event, so a sink event decoded wrong (a lane, an implied next pc)
     shows even where the taint does not.  Taint values are compared
     structurally: the exchange ships representations verbatim and the
     home shard replays the exact sequential join order, so
     representations (not just abstract values) must coincide. *)
  let key (m : SE.merged) sinks =
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

  (* The oracle: a solo worker driven by the machine. *)
  let solo policy program ~input =
    let w = SE.solo ~policy ~record_sinks:false program in
    let sinks = ref [] in
    SE.E.on_sink (SE.engine w) (fun sink taint e ->
        sinks := (sink, taint, e) :: !sinks);
    ignore (run_machine program ~input (SE.transfer w));
    key (SE.merge [| w |]) (List.rev !sinks)

  (* A cluster fed the machine's views, as the runtimes feed it; its
     key and the events that crossed shards. *)
  let sharded policy wire shards (queue_capacity, batch_size) program
      ~input =
    let c =
      SE.cluster ~policy ~wire ~shards ~queue_capacity ~batch_size
        ~xchg_capacity:4 program
    in
    SE.record_sink_events c;
    SE.start c;
    (match run_machine program ~input (SE.feed_view c) with
    | _ -> ()
    | exception ex ->
        SE.abort c;
        ignore (SE.finish_result c);
        raise ex);
    match SE.finish_result c with
    | Ok m ->
        ( key m
            (List.map (fun (_, sink, taint, e) -> (sink, taint, Option.get e))
               m.SE.m_sinks),
          SE.cross_events c )
    | Error f -> raise f.Shard_engine.f_primary

  (* Every configuration of the grid agrees with the solo worker on
     [program]: under each of [policies], shards {1, 2, 4} x
     geometries x both wires, and, with [full], [Policy.full] (which
     only one shard runs) on the geometries x both wires. *)
  let agree ?tally ~policies ~full program ~input =
    let crossed = Array.make 5 false in
    let grid policy shard_counts =
      let reference = solo policy program ~input in
      List.for_all
        (fun wire ->
          List.for_all
            (fun shards ->
              List.for_all
                (fun geometry ->
                  let k, cross =
                    sharded policy wire shards geometry program ~input
                  in
                  if cross > 0 then crossed.(shards) <- true;
                  k = reference)
                geometries)
            shard_counts)
        [ `Coded; `Boxed ]
    in
    let ok =
      List.for_all (fun policy -> grid policy [ 1; 2; 4 ]) policies
      && ((not full) || grid Policy.full [ 1 ])
    in
    Option.iter
      (fun t ->
        t.cases <- t.cases + 1;
        if crossed.(2) then t.cross2 <- t.cross2 + 1;
        if crossed.(4) then t.cross4 <- t.cross4 + 1)
      tally;
    ok
end

module Bool_prop = Prop (Taint.Bool)
module Pc_prop = Prop (Taint.Pc)
module Set_prop = Prop (Taint.Input_set)

(* {!Test_props.prog_gen}'s programs (memory cells over five blocks,
   calls into a generated callee, so memory and register frames both
   spread over the shards), extended: after its generated body, [main]
   spawns a generated [worker] on one of its registers and joins it.
   The argument is tainted whenever that register is, and always when
   [main] first reads an input into it (three cases in four).  The worker
   writes its r0 out first.  A spawn writes the spawner's tid register
   and the child's r0, two frames that often live on two shards, so
   the home shard ships the child's r0 taint to its owner: the
   exchange's receiver leg. *)
let spawn_prog_gen =
  QCheck2.Gen.(
    triple Test_props.prog_gen
      (pair (0 -- 5) (frequencyl [ (3, true); (1, false) ]))
      (list_size (0 -- 4) (Test_props.op_gen ~calls:false 1)))

let build_spawning ((ops, callee), (arg, read_first), worker) =
  let reg x = Operand.reg (Reg.make x) and tid = Reg.make 9 in
  Program.make
    [
      Builder.define ~name:"main" ~arity:0 (fun b ->
          List.iter (Test_props.emit b) ops;
          if read_first then Builder.read b (Reg.make arg);
          Builder.spawn b tid "worker" (reg arg);
          Builder.join b (Operand.reg tid);
          Builder.write b (reg 0);
          Builder.halt b);
      Test_props.define_callee callee;
      Builder.define ~name:"worker" ~arity:1 (fun b ->
          Builder.write b (reg 0);
          List.iter (Test_props.emit b) worker;
          Builder.ret b None);
    ]

let pp_program ppf case = Program.pp ppf (build_spawning case)

(* A property over {!spawn_prog_gen}'s programs that fails unless some
   case crosses shards at 2 and at 4 shards and some case writes on
   two shards.  The shares of cases that do are printed. *)
let program_property ~count name agree =
  let tally = { cases = 0; cross2 = 0; cross4 = 0; split_writes = 0 } in
  let test =
    QCheck2.Test.make ~count ~name ~print:(Fmt.str "%a" pp_program)
      spawn_prog_gen (fun case ->
        let program = build_spawning case
        and input = Test_props.inputs_for () in
        if writes_split program ~input then
          tally.split_writes <- tally.split_writes + 1;
        agree tally program ~input)
  in
  let name, speed, run = Qcheck_run.to_alcotest test in
  ( name,
    speed,
    fun () ->
      run ();
      Fmt.pr
        "%d cases: %d cross shards at 2 shards, %d at 4; %d write on two \
         shards@."
        tally.cases tally.cross2 tally.cross4 tally.split_writes;
      check Alcotest.bool "some case crosses at 2 shards" true
        (tally.cross2 > 0);
      check Alcotest.bool "some case crosses at 4 shards" true
        (tally.cross4 > 0);
      check Alcotest.bool "some case writes on two shards" true
        (tally.split_writes > 0) )

(* The call-dense kernels at random sizes and seeds: every activation
   a fresh register frame, so frames round-robin over the shards. *)
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
    ~name:"sharded(4) ≡ sharded(2) ≡ sharded(1) ≡ solo (call-dense kernels)"
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
    program_property ~count:6
      "sharded(4) ≡ sharded(2) ≡ sharded(1) ≡ solo (generated programs, Bool)"
      (fun tally ->
        Bool_prop.agree ~tally ~policies:[ Policy.default ] ~full:true);
    program_property ~count:6
      "sharded(4) ≡ sharded(2) ≡ sharded(1) ≡ solo (generated programs, Pc \
       and Input_set)"
      (fun tally program ~input ->
        Pc_prop.agree ~tally ~policies:[ Policy.default ] ~full:false program
          ~input
        && Set_prop.agree ~policies:[ Policy.default ] ~full:false program
             ~input);
    program_property ~count:6
      "sharded ≡ sequential, security policy (generated programs, Bool and Pc)"
      (fun tally program ~input ->
        Bool_prop.agree ~tally ~policies:[ Policy.security ] ~full:false
          program ~input
        && Pc_prop.agree ~policies:[ Policy.security ] ~full:false program
             ~input);
    Qcheck_run.to_alcotest kernel_property;
  ]

let suite =
  [
    Alcotest.test_case "sharded ≡ inline on all kernels (1/2/4 shards)"
      `Quick test_equivalence_all_kernels;
    Alcotest.test_case "sharded ≡ two-domain run" `Quick
      test_agrees_with_two_domain_run;
    Alcotest.test_case "security policy survives sharding" `Quick
      test_security_policy;
    Alcotest.test_case "control policy: rejected exact, correct at one shard"
      `Quick test_control_policy;
    Alcotest.test_case "one shard ≡ two-domain run (wires, filter)"
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
