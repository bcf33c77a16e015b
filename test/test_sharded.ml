(* The sharded N-helper runtime computes exactly what the sequential
   engine computes — same sink trace, same stats, same final shadow —
   for every workload kernel at 1, 2 and 4 shards, on both cross-shard
   routes, and (as a QCheck property) for random event streams that
   force cross-shard source/dest splits, in all three taint domains.
   Plus the regression test for channel-geometry validation. *)

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

(* Broadcast replication: same answer, every policy allowed. *)
let test_broadcast_route () =
  List.iter
    (fun (w : Workload.t) ->
      let input = w.Workload.input ~size:12 ~seed:9 in
      let inline = Parallel.run_inline w.Workload.program ~input in
      let rep =
        ok (Parallel.run_sharded_result ~route:`Broadcast ~shards:3
            w.Workload.program ~input)
      in
      same_result
        (Fmt.str "%s/broadcast" w.Workload.name)
        inline.Parallel.i_result rep.Parallel.s_result)
    [ Spec_like.crc; Spec_like.qsort ]

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

(* Control-flow taint entangles all events through per-thread state:
   the exact route must refuse it, the broadcast route must get it
   right. *)
let test_control_policy () =
  let w = Spec_like.search in
  let input = w.Workload.input ~size:10 ~seed:2 in
  let policy = Policy.full in
  check Alcotest.bool "request-reply rejects propagate_control" true
    (match
       ok (Parallel.run_sharded_result ~policy ~shards:2 w.Workload.program
           ~input)
     with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let inline = Parallel.run_inline ~policy w.Workload.program ~input in
  let rep =
    ok (Parallel.run_sharded_result ~policy ~route:`Broadcast ~shards:2
        w.Workload.program ~input)
  in
  same_result "search/full broadcast" inline.Parallel.i_result
    rep.Parallel.s_result

(* -- one shard is the two-domain runtime -------------------------------- *)

(* [run_result] and [run_sharded_result ~shards:1] are one runtime: on
   every kernel, both routes, both wires, filter off and on, the same
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
        (fun (route, wire, forward_filter) ->
          let name =
            Fmt.str "%s/%a/%a/filter=%b" w.Workload.name Shard_engine.pp_route
              route Channel.pp_wire wire forward_filter
          in
          let two =
            ok
              (Parallel.run_result ~wire ~forward_filter ~queue_capacity:4
                 ~batch_size w.Workload.program ~input)
          in
          let one =
            ok
              (Parallel.run_sharded_result ~route ~wire ~forward_filter
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
          (`Request_reply, `Coded, false);
          (`Request_reply, `Boxed, true);
          (`Broadcast, `Coded, true);
          (`Broadcast, `Boxed, false);
          (`Request_reply, `Coded, true);
          (`Request_reply, `Boxed, false);
          (`Broadcast, `Coded, false);
          (`Broadcast, `Boxed, true);
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
    match Chaos.plan_of_string "pop@2=raise" with
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

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

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

(* -- QCheck: random streams, sharded(N) ≡ sharded(1) ≡ sequential ---- *)

(* A synthetic one-function program: stream events only need a [func]
   to name their site; no machine ever runs it. *)
let stream_prog =
  Program.make [ Func.make ~name:"main" ~arity:0 [| Instr.Halt |] ]

let stream_func = Program.find stream_prog "main"

(* Locations spanning several 64-location blocks in both planes, so
   independently drawn reads/writes frequently split across shards —
   the property is vacuous without cross-shard events. *)
let loc_gen =
  QCheck2.Gen.(
    oneof
      [
        map Loc.mem (int_bound 300);
        map2
          (fun frame r -> Loc.reg ~frame (Reg.make r))
          (int_bound 5)
          (int_bound (Reg.count - 1));
      ])

(* Abstract stream operations, lowered to Event.exec records with
   sequential step numbers. *)
type sop =
  | SRead of Loc.t
  | SMov of Loc.t * Loc.t
  | SAdd of Loc.t * Loc.t * Loc.t
  | SLoad of Loc.t * Loc.t * Loc.t  (* dst, mem source, address reg *)
  | SStore of Loc.t * Loc.t * Loc.t  (* mem dst, value source, address reg *)
  | SOut of Loc.t
  | SBr of Loc.t
  | SCheck of Loc.t
  | SNop

let pp_sop ppf = function
  | SRead l -> Fmt.pf ppf "read>%d" l
  | SMov (s, d) -> Fmt.pf ppf "mov %d>%d" s d
  | SAdd (a, b, d) -> Fmt.pf ppf "add %d,%d>%d" a b d
  | SLoad (d, m, a) -> Fmt.pf ppf "load %d@%d>%d" m a d
  | SStore (d, v, a) -> Fmt.pf ppf "store %d@%d>%d" v a d
  | SOut l -> Fmt.pf ppf "out<%d" l
  | SBr l -> Fmt.pf ppf "br<%d" l
  | SCheck l -> Fmt.pf ppf "check<%d" l
  | SNop -> Fmt.pf ppf "nop"

let sop_gen =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun l -> SRead l) loc_gen);
        (3, map2 (fun s d -> SMov (s, d)) loc_gen loc_gen);
        (3, map3 (fun a b d -> SAdd (a, b, d)) loc_gen loc_gen loc_gen);
        (2, map3 (fun d m a -> SLoad (d, m, a)) loc_gen loc_gen loc_gen);
        (2, map3 (fun d v a -> SStore (d, v, a)) loc_gen loc_gen loc_gen);
        (1, map (fun l -> SOut l) loc_gen);
        (1, map (fun l -> SBr l) loc_gen);
        (1, map (fun l -> SCheck l) loc_gen);
        (1, return SNop);
      ])

let stream_gen = QCheck2.Gen.(list_size (int_range 1 150) sop_gen)

let event_of_sop step sop =
  let ev ?(reads = []) ?(writes = []) ?(input_index = -1) instr =
    {
      Event.step;
      tid = 0;
      func = stream_func;
      pc = step mod 23;
      instr;
      reads;
      writes;
      addr = -1;
      next_pc = 0;
      input_index;
      value = 0;
    }
  in
  match sop with
  | SRead l ->
      (* some reads hit input exhaustion (input_index = -1): no source *)
      ev ~writes:[ l ]
        ~input_index:(if step mod 5 = 0 then -1 else step)
        (Instr.Sys (Instr.Read Reg.r0))
  | SMov (s, d) ->
      ev ~reads:[ s ] ~writes:[ d ] (Instr.Mov (Reg.r0, Operand.Reg Reg.r1))
  | SAdd (a, b, d) ->
      ev ~reads:[ a; b ] ~writes:[ d ]
        (Instr.Binop (Instr.Add, Reg.r0, Operand.Reg Reg.r1, Operand.Reg Reg.r2))
  | SLoad (d, m, a) ->
      ev ~reads:[ m; a ] ~writes:[ d ]
        (Instr.Load (Reg.r0, Operand.Reg Reg.r1, 0))
  | SStore (d, v, a) ->
      ev ~reads:[ v; a ] ~writes:[ d ]
        (Instr.Store (Operand.Reg Reg.r0, Operand.Reg Reg.r1, 0))
  | SOut l -> ev ~reads:[ l ] (Instr.Sys (Instr.Write (Operand.Reg Reg.r0)))
  | SBr l -> ev ~reads:[ l ] (Instr.Br (Operand.Reg Reg.r0, 0, 0))
  | SCheck l -> ev ~reads:[ l ] (Instr.Sys (Instr.Check (Operand.Reg Reg.r0)))
  | SNop -> ev Instr.Nop

let events_of_stream ops = List.mapi event_of_sop ops

module Stream_prop (D : Taint.DOMAIN) = struct
  module SE = Shard_engine.Make (D)

  (* Everything observable about a merged run.  Taint values inside
     the sink list and the fingerprint are compared structurally: the
     exchange ships representations verbatim and the home shard
     replays the exact sequential join order, so representations (not
     just abstract values) must coincide. *)
  let key (m : SE.merged) =
    ( m.SE.m_events,
      m.SE.m_sources,
      m.SE.m_sink_hits,
      List.map
        (fun (step, sink, taint, _) ->
          (step, Engine.sink_to_string sink, taint))
        m.SE.m_sinks,
      m.SE.m_tainted_locations,
      m.SE.m_shadow_words,
      m.SE.m_fingerprint )

  let agree ?policy ops =
    let events = events_of_stream ops in
    let reference = key (SE.sequential ?policy stream_prog events) in
    List.for_all
      (fun (shards, queue_capacity, batch_size) ->
        key
          (SE.run_stream ?policy ~shards ~queue_capacity ~batch_size
             ~xchg_capacity:4 stream_prog events)
        = reference)
      [ (1, 8, 8); (2, 4, 4); (4, 2, 3) ]

  let property name =
    QCheck2.Test.make ~count:30
      ~name:(Fmt.str "sharded(4) ≡ sharded(2) ≡ sharded(1) ≡ sequential (%s)" name)
      ~print:Fmt.(str "%a" (list ~sep:(any "; ") pp_sop))
      stream_gen
      (fun ops -> agree ops)

  let property_security name =
    QCheck2.Test.make ~count:15
      ~name:(Fmt.str "sharded ≡ sequential, security policy (%s)" name)
      ~print:Fmt.(str "%a" (list ~sep:(any "; ") pp_sop))
      stream_gen
      (fun ops -> agree ~policy:Policy.security ops)
end

module Bool_prop = Stream_prop (Taint.Bool)
module Pc_prop = Stream_prop (Taint.Pc)
module Input_set_prop = Stream_prop (Taint.Input_set)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      Bool_prop.property "Bool";
      Pc_prop.property "Pc";
      Input_set_prop.property "Input_set";
      Bool_prop.property_security "Bool";
    ]

let suite =
  [
    Alcotest.test_case "sharded ≡ inline on all kernels (1/2/4 shards)"
      `Quick test_equivalence_all_kernels;
    Alcotest.test_case "sharded ≡ two-domain run" `Quick
      test_agrees_with_two_domain_run;
    Alcotest.test_case "broadcast route ≡ inline" `Quick
      test_broadcast_route;
    Alcotest.test_case "security policy survives sharding" `Quick
      test_security_policy;
    Alcotest.test_case "control policy: rejected exact, correct broadcast"
      `Quick test_control_policy;
    Alcotest.test_case "one shard ≡ two-domain run (routes, wires, filter)"
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
