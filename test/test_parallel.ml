(* The real two-domain runtime computes exactly what the sequential
   engine computes: same sink hits, same sink order, same final shadow
   state — on every kernel, across queue/batch shapes.  Plus unit
   coverage of the SPSC channel itself (ordering, blocking, shutdown,
   abort) and helper-side exception propagation. *)

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

(* -- the forwarding channel ------------------------------------------- *)

let test_spsc_order () =
  let q = Spsc.create ~capacity:4 () in
  let n = 10_000 in
  let consumer =
    Domain.spawn (fun () ->
        let rec loop acc =
          match Spsc.pop q with
          | None -> List.rev acc
          | Some x -> loop (x :: acc)
        in
        loop [])
  in
  for i = 1 to n do
    Spsc.push q i
  done;
  Spsc.close q;
  let received = Domain.join consumer in
  check Alcotest.int "all elements" n (List.length received);
  check Alcotest.bool "FIFO order" true
    (List.for_all2 ( = ) received (List.init n (fun i -> i + 1)))

let test_spsc_backpressure () =
  let q = Spsc.create ~capacity:2 () in
  (* a slow consumer forces the producer to park *)
  let consumer =
    Domain.spawn (fun () ->
        let rec loop n =
          match Spsc.pop q with
          | None -> n
          | Some _ ->
              if n < 4 then Unix.sleepf 0.002;
              loop (n + 1)
        in
        loop 0)
  in
  for i = 1 to 64 do
    Spsc.push q i
  done;
  Spsc.close q;
  let popped = Domain.join consumer in
  check Alcotest.int "consumer saw everything" 64 popped;
  check Alcotest.bool "producer stalled at least once" true
    (Spsc.producer_stalls q > 0)

let test_spsc_close_drains () =
  let q = Spsc.create ~capacity:8 () in
  Spsc.push q 1;
  Spsc.push q 2;
  Spsc.close q;
  check Alcotest.(option int) "first" (Some 1) (Spsc.pop q);
  check Alcotest.(option int) "second" (Some 2) (Spsc.pop q);
  check Alcotest.(option int) "then end of stream" None (Spsc.pop q);
  check Alcotest.bool "push after close rejected" true
    (match Spsc.push q 3 with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_spsc_abort_unblocks_producer () =
  let q = Spsc.create ~capacity:1 () in
  Spsc.push q 0;
  (* the ring is now full; a second push would block forever without
     the abort coming from another domain *)
  let aborter =
    Domain.spawn (fun () ->
        Unix.sleepf 0.005;
        Spsc.abort q)
  in
  Spsc.push q 1;
  (* non-blocking now: aborted pushes are dropped *)
  Spsc.push q 2;
  Domain.join aborter;
  check Alcotest.bool "drops counted" true (Spsc.dropped q >= 1);
  check Alcotest.(option int) "aborted channel reads empty" None
    (Spsc.pop q)

(* -- parallel vs sequential equivalence ------------------------------- *)

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

(* -- run_inline against an independent reference ----------------------- *)

(* Every equivalence test compares a runtime against [run_inline], so
   [run_inline] itself is checked here against a reference assembled
   by hand: a bare engine attached to a machine, a local fold of the
   sink-trace hash and a local fold of the final shadow's entry
   hashes. *)
module Ref_engine = Engine.Make (Taint.Bool)

let reference ?policy program ~input =
  let eng = Ref_engine.create ?policy program in
  let sink_trace = ref 0 and sinks = ref [] in
  Ref_engine.on_sink_view eng (fun sink taint v ->
      let step = v.Event.v_step in
      sink_trace :=
        !sink_trace
        + Shard_engine.sink_hash ~step sink (not (Taint.Bool.is_bottom taint));
      sinks := (step, sink, taint) :: !sinks);
  let m = Machine.create program ~input in
  Ref_engine.attach ~charge:ignore eng m;
  let outcome = Machine.run m in
  let s = Ref_engine.stats eng in
  let tainted_locations, shadow_words = Ref_engine.shadow_footprint eng in
  let fingerprint =
    Ref_engine.Sh.fold
      (fun loc d acc -> acc + Shard_engine.entry_hash loc (Bool.to_int d))
      (Ref_engine.shadow eng) 0
  in
  ( {
      Parallel.outcome;
      events = s.Engine.events;
      sources = s.Engine.sources;
      sink_hits = s.Engine.sink_hits;
      sink_trace_hash = !sink_trace;
      tainted_locations;
      shadow_words;
      taint_fingerprint = fingerprint;
    },
    List.rev !sinks )

let test_inline_against_reference () =
  let server = Server_sim.program ~workers:2 () in
  let server_input =
    (Server_sim.generate ~requests:30 ~seed:5 ()).Server_sim.input
  in
  let cases =
    List.map
      (fun (w : Workload.t) ->
        (w.Workload.name, w.Workload.program, w.Workload.input ~size:20 ~seed:7))
      Spec_like.all
    @ [ ("server", server, server_input) ]
  in
  List.iter
    (fun (pname, policy) ->
      List.iter
        (fun (name, program, input) ->
          let label = Fmt.str "%s/%s" name pname in
          let expected, expected_sinks = reference ~policy program ~input in
          let streamed = ref [] in
          let inline =
            Parallel.run_inline ~policy
              ~on_sink:(fun sink taint e ->
                streamed := (e.Event.step, sink, taint) :: !streamed)
              program ~input
          in
          same_result label expected inline.Parallel.i_result;
          check Alcotest.bool
            (Fmt.str "%s: on_sink streams every sink in order" label)
            true
            (List.rev !streamed = expected_sinks))
        cases)
    [ ("default", Policy.default); ("full", Policy.full) ]

(* Forty tainted input values stored to cells 1000..1039, then one
   more to cell 1040 or 1041 as the last input says: the two runs'
   final shadows hold as many entries and differ only in their last,
   and the fingerprint must tell them apart. *)
let test_fingerprint_every_entry () =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.for_up b ~idx:Reg.r7 ~from_:(Operand.imm 0)
          ~below:(Operand.imm 40) (fun () ->
            Builder.read b Reg.r1;
            Builder.store b (Operand.reg Reg.r1) (Operand.reg Reg.r7) 1000);
        Builder.read b Reg.r2;
        Builder.store b (Operand.reg Reg.r1) (Operand.reg Reg.r2) 1040;
        Builder.halt b)
  in
  let p = Program.make [ main ] in
  let run last =
    (Parallel.run_inline p
       ~input:(Array.init 41 (fun i -> if i = 40 then last else i + 1)))
      .Parallel.i_result
  in
  let a = run 0 and b = run 1 in
  check Alcotest.int "same number of tainted locations"
    a.Parallel.tainted_locations b.Parallel.tainted_locations;
  check Alcotest.bool "the last entry changes the fingerprint" true
    (a.Parallel.taint_fingerprint <> b.Parallel.taint_fingerprint)

(* Every kernel: the helper-domain run equals the inline run. *)
let test_equivalence_all_kernels () =
  List.iter
    (fun (w : Workload.t) ->
      let input = w.Workload.input ~size:20 ~seed:7 in
      let inline = Parallel.run_inline w.Workload.program ~input in
      let par =
        ok (Parallel.run_result ~queue_capacity:8 ~batch_size:16
            w.Workload.program ~input)
      in
      same_result w.Workload.name inline.Parallel.i_result
        par.Parallel.result;
      check Alcotest.bool
        (Fmt.str "%s: events actually flowed" w.Workload.name)
        true
        (par.Parallel.batches > 0
        && par.Parallel.result.Parallel.events > 0))
    Spec_like.all

(* Deterministic, fixed-seed, small-size equivalence across channel
   shapes — the queue geometry must never change the answer. *)
let test_equivalence_fixed_seed_shapes () =
  let w = Spec_like.crc in
  let input = w.Workload.input ~size:10 ~seed:42 in
  let config = { Machine.default_config with seed = 42 } in
  let inline = Parallel.run_inline ~config w.Workload.program ~input in
  List.iter
    (fun (queue_capacity, batch_size) ->
      let par =
        ok (Parallel.run_result ~config ~queue_capacity ~batch_size
            w.Workload.program ~input)
      in
      same_result
        (Fmt.str "crc q=%d b=%d" queue_capacity batch_size)
        inline.Parallel.i_result par.Parallel.result)
    [ (1, 1); (2, 8); (64, 64); (1024, 256) ]

(* The security policy (pointer flows) must survive the domain hop
   identically too. *)
let test_equivalence_security_policy () =
  let w = Spec_like.bfs in
  let input = w.Workload.input ~size:16 ~seed:3 in
  let policy = Policy.security in
  let inline = Parallel.run_inline ~policy w.Workload.program ~input in
  let par = ok (Parallel.run_result ~policy w.Workload.program ~input) in
  same_result "bfs/security" inline.Parallel.i_result par.Parallel.result

(* A tiny ring forces backpressure; the result is still identical and
   the stalls are visible in the report. *)
let test_backpressure_accounting () =
  let w = Spec_like.matmul in
  let input = w.Workload.input ~size:14 ~seed:2 in
  let inline = Parallel.run_inline w.Workload.program ~input in
  let par =
    ok (Parallel.run_result ~queue_capacity:1 ~batch_size:1 w.Workload.program
        ~input)
  in
  same_result "matmul tiny-queue" inline.Parallel.i_result
    par.Parallel.result;
  check Alcotest.int "one event per batch"
    par.Parallel.result.Parallel.events par.Parallel.batches;
  check Alcotest.bool "some backpressure or waiting happened" true
    (par.Parallel.producer_stalls > 0 || par.Parallel.consumer_waits >= 0)

(* Whether the run left a [run.error] marker on any flight ring. *)
let recorded_run_error flight =
  List.exists
    (fun (t : Dift_obs.Flight.tail) ->
      List.exists
        (fun (e : Dift_obs.Flight.entry) ->
          e.Dift_obs.Flight.name = "run.error")
        t.Dift_obs.Flight.t_entries)
    (Dift_obs.Flight.tails flight)

(* A helper that dies under backpressure must not deadlock the
   application domain, and a raising client sink callback (it runs on
   the calling domain, after the join) must not escape: both come back
   as structured errors naming their leg. *)
exception Helper_boom

let test_helper_exception_propagates () =
  let w = Spec_like.sieve in
  let input = w.Workload.input ~size:20 ~seed:1 in
  let run ?chaos ?on_sink () =
    let flight = Dift_obs.Flight.create () in
    ( Parallel.run_result ~flight ?chaos ?on_sink ~queue_capacity:2
        ~batch_size:4 w.Workload.program ~input,
      flight )
  in
  let crash =
    match Chaos.plan_of_string "pop@3=crash" with
    | Ok p -> Chaos.create p
    | Error e -> Alcotest.failf "bad plan: %s" e
  in
  (match run ~chaos:crash () with
  | Ok _, _ -> Alcotest.fail "an injected helper crash must fail the run"
  | Error e, flight ->
      check Alcotest.bool "helper leg" true (e.Parallel.e_leg = `Helper);
      check Alcotest.bool "run.error recorded" true
        (recorded_run_error flight));
  match run ~on_sink:(fun _ _ _ -> raise Helper_boom) () with
  | Ok _, _ -> Alcotest.fail "a raising on_sink must fail the run"
  | Error e, flight ->
      check Alcotest.bool "application leg" true (e.Parallel.e_leg = `App);
      check Alcotest.bool "the callback's exception" true
        (e.Parallel.e_exn = Helper_boom);
      check Alcotest.bool "run.error recorded" true (recorded_run_error flight)

(* A transient client-callback failure under [~degrade] is the
   application's: the run returns an error, or (never a different
   answer) a result equal to the inline run's.  A callback used to run
   on the helper, where its failure degraded the run and the replay
   processed part of a batch twice. *)
let test_transient_on_sink_under_degrade () =
  List.iter
    (fun (name, size, seed) ->
      let w = Spec_like.by_name name in
      let input = w.Workload.input ~size ~seed in
      let inline = Parallel.run_inline w.Workload.program ~input in
      List.iter
        (fun fail_at ->
          let on_sink () =
            let calls = ref 0 in
            fun _ _ _ ->
              incr calls;
              if !calls = fail_at then failwith "transient on_sink failure"
          in
          let agree what = function
            | Error e ->
                check Alcotest.bool (what ^ ": application leg") true
                  (e.Parallel.e_leg = `App)
            | Ok r ->
                same_result
                  (Fmt.str "%s %s, failing call %d" name what fail_at)
                  inline.Parallel.i_result r
          in
          agree "two-domain"
            (Result.map
               (fun r -> r.Parallel.result)
               (Parallel.run_result ~degrade:`Inline ~queue_capacity:4
                  ~batch_size:64 ~on_sink:(on_sink ()) w.Workload.program
                  ~input));
          agree "sharded(2)"
            (Result.map
               (fun r -> r.Parallel.s_result)
               (Parallel.run_sharded_result ~degrade:`Inline ~shards:2
                  ~on_sink:(on_sink ()) w.Workload.program ~input)))
        [ 1; 5 ])
    [ ("crc", 40, 3); ("treesum", 40, 3) ]

let suite =
  [
    Alcotest.test_case "spsc order" `Quick test_spsc_order;
    Alcotest.test_case "spsc backpressure" `Quick test_spsc_backpressure;
    Alcotest.test_case "spsc close drains" `Quick test_spsc_close_drains;
    Alcotest.test_case "spsc abort unblocks producer" `Quick
      test_spsc_abort_unblocks_producer;
    Alcotest.test_case "taint fingerprint reads every entry" `Quick
      test_fingerprint_every_entry;
    Alcotest.test_case "inline ≡ hand-built reference" `Quick
      test_inline_against_reference;
    Alcotest.test_case "parallel ≡ inline on all kernels" `Quick
      test_equivalence_all_kernels;
    Alcotest.test_case "parallel ≡ inline, fixed seed, channel shapes"
      `Quick test_equivalence_fixed_seed_shapes;
    Alcotest.test_case "parallel ≡ inline under security policy" `Quick
      test_equivalence_security_policy;
    Alcotest.test_case "backpressure accounted" `Quick
      test_backpressure_accounting;
    Alcotest.test_case "helper exception propagates" `Quick
      test_helper_exception_propagates;
    Alcotest.test_case "transient on_sink failure under degrade" `Quick
      test_transient_on_sink_under_degrade;
  ]
