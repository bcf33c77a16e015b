(* Fault-injection hardening of the parallel runtimes: every shutdown
   leg — helper crash mid-drain, application crash mid-run, abort
   racing a parked peer, a stalled or crashed exchange ring, spawn
   failure — must terminate cleanly (no deadlock, no leaked domain),
   keep coherent partial statistics, and surface a structured
   [Parallel.error] instead of a bare re-raise.  A watchdog domain
   turns any wedged scenario into a hard process abort so a deadlock
   is a loud test failure, not a hung CI job.

   Also the accounting regression tests: [batches] in
   [Channel.counts] counts only delivered batches (post-abort pushes land in
   [dropped_batches]/[dropped_events], so the books reconcile), and
   the Spsc shutdown edges (final element racing close, abort against
   a parked peer) under QCheck. *)

open Dift_isa
open Dift_vm
open Dift_workloads
open Dift_parallel

let check = Alcotest.check

(* -- watchdog: a wedged fault scenario must kill the process ---------- *)

let with_watchdog ?(timeout_s = 60.) f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let steps = int_of_float (timeout_s /. 0.05) in
        let rec loop i =
          if Atomic.get finished then ()
          else if i >= steps then begin
            prerr_endline
              "watchdog: fault-injection scenario deadlocked; aborting";
            Unix._exit 125
          end
          else begin
            Unix.sleepf 0.05;
            loop (i + 1)
          end
        in
        loop 0)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join dog)
    f

(* -- helpers ----------------------------------------------------------- *)

let plan s =
  match Chaos.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad test plan %S: %s" s e

let chaos s = Chaos.create (plan s)

let kernel name =
  match List.find_opt (fun w -> w.Workload.name = name) Spec_like.all with
  | Some w -> w
  | None -> Alcotest.failf "kernel %s missing" name

let injected = function Chaos.Injected _ -> true | _ -> false

let same_result name (a : Parallel.result) (b : Parallel.result) =
  check Alcotest.int (name ^ ": events") a.Parallel.events b.Parallel.events;
  check Alcotest.int (name ^ ": sink hits") a.Parallel.sink_hits
    b.Parallel.sink_hits;
  check Alcotest.int
    (name ^ ": sink trace hash")
    a.Parallel.sink_trace_hash b.Parallel.sink_trace_hash;
  check Alcotest.int
    (name ^ ": fingerprint")
    a.Parallel.taint_fingerprint b.Parallel.taint_fingerprint

(* -- plan grammar ------------------------------------------------------ *)

let test_plan_roundtrip () =
  (* seeded plans round-trip through the string grammar, so any red
     sweep seed is replayable as a --fault-plan flag *)
  for seed = 0 to 99 do
    let p = Chaos.plan_of_seed seed in
    match Chaos.plan_of_string (Chaos.plan_to_string p) with
    | Ok p' ->
        check Alcotest.bool (Fmt.str "seed %d round-trips" seed) true
          (p = p')
    | Error e -> Alcotest.failf "seed %d: %s" seed e
  done;
  (* same seed, same plan *)
  check Alcotest.bool "deterministic" true
    (Chaos.plan_of_seed 42 = Chaos.plan_of_seed 42);
  (* explicit grammar corners *)
  (match Chaos.plan_of_string "parallel.shard1/pop@2=crash;push@1=stall:50" with
  | Ok [ r1; r2 ] ->
      check Alcotest.bool "where parsed" true
        (r1.Chaos.where = Some "parallel.shard1");
      check Alcotest.bool "stall parsed" true
        (r2.Chaos.fault = Chaos.Stall 50)
  | _ -> Alcotest.fail "two-rule plan must parse");
  let rejected bad =
    match Chaos.plan_of_string bad with
    | Error e -> e
    | Ok _ -> Alcotest.failf "%S must be rejected" bad
  in
  let names e word =
    List.exists
      (fun i -> String.sub e i (String.length word) = word)
      (List.init (max 0 (String.length e - String.length word + 1)) Fun.id)
  in
  List.iter
    (fun bad -> ignore (rejected bad))
    [ ""; "push@0=crash"; "push@x=crash"; "push@1=warp"; "frob@1=crash";
      "push@1=stall:-5"; "push@1" ];
  (* [delay:], [drop], [abort] and [raise] are no faults; the error
     names the ones there are *)
  List.iter
    (fun (bad, word) ->
      check Alcotest.bool
        (Fmt.str "the error for %S names %s" bad word)
        true
        (names (rejected bad) word))
    [ ("push@1=delay:5", "stall:"); ("push@1=drop", "crash");
      ("pop@2=abort", "crash"); ("pop@1=raise", "crash") ];
  (* a [where] must be a prefix of some channel namespace: [parallel],
     [parallel.shard<i>] or [xchg.<src>.<dst>]; a misspelt or retired
     one would never fire *)
  List.iter
    (fun w ->
      match Chaos.plan_of_string (w ^ "/pop@2=crash") with
      | Ok [ r ] ->
          check Alcotest.bool (w ^ " parsed") true (r.Chaos.where = Some w)
      | _ -> Alcotest.failf "%S names a channel" w)
    [ ""; "p"; "parallel"; "parallel."; "parallel.sh"; "parallel.shard";
      "parallel.shard1"; "parallel.shard12"; "xc"; "xchg"; "xchg.";
      "xchg.0"; "xchg.0."; "xchg.0.1"; "xchg.10.11" ];
  List.iter
    (fun w ->
      check Alcotest.bool
        (Fmt.str "%S names no channel" w)
        true
        (names (rejected (w ^ "/pop@2=crash")) "names no channel"))
    [ "paralel"; "parallel7"; "parallel.shard1x"; "parallel.s1";
      "parallel.shard1.x"; "ring.parallel"; "ring"; "xchg.a";
      "xchg..1"; "xchg.0.1.2"; "xchg.0.x"; "shard1" ]

(* -- two-domain runtime: every leg ------------------------------------ *)

let run_crc ?obs ?chaos ?degrade ?wire ?(queue_capacity = 4)
    ?(batch_size = 8) () =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:12 ~seed:3 in
  Parallel.run_result ?obs ?chaos ?degrade ?wire ~queue_capacity ~batch_size
    w.Workload.program ~input

let inline_of name ~size =
  let w = kernel name in
  (Parallel.run_inline w.Workload.program
     ~input:(w.Workload.input ~size ~seed:3))
    .Parallel.i_result

let gauge reg name =
  match Dift_obs.Registry.(find (snapshot reg) name) with
  | Some (Dift_obs.Registry.Gauge_v v) -> v
  | _ -> Alcotest.failf "gauge %s missing" name

let test_helper_crash_mid_drain () =
  with_watchdog @@ fun () ->
  match run_crc ~chaos:(chaos "pop@2=crash") () with
  | Ok _ -> Alcotest.fail "injected helper crash must surface"
  | Error e ->
      check Alcotest.bool "helper leg" true (e.Parallel.e_leg = `Helper);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn);
      (* partial accounting stays coherent: everything fed was either
         delivered or counted as dropped *)
      let p = e.Parallel.e_partial in
      check Alcotest.bool "events fed" true (p.Parallel.p_events > 0);
      check Alcotest.bool "batches delivered before the crash" true
        (p.Parallel.p_batches >= 1)

let test_app_crash_mid_run () =
  with_watchdog @@ fun () ->
  (* the injected push failure raises on the application domain, from
     inside the forwarding tool *)
  match run_crc ~chaos:(chaos "push@3=crash") () with
  | Ok _ -> Alcotest.fail "injected app crash must surface"
  | Error e ->
      check Alcotest.bool "app leg" true (e.Parallel.e_leg = `App);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn);
      check Alcotest.bool "crashing batch accounted as dropped" true
        (e.Parallel.e_partial.Parallel.p_dropped_batches >= 1)

let test_abort_at_step_n () =
  with_watchdog @@ fun () ->
  (* an injected crash on the application's second push fails the
     application leg, and the books still reconcile exactly
     (batch_size=1: one event per batch) *)
  let reg = Dift_obs.Registry.create () in
  match run_crc ~obs:reg ~chaos:(chaos "push@2=crash") ~batch_size:1 () with
  | Ok _ -> Alcotest.fail "an injected push crash must fail the run"
  | Error e ->
      check Alcotest.bool "app leg" true (e.Parallel.e_leg = `App);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn);
      let p = e.Parallel.e_partial in
      check Alcotest.int "the crashing push is the one dropped batch" 1
        p.Parallel.p_dropped_batches;
      check Alcotest.int "one event per dropped batch"
        p.Parallel.p_dropped_batches p.Parallel.p_dropped_events;
      (* regression (in-flight accounting): batches sitting in the ring
         when the abort landed used to vanish uncounted; the drain
         sweeps them into the discarded ledger, so the delivered count
         reconciles exactly against consumed + discarded with nothing
         left in flight once the helper has joined *)
      let consumed = gauge reg "parallel.forwarder.consumed_batches" in
      let discarded = gauge reg "parallel.forwarder.discarded_batches" in
      check Alcotest.int "nothing in flight after the join" 0
        (gauge reg "parallel.ring.in_flight_batches");
      check Alcotest.int "delivered = consumed + discarded"
        p.Parallel.p_batches (consumed + discarded)

let test_consumer_give_up () =
  with_watchdog @@ fun () ->
  (* an injected crash at the helper's second pop gives the helper
     up; the producer must never wedge against the dead consumer *)
  match run_crc ~chaos:(chaos "pop@2=crash") ~batch_size:1 () with
  | Ok _ -> Alcotest.fail "an injected consumer crash must fail the run"
  | Error e ->
      check Alcotest.bool "helper leg" true (e.Parallel.e_leg = `Helper);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn);
      check Alcotest.bool "subsequent pushes dropped and counted" true
        (e.Parallel.e_partial.Parallel.p_dropped_batches > 0)

let test_pop_drop_discards () =
  with_watchdog @@ fun () ->
  (* a batch popped but never processed would leave the helper's
     result short of inline's: a crash at the first pop books the
     batch in hand as discarded, and a degraded run completes it
     bit-identical *)
  let reg = Dift_obs.Registry.create () in
  (match run_crc ~obs:reg ~chaos:(chaos "pop@1=crash") ~batch_size:1 () with
  | Ok _ -> Alcotest.fail "an injected pop crash must fail the run"
  | Error e ->
      check Alcotest.bool "helper leg" true (e.Parallel.e_leg = `Helper);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn);
      check Alcotest.bool "the dropped batch is discarded" true
        (gauge reg "parallel.forwarder.discarded_batches" >= 1));
  match
    run_crc ~chaos:(chaos "pop@1=crash") ~degrade:`Inline ~batch_size:1 ()
  with
  | Error e ->
      Alcotest.failf "degraded run must complete: %a" Parallel.pp_error e
  | Ok r ->
      check Alcotest.bool "flagged degraded" true (r.Parallel.degraded <> None);
      same_result "degraded pop crash" (inline_of "crc" ~size:12)
        r.Parallel.result

let test_stall_delay_bit_identical () =
  with_watchdog @@ fun () ->
  (* stalls before a push and right after a pop perturb timing only:
     the result must be bit-identical to inline's, on both wires.  A
     pop stall sleeps with the batch just taken in hand, so the
     producer runs ahead while the consumer holds it; on a one-slot
     ring with one event per batch the producer reopens a shipped
     batch as soon as the reuse rule lets it, and a rule that reopened
     a batch once it was popped, rather than once the one after it
     was, would overwrite the batch in hand. *)
  let reference = inline_of "crc" ~size:12 in
  let plan_s =
    "push@1=stall:2000000;pop@2=stall:1000000;pop@5=stall:1000000;\
     pop@9=stall:1000000"
  in
  List.iter
    (fun (wire, queue_capacity, batch_size) ->
      let name =
        Fmt.str "%a wire, %d × %d" Channel.pp_wire wire queue_capacity
          batch_size
      in
      match
        run_crc ~chaos:(chaos plan_s) ~wire ~queue_capacity ~batch_size ()
      with
      | Error e ->
          Alcotest.failf "%s: stall plan failed: %a" name Parallel.pp_error e
      | Ok r ->
          same_result name reference r.Parallel.result;
          check Alcotest.int (name ^ ": no drops") 0
            r.Parallel.dropped_batches)
    [ (`Coded, 4, 8); (`Boxed, 4, 8); (`Coded, 1, 1); (`Boxed, 1, 1) ]

let test_spawn_failure_two_domain () =
  with_watchdog @@ fun () ->
  match run_crc ~chaos:(chaos "spawn@1=crash") () with
  | Ok _ -> Alcotest.fail "spawn failure must surface"
  | Error e ->
      check Alcotest.bool "spawn leg" true (e.Parallel.e_leg = `Spawn);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn);
      check Alcotest.int "nothing fed" 0 e.Parallel.e_partial.Parallel.p_events

(* -- sharded runtime: shard crash, spawn failure ----------------------- *)

let run_sharded_crc ?chaos () =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:12 ~seed:3 in
  Parallel.run_sharded_result ?chaos ~queue_capacity:4 ~batch_size:1
    ~shards:3 w.Workload.program ~input

let test_shard_crash_request_reply () =
  with_watchdog @@ fun () ->
  (* shard 1's first pop raises: its failure must be attributed, the
     other shards must terminate (cascade or clean), nothing wedges *)
  match run_sharded_crc ~chaos:(chaos "parallel.shard1/pop@1=crash") () with
  | Ok _ -> Alcotest.fail "injected shard crash must surface"
  | Error e ->
      check Alcotest.bool "shard 1 blamed" true (e.Parallel.e_leg = `Shard 1);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn)

let test_spawn_failure_sharded () =
  with_watchdog @@ fun () ->
  (* the second of three spawns fails: the first shard is already
     running and must be joined, not leaked *)
  match run_sharded_crc ~chaos:(chaos "spawn@2=crash") () with
  | Ok _ -> Alcotest.fail "sharded spawn failure must surface"
  | Error e ->
      check Alcotest.bool "spawn leg" true (e.Parallel.e_leg = `Spawn);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn)

(* -- exchange-mesh faults --------------------------------------------- *)

(* A small real program whose taint crosses shards every iteration:
   with the default 64-location blocks and 2 shards, [mem 0] lives on
   shard 0 and [mem 64] on shard 1, and each iteration reads an input,
   stores it to [mem 0], moves it to [mem 64] and writes it out from
   there, so the store to [mem 64] and the load back from it cross
   shards whichever shard owns the register frame. *)
let cross_prog =
  let r = Reg.make and imm = Operand.imm and reg x = Operand.reg (Reg.make x) in
  Program.make
    [
      Builder.define ~name:"main" ~arity:0 (fun b ->
          Builder.for_up b ~idx:(r 7) ~from_:(imm 0) ~below:(imm 8) (fun () ->
              Builder.read b (r 1);
              Builder.store b (reg 1) (imm 0) 0;
              Builder.load b (r 2) (imm 0) 0;
              Builder.store b (reg 2) (imm 64) 0;
              Builder.load b (r 3) (imm 64) 0;
              Builder.write b (reg 3));
          Builder.halt b);
    ]

module SE = Shard_engine.Make (Dift_core.Taint.Bool)

let run_cross ?chaos () =
  let c =
    SE.cluster
      ?probe:(Option.map (fun chaos -> Probe.make ~chaos ()) chaos)
      ~queue_capacity:4 ~batch_size:1 ~xchg_capacity:4 ~shards:2 cross_prog
  in
  SE.start c;
  let m = Machine.create cross_prog ~input:(Array.init 8 (fun i -> i + 1)) in
  Machine.attach m (Tool.make ~on_view:(SE.feed_view c) "cross-feed");
  (match Machine.run m with
  | _ -> ()
  | exception _ ->
      (* a cascade can reach the feeding side: tear the cluster down,
         as the supervisor does; finish_result still joins and
         reports *)
      SE.abort c);
  (SE.finish_result c, SE.cross_events c)

let test_exchange_stall_bit_identical () =
  with_watchdog @@ fun () ->
  let reference, cross =
    match run_cross () with
    | Ok m, cross -> (m, cross)
    | Error f, _ ->
        Alcotest.failf "clean cross run failed: %a" Shard_engine.pp_failure f
  in
  check Alcotest.bool "stream really crosses shards" true
    (reference.SE.m_sink_hits > 0 && cross > 0);
  (* stall the first exchange push for 2ms: timing noise only *)
  match run_cross ~chaos:(chaos "xchg/push@1=stall:2000000") () with
  | Error f, _ ->
      Alcotest.failf "exchange stall failed the run: %a"
        Shard_engine.pp_failure f
  | Ok m, _ ->
      check Alcotest.int "same events" reference.SE.m_events m.SE.m_events;
      check Alcotest.int "same sink hits" reference.SE.m_sink_hits
        m.SE.m_sink_hits;
      check Alcotest.int "same fingerprint" reference.SE.m_fingerprint
        m.SE.m_fingerprint

let test_exchange_crash_cascades () =
  with_watchdog @@ fun () ->
  (* a crash on an exchange pop: the popping shard dies, the mesh is
     aborted, every peer terminates via the Shard_dead cascade *)
  match run_cross ~chaos:(chaos "xchg/pop@1=crash") () with
  | Ok _, _ -> Alcotest.fail "injected exchange crash must surface"
  | Error f, _ ->
      check Alcotest.bool "primary is the injection" true
        (injected f.Shard_engine.f_primary);
      check Alcotest.bool "at least one shard reported dead" true
        (f.Shard_engine.f_shards <> [])

let test_exchange_ring_abort_terminates () =
  with_watchdog @@ fun () ->
  (* a crash on an exchange push tears the whole mesh down
     mid-protocol: it must cascade to Shard_dead everywhere, never
     wedge *)
  match run_cross ~chaos:(chaos "xchg/push@2=crash") () with
  | Ok _, _ -> Alcotest.fail "mesh abort must surface"
  | Error f, _ ->
      check Alcotest.bool "every failure is a cascade or injection" true
        (List.for_all
           (fun (_, e) -> e = Shard_engine.Shard_dead || injected e)
           f.Shard_engine.f_shards)

(* -- feed-ring accounting regression ------------------------------------ *)

(* The first [n] records of a recorded crc machine run, so that a coded
   channel interns real sites, and a channel of [wire] with one event
   per batch over the run's program. *)
let crc_feed ?probe ~wire n =
  let w = kernel "crc" in
  let acc = ref [] in
  let m =
    Machine.create w.Workload.program
      ~input:(w.Workload.input ~size:20 ~seed:3)
  in
  Machine.attach m (Tool.make ~on_exec:(fun e -> acc := e :: !acc) "collect");
  ignore (Machine.run m);
  let records = Array.sub (Array.of_list (List.rev !acc)) 0 n in
  ( Channel.create ?probe ~wire ~queue_capacity:4 ~batch_size:1
      ~table:(lazy (Site.of_program w.Workload.program))
      (),
    records )

(* Feed [records], closing at the end, until the channel gives up. *)
let feed_all ch records =
  try
    Array.iter (Channel.add ch) records;
    Channel.close ch
  with _ -> ()

(* A helper whose drain abandons the stream on the third event. *)
let crash_on_third ch =
  let consumed = Atomic.make 0 in
  Domain.spawn (fun () ->
      Channel.drain ch ~f:(fun _ ->
          if 3 <= 1 + Atomic.fetch_and_add consumed 1 then raise Exit))

let test_forwarder_drop_accounting () =
  with_watchdog @@ fun () ->
  (* regression: [batches]/[events] used to count batches pushed after
     an abort even though Spsc dropped them, so the gauges could not
     reconcile.  With batch_size=1: fed = delivered + dropped. *)
  List.iter
    (fun wire ->
      let name s = Fmt.str "%a: %s" Channel.pp_wire wire s in
      let reg = Dift_obs.Registry.create () in
      let ch, records =
        crc_feed ~probe:(Probe.make ~obs:reg ()) ~wire 100
      in
      let helper = crash_on_third ch in
      feed_all ch records;
      (match Domain.join helper with
      | () -> Alcotest.fail "helper must die of Exit"
      | exception Exit -> Channel.abort ch
      | exception e -> raise e);
      let k = Channel.counts ch in
      check Alcotest.int (name "all events accepted") 100 k.events;
      check Alcotest.bool (name "drops counted") true (k.dropped_batches > 0);
      check Alcotest.int (name "fed = delivered + dropped") 100
        (k.batches + k.dropped_events);
      check Alcotest.int (name "dropped gauge = dropped batches")
        k.dropped_batches
        (match
           Dift_obs.Registry.(find (snapshot reg))
             "parallel.forwarder.dropped_batches"
         with
        | Some (Dift_obs.Registry.Gauge_v v) -> v
        | _ -> Alcotest.fail "dropped_batches gauge missing"))
    [ `Coded; `Boxed ]

let test_forwarder_crash_ledger () =
  with_watchdog @@ fun () ->
  (* regression (in-flight accounting): after a consumer crash
     mid-drain, every event fed to the channel must be booked exactly
     once — consumed, discarded (the batch in hand plus the post-abort
     sweep of the ring), dropped producer-side, or visibly in flight
     (a push that raced the abort flag itself).  Nothing vanishes. *)
  List.iter
    (fun wire ->
      let name s = Fmt.str "%a: %s" Channel.pp_wire wire s in
      let ch, records = crc_feed ~wire 100 in
      let helper = crash_on_third ch in
      feed_all ch records;
      (match Domain.join helper with
      | () -> Alcotest.fail "helper must die of Exit"
      | exception Exit -> ()
      | exception e -> raise e);
      let k = Channel.counts ch in
      check Alcotest.int (name "every event is booked exactly once") k.events
        (k.consumed_events + k.discarded_events + k.dropped_events
       + k.in_flight_batches);
      (* f completed twice; its third call raised, so that batch is
         booked as discarded, not consumed *)
      check Alcotest.int (name "the helper consumed what f completed") 2
        k.consumed_events;
      check Alcotest.bool
        (name "the crashing batch and the swept ring are discarded")
        true
        (k.discarded_batches >= 1);
      check Alcotest.int (name "batch ledger closes too") k.batches
        (k.consumed_batches + k.discarded_batches + k.in_flight_batches))
    [ `Coded; `Boxed ]

(* -- ring.abort: one flight event per aborted feed ring ----------------- *)

(* The flight categories (feed-ring namespaces) of every [ring.abort]. *)
let ring_aborts flight =
  List.concat_map
    (fun (t : Dift_obs.Flight.tail) ->
      List.filter_map
        (fun (e : Dift_obs.Flight.entry) ->
          if e.name = "ring.abort" then Some e.cat else None)
        t.t_entries)
    (Dift_obs.Flight.tails flight)

(* regression: an injected fault, or a helper crash, used to tear the
   ring down without recording [ring.abort]; only an explicit
   [Channel.abort] did.  Whatever the cause, the ring's first abort
   records it, once. *)
let test_ring_abort_two_domain plan_s () =
  with_watchdog @@ fun () ->
  let w = kernel "crc" in
  let input = w.Workload.input ~size:40 ~seed:3 in
  let flight = Dift_obs.Flight.create ~capacity:(1 lsl 14) () in
  let chaos = Chaos.create ~flight (plan plan_s) in
  ignore
    (Parallel.run_result ~flight ~chaos ~queue_capacity:2 ~batch_size:4
       w.Workload.program ~input);
  check Alcotest.int "the fault fired" 1 (Chaos.fired chaos);
  check
    Alcotest.(list string)
    "one ring.abort for the aborted ring" [ "parallel" ] (ring_aborts flight)

let test_ring_abort_sharded () =
  with_watchdog @@ fun () ->
  let w = kernel "crc" in
  let input = w.Workload.input ~size:40 ~seed:3 in
  let flight = Dift_obs.Flight.create ~capacity:(1 lsl 14) () in
  let chaos = Chaos.create ~flight (plan "parallel.shard1/pop@1=crash") in
  ignore
    (Parallel.run_sharded_result ~flight ~chaos ~queue_capacity:4
       ~batch_size:1 ~shards:3 w.Workload.program ~input);
  let aborts = ring_aborts flight in
  (* shard 1 aborts its ring; a peer whose ring the cascade tears down
     records its own, and no ring records two *)
  check Alcotest.int "shard 1's ring aborted once" 1
    (List.length (List.filter (String.equal "parallel.shard1") aborts));
  check Alcotest.int "no ring aborted twice"
    (List.length (List.sort_uniq compare aborts))
    (List.length aborts)

(* -- one loss rule: an Error, or inline's result ------------------------ *)

(* A faulted run either fails with a structured error whose primary
   failure is the injection (or the cascade it caused), or returns
   exactly what inline tracking returns. *)
let error_or_inline name ~reference = function
  | Ok r -> same_result name reference r
  | Error (e : Parallel.error) ->
      check Alcotest.bool
        (Fmt.str "%s: failure is injected or cascade (%s)" name
           (Printexc.to_string e.Parallel.e_exn))
        true
        (injected e.Parallel.e_exn
        || e.Parallel.e_exn = Shard_engine.Shard_dead)

let test_seed_sweep () =
  with_watchdog ~timeout_s:120. @@ fun () ->
  let w = kernel "hash" in
  let input = w.Workload.input ~size:10 ~seed:1 in
  let reference =
    (Parallel.run_inline w.Workload.program ~input).Parallel.i_result
  in
  for seed = 0 to 7 do
    let c = Chaos.create (Chaos.plan_of_seed seed) in
    Parallel.run_result ~chaos:c ~queue_capacity:4 ~batch_size:4
      w.Workload.program ~input
    |> Result.map (fun r -> r.Parallel.result)
    |> error_or_inline (Fmt.str "seed %d" seed) ~reference
  done;
  for seed = 100 to 103 do
    let c = Chaos.create (Chaos.plan_of_seed seed) in
    Parallel.run_sharded_result ~chaos:c ~queue_capacity:4 ~batch_size:4
      ~shards:2 w.Workload.program ~input
    |> Result.map (fun r -> r.Parallel.s_result)
    |> error_or_inline (Fmt.str "sharded seed %d" seed) ~reference
  done

(* A crash on an event ring, on either side, at the first three
   occurrences, with and without degraded completion: two domains on
   crc, and shard 1 of two on hash (crc routes nothing to shard 1).
   A pop-side crash is a helper's, so a degraded run completes it; a
   push-side crash is the application's, which a replay would only
   repeat. *)
let test_one_loss_rule () =
  with_watchdog ~timeout_s:120. @@ fun () ->
  let two_domain degrade chaos program ~input =
    Parallel.run_result ~chaos ?degrade ~queue_capacity:4 ~batch_size:1
      program ~input
    |> Result.map (fun r -> (r.Parallel.result, r.Parallel.degraded))
  and sharded degrade chaos program ~input =
    Parallel.run_sharded_result ~chaos ?degrade ~queue_capacity:4
      ~batch_size:1 ~shards:2 program ~input
    |> Result.map (fun r -> (r.Parallel.s_result, r.Parallel.s_degraded))
  in
  let each l f = List.iter f l in
  each
    [ ("two-domain", "crc", "", two_domain);
      ("sharded", "hash", "parallel.shard1/", sharded) ]
  @@ fun (leg, kname, where, run) ->
  let w = kernel kname in
  let input = w.Workload.input ~size:12 ~seed:3 in
  let reference = inline_of kname ~size:12 in
  each [ "push"; "pop" ] @@ fun op ->
  each [ 1; 2; 3 ] @@ fun at ->
  each [ None; Some `Inline ] @@ fun degrade ->
  let rule = Fmt.str "%s%s@%d=crash" where op at in
  let name =
    Fmt.str "%s %s%s" leg rule (if degrade = None then "" else " (degrade)")
  in
  let got = run degrade (chaos rule) w.Workload.program ~input in
  error_or_inline name ~reference (Result.map fst got);
  if op = "pop" && degrade <> None then
    match got with
    | Ok (_, Some _) -> ()
    | Ok (_, None) -> Alcotest.failf "%s: not flagged degraded" name
    | Error e ->
        Alcotest.failf "%s: degraded run failed: %a" name Parallel.pp_error e

(* -- QCheck: Spsc shutdown edges --------------------------------------- *)

(* The final element racing close: the producer pushes its last
   element and closes immediately; whatever the interleaving with a
   (possibly parked) consumer, every element must arrive. *)
let prop_final_element_at_close =
  QCheck2.Test.make ~count:200 ~name:"spsc: final element races close"
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 32))
    (fun (capacity, n) ->
      let q = Spsc.create ~capacity () in
      let consumer =
        Domain.spawn (fun () ->
            let rec loop acc =
              match Spsc.pop q with None -> acc | Some _ -> loop (acc + 1)
            in
            loop 0)
      in
      for i = 1 to n do
        Spsc.push q i
      done;
      Spsc.close q;
      Domain.join consumer = n)

(* Abort racing a parked producer: the producer is parked on a full
   ring when the consumer aborts; it must unpark, count its drops, and
   terminate. *)
let prop_abort_unparks_producer =
  QCheck2.Test.make ~count:100 ~name:"spsc: abort unparks a full-parked producer"
    QCheck2.Gen.(int_range 1 3)
    (fun capacity ->
      let q = Spsc.create ~capacity () in
      let producer =
        Domain.spawn (fun () ->
            for i = 1 to capacity + 4 do
              Spsc.push q i
            done)
      in
      (* wait until the producer is genuinely parked on the full ring *)
      let rec wait_full i =
        if i > 20_000 then ()
        else if Spsc.length q < capacity then begin
          Domain.cpu_relax ();
          wait_full (i + 1)
        end
      in
      wait_full 0;
      Spsc.abort q;
      Domain.join producer;
      (* whatever landed before the abort, the rest was counted *)
      Spsc.length q + Spsc.dropped q >= 4)

let test_abort_unparks_consumer () =
  with_watchdog @@ fun () ->
  (* the consumer is parked on an empty ring; an abort from outside
     the producer domain must wake it with end-of-stream *)
  let q : int Spsc.t = Spsc.create ~capacity:2 () in
  let consumer = Domain.spawn (fun () -> Spsc.pop q) in
  Unix.sleepf 0.02;
  Spsc.abort q;
  check Alcotest.bool "parked consumer sees end-of-stream" true
    (Domain.join consumer = None)

(* -- timing sanity ------------------------------------------------------ *)

let test_wall_times_non_negative () =
  with_watchdog @@ fun () ->
  (* regression: gettimeofday-based timing could yield negative spans
     when the wall clock stepped; the monotonic clock cannot *)
  match run_crc () with
  | Error e -> Alcotest.failf "clean run failed: %a" Parallel.pp_error e
  | Ok r ->
      check Alcotest.bool "main wall >= 0" true (r.Parallel.main_wall_ns >= 0);
      check Alcotest.bool "total >= main" true
        (r.Parallel.total_wall_ns >= r.Parallel.main_wall_ns)

let suite =
  [
    Alcotest.test_case "fault plans round-trip" `Quick test_plan_roundtrip;
    Alcotest.test_case "helper crash mid-drain" `Quick
      test_helper_crash_mid_drain;
    Alcotest.test_case "app crash mid-run" `Quick test_app_crash_mid_run;
    Alcotest.test_case "abort at step N" `Quick test_abort_at_step_n;
    Alcotest.test_case "consumer give-up" `Quick test_consumer_give_up;
    Alcotest.test_case "pop drop discards" `Quick test_pop_drop_discards;
    Alcotest.test_case "stall/delay bit-identical" `Quick
      test_stall_delay_bit_identical;
    Alcotest.test_case "spawn failure (two-domain)" `Quick
      test_spawn_failure_two_domain;
    Alcotest.test_case "shard crash (request-reply)" `Quick
      test_shard_crash_request_reply;
    Alcotest.test_case "spawn failure (sharded)" `Quick
      test_spawn_failure_sharded;
    Alcotest.test_case "exchange stall bit-identical" `Quick
      test_exchange_stall_bit_identical;
    Alcotest.test_case "exchange crash cascades" `Quick
      test_exchange_crash_cascades;
    Alcotest.test_case "exchange ring abort terminates" `Quick
      test_exchange_ring_abort_terminates;
    Alcotest.test_case "forwarder drop accounting reconciles" `Quick
      test_forwarder_drop_accounting;
    Alcotest.test_case "forwarder crash ledger closes" `Quick
      test_forwarder_crash_ledger;
    Alcotest.test_case "ring.abort once (injected pop abort)" `Quick
      (test_ring_abort_two_domain "pop@1=crash");
    Alcotest.test_case "ring.abort once (injected push abort)" `Quick
      (test_ring_abort_two_domain "push@2=crash");
    Alcotest.test_case "ring.abort once (helper crash)" `Quick
      (test_ring_abort_two_domain "pop@2=crash");
    Alcotest.test_case "ring.abort once per shard ring" `Quick
      test_ring_abort_sharded;
    Alcotest.test_case "random-seed sweep terminates" `Quick test_seed_sweep;
    Alcotest.test_case "one loss rule: an error or inline's result" `Quick
      test_one_loss_rule;
    Alcotest.test_case "abort unparks a parked consumer" `Quick
      test_abort_unparks_consumer;
    Alcotest.test_case "wall times non-negative" `Quick
      test_wall_times_non_negative;
  ]
  @ List.map Qcheck_run.to_alcotest
      [ prop_final_element_at_close; prop_abort_unparks_producer ]
