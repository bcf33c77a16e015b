(* Fault-injection hardening of the parallel runtime: every shutdown
   leg — helper crash mid-drain, application crash mid-run, abort
   racing a parked peer, a stalled ring, spawn failure — must
   terminate cleanly (no deadlock, no leaked domain),
   keep coherent partial statistics, and surface a structured
   [Parallel.error] instead of a bare re-raise.  A watchdog domain
   turns any wedged scenario into a hard process abort so a deadlock
   is a loud test failure, not a hung CI job.

   Also the accounting regression tests: [batches] in
   [Channel.counts] counts only delivered batches (post-abort pushes land in
   [dropped_batches]/[dropped_events], so the books reconcile), and
   the Spsc shutdown edges (final element racing close, abort against
   a parked peer) under QCheck. *)

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
  (* a run spawns one helper: a seeded spawn failure is at the first *)
  for seed = 0 to 99 do
    List.iter
      (fun (r : Chaos.rule) ->
        if r.on = Chaos.Spawn then
          check Alcotest.int (Fmt.str "seed %d: spawn@1" seed) 1 r.at)
      (Chaos.plan_of_seed seed)
  done;
  (* explicit grammar corners; a [where] matches the one ring, so the
     rule (and its printed form) drops it *)
  (match Chaos.plan_of_string "parallel/pop@2=crash;push@1=stall:50" with
  | Ok [ r1; r2 ] ->
      check Alcotest.bool "where dropped" true
        (r1 = { Chaos.on = Chaos.Pop; at = 2; fault = Chaos.Crash });
      check Alcotest.bool "stall parsed" true
        (r2.Chaos.fault = Chaos.Stall 50);
      check Alcotest.string "printed without the where"
        "pop@2=crash;push@1=stall:50"
        (Chaos.plan_to_string [ r1; r2 ])
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
  (* a run spawns one helper, so a later spawn never comes *)
  check Alcotest.bool "spawn@1 parses" true
    (Result.is_ok
       (Chaos.plan_of_string "spawn@1=crash;parallel/spawn@1=stall:5"));
  List.iter
    (fun bad ->
      check Alcotest.bool
        (Fmt.str "the error for %S names spawn@1" bad)
        true
        (names (rejected bad) "spawn@1"))
    [ "spawn@2=crash"; "spawn@3=stall:100"; "pop@1=crash;spawn@2=crash";
      "parallel/spawn@2=crash"; "spawn@1000000=crash" ];
  (* a [where] must be a prefix of the one channel namespace,
     [parallel]; a misspelt or retired one (the shard rings
     [parallel.shard<i>], the exchange mesh [xchg.<src>.<dst>]) would
     never fire *)
  List.iter
    (fun w ->
      match Chaos.plan_of_string (w ^ "/pop@2=crash") with
      | Ok p ->
          check Alcotest.bool (w ^ " parsed") true
            (p = Result.get_ok (Chaos.plan_of_string "pop@2=crash"))
      | Error e -> Alcotest.failf "%S names a channel: %s" w e)
    [ ""; "p"; "par"; "paralle"; "parallel" ];
  List.iter
    (fun w ->
      check Alcotest.bool
        (Fmt.str "%S names no channel" w)
        true
        (names (rejected (w ^ "/pop@2=crash")) "names no channel"))
    [ "paralel"; "parallel7"; "parallel."; "parallel.shard";
      "parallel.shard1"; "parallel.shard12"; "parallel.s1"; "ring.parallel";
      "ring"; "xc"; "xchg"; "xchg.0"; "xchg.0.1"; "xchg.10.11"; "shard1" ];
  (* the retired namespaces fail loudly, naming the one there is *)
  List.iter
    (fun bad ->
      check Alcotest.bool
        (Fmt.str "the error for %S names parallel" bad)
        true
        (names (rejected bad) "prefix of parallel"))
    [ "parallel.shard1/pop@1=crash"; "xchg/push@1=stall:2000000" ]

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

(* -- one fault table: seam x occurrence x geometry ---------------------- *)

(* The flight categories (feed-ring namespaces) of every [ring.abort]. *)
let ring_aborts flight =
  List.concat_map
    (fun (t : Dift_obs.Flight.tail) ->
      List.filter_map
        (fun (e : Dift_obs.Flight.entry) ->
          if e.name = "ring.abort" then Some e.cat else None)
        t.t_entries)
    (Dift_obs.Flight.tails flight)

(* What a row expects of its failed run, beyond what every row checks. *)
type expect =
  | Events_fed  (** the application fed events before the crash *)
  | Delivered  (** at least one batch was delivered *)
  | Dropped  (** the producer dropped, and counted, later batches *)
  | Dropped_once
      (** the crashing push is the one dropped batch, one event each *)
  | Discarded  (** the batch in hand at the crash is booked discarded *)
  | Nothing_in_flight  (** the helper swept the ring before its join *)
  | Nothing_fed  (** no event ran *)
  | Degrades  (** with [`Inline] the run completes, bit-identical *)

(* One faulted crc run: the plan fires once and fails the run on
   [leg] with the injection.  Every row but the spawn failure also
   checks the books (batches delivered = consumed + discarded + still
   in flight) and that the ring torn down by the fault records
   [ring.abort] once. *)
type row = {
  name : string;
  plan : string;
  queue_capacity : int;
  batch_size : int;
  size : int;
  leg : Parallel.leg;
  expect : expect list;
}

let row ?(size = 12) ~plan ~geometry:(q, b) ~leg ?(expect = []) name =
  { name; plan; queue_capacity = q; batch_size = b; size; leg; expect }

let fault_table =
  [
    row "helper crash mid-drain" ~plan:"pop@2=crash" ~geometry:(4, 8)
      ~leg:`Helper ~expect:[ Events_fed; Delivered ];
    row "consumer give-up" ~plan:"pop@2=crash" ~geometry:(4, 1) ~leg:`Helper
      ~expect:[ Dropped ];
    row "ring.abort once (helper crash)" ~plan:"pop@2=crash" ~geometry:(2, 4)
      ~size:40 ~leg:`Helper;
    row "pop drop discards" ~plan:"pop@1=crash" ~geometry:(4, 1) ~leg:`Helper
      ~expect:[ Discarded; Degrades ];
    row "ring.abort once (injected pop abort)" ~plan:"pop@1=crash"
      ~geometry:(2, 4) ~size:40 ~leg:`Helper;
    row "app crash mid-run" ~plan:"push@3=crash" ~geometry:(4, 8) ~leg:`App
      ~expect:[ Dropped ];
    row "abort at step N" ~plan:"push@2=crash" ~geometry:(4, 1) ~leg:`App
      ~expect:[ Dropped_once; Nothing_in_flight ];
    row "ring.abort once (injected push abort)" ~plan:"push@2=crash"
      ~geometry:(2, 4) ~size:40 ~leg:`App;
    row "spawn failure (two-domain)" ~plan:"spawn@1=crash" ~geometry:(4, 8)
      ~leg:`Spawn ~expect:[ Nothing_fed ];
  ]

let run_row ?degrade r =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:r.size ~seed:3 in
  let reg = Dift_obs.Registry.create () in
  let flight = Dift_obs.Flight.create ~capacity:(1 lsl 14) () in
  let chaos = Chaos.create (plan r.plan) in
  let q = r.queue_capacity and b = r.batch_size in
  let got =
    Parallel.run_result ~obs:reg ~flight ~chaos ?degrade ~queue_capacity:q
      ~batch_size:b w.Workload.program ~input
    |> Result.map (fun r -> r.Parallel.result)
  in
  (got, reg, flight, chaos)

let test_fault_row r () =
  with_watchdog @@ fun () ->
  let got, reg, flight, chaos = run_row r in
  match got with
  | Ok _ -> Alcotest.failf "%s must fail the run" r.plan
  | Error e ->
      check Alcotest.int "the fault fired once" 1 (Chaos.fired chaos);
      check Alcotest.bool "the leg" true (e.Parallel.e_leg = r.leg);
      check Alcotest.bool "injected exn" true (injected e.Parallel.e_exn);
      let p = e.Parallel.e_partial in
      let ns = "parallel" in
      if r.leg <> `Spawn then begin
        let consumed = gauge reg (ns ^ ".forwarder.consumed_batches")
        and discarded = gauge reg (ns ^ ".forwarder.discarded_batches")
        and in_flight = gauge reg (ns ^ ".ring.in_flight_batches") in
        check Alcotest.int "delivered = consumed + discarded + in flight"
          p.Parallel.p_batches
          (consumed + discarded + in_flight);
        check
          Alcotest.(list string)
          "one ring.abort for the aborted ring" [ ns ] (ring_aborts flight)
      end;
      List.iter
        (function
          | Events_fed ->
              check Alcotest.bool "events fed" true (p.Parallel.p_events > 0)
          | Delivered ->
              check Alcotest.bool "batches delivered before the crash" true
                (p.Parallel.p_batches >= 1)
          | Dropped ->
              check Alcotest.bool "later batches dropped and counted" true
                (p.Parallel.p_dropped_batches > 0)
          | Dropped_once ->
              check Alcotest.int "the crashing push is the one dropped batch"
                1 p.Parallel.p_dropped_batches;
              check Alcotest.int "one event per dropped batch"
                p.Parallel.p_dropped_batches p.Parallel.p_dropped_events
          | Discarded ->
              check Alcotest.bool "the dropped batch is discarded" true
                (gauge reg "parallel.forwarder.discarded_batches" >= 1)
          | Nothing_in_flight ->
              check Alcotest.int "nothing in flight after the join" 0
                (gauge reg "parallel.ring.in_flight_batches")
          | Nothing_fed ->
              check Alcotest.int "nothing fed" 0 p.Parallel.p_events
          | Degrades -> (
              match run_row ~degrade:`Inline r with
              | Error e, _, _, _ ->
                  Alcotest.failf "degraded run must complete: %a"
                    Parallel.pp_error e
              | Ok res, _, _, _ ->
                  same_result "degraded" (inline_of "crc" ~size:r.size) res))
        r.expect

(* A batch whose push did not land stays the producer's open batch:
   under a consumer crash every later push is dropped, and the channel
   allocates no batch past its [queue_capacity + 2] bound. *)
let test_dropped_batch_reused () =
  with_watchdog @@ fun () ->
  List.iter
    (fun wire ->
      let name s = Fmt.str "%a: %s" Channel.pp_wire wire s in
      let w = kernel "crc" in
      let records =
        let acc = ref [] in
        let m =
          Machine.create w.Workload.program
            ~input:(w.Workload.input ~size:40 ~seed:3)
        in
        Machine.attach m
          (Tool.make ~on_exec:(fun e -> acc := e :: !acc) "collect");
        ignore (Machine.run m);
        Array.of_list (List.rev !acc)
      in
      let ch =
        Channel.create
          ~probe:(Probe.make ~chaos:(chaos "pop@2=crash") ())
          ~wire ~queue_capacity:2 ~batch_size:8
          ~table:(lazy (Site.of_program w.Workload.program))
          ()
      in
      let helper = Domain.spawn (fun () -> Channel.drain ch ~f:ignore) in
      feed_all ch records;
      (match Domain.join helper with
      | () -> Alcotest.fail "the helper must crash"
      | exception Chaos.Injected _ -> ());
      let k = Channel.counts ch in
      check Alcotest.bool (name "later batches dropped") true
        (k.dropped_batches > 2);
      check Alcotest.bool
        (name (Fmt.str "%d batches created <= queue_capacity + 2"
                 k.created_batches))
        true
        (k.created_batches <= 2 + 2))
    [ `Coded; `Boxed ]

(* -- one loss rule: an Error, or inline's result ------------------------ *)

(* A faulted run either fails with a structured error whose primary
   failure is the injection, or returns exactly what inline tracking
   returns. *)
let error_or_inline name ~reference = function
  | Ok r -> same_result name reference r
  | Error (e : Parallel.error) ->
      check Alcotest.bool
        (Fmt.str "%s: failure is injected (%s)" name
           (Printexc.to_string e.Parallel.e_exn))
        true (injected e.Parallel.e_exn)

let test_seed_sweep () =
  with_watchdog ~timeout_s:120. @@ fun () ->
  let w = kernel "hash" in
  let input = w.Workload.input ~size:10 ~seed:1 in
  let reference =
    (Parallel.run_inline w.Workload.program ~input).Parallel.i_result
  in
  List.iter
    (fun seed ->
      let c = Chaos.create (Chaos.plan_of_seed seed) in
      Parallel.run_result ~chaos:c ~queue_capacity:4 ~batch_size:4
        w.Workload.program ~input
      |> Result.map (fun r -> r.Parallel.result)
      |> error_or_inline (Fmt.str "seed %d" seed) ~reference)
    [ 0; 1; 2; 3; 4; 5; 6; 7; 100; 101; 102; 103 ]

(* A crash on the event ring, on either side, at the first three
   occurrences, with and without degraded completion, on crc and hash.
   A pop-side crash is the helper's, so a degraded run completes it; a
   push-side crash is the application's, which a replay would only
   repeat. *)
let test_one_loss_rule () =
  with_watchdog ~timeout_s:120. @@ fun () ->
  let each l f = List.iter f l in
  each [ "crc"; "hash" ] @@ fun kname ->
  let w = kernel kname in
  let input = w.Workload.input ~size:12 ~seed:3 in
  let reference = inline_of kname ~size:12 in
  each [ "push"; "pop" ] @@ fun op ->
  each [ 1; 2; 3 ] @@ fun at ->
  each [ None; Some `Inline ] @@ fun degrade ->
  let rule = Fmt.str "%s@%d=crash" op at in
  let name =
    Fmt.str "%s %s%s" kname rule (if degrade = None then "" else " (degrade)")
  in
  let got =
    Parallel.run_result ~chaos:(chaos rule) ?degrade ~queue_capacity:4
      ~batch_size:1 w.Workload.program ~input
    |> Result.map (fun r -> (r.Parallel.result, r.Parallel.degraded))
  in
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
  [ Alcotest.test_case "fault plans round-trip" `Quick test_plan_roundtrip ]
  @ List.map
      (fun r -> Alcotest.test_case r.name `Quick (test_fault_row r))
      fault_table
  @ [
      Alcotest.test_case "stall/delay bit-identical" `Quick
        test_stall_delay_bit_identical;
      Alcotest.test_case "forwarder drop accounting reconciles" `Quick
        test_forwarder_drop_accounting;
      Alcotest.test_case "forwarder crash ledger closes" `Quick
        test_forwarder_crash_ledger;
      Alcotest.test_case "a dropped batch is reused, not reallocated" `Quick
        test_dropped_batch_reused;
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
