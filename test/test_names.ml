(* The instrument names the parallel runtime exposes, pinned: metric
   names in the registry, watchdog progress legs, the (category, name)
   pairs on each flight-recorder ring and on each trace track.  One
   fully instrumented two-domain run, with a registry, a tracer, a
   flight recorder, a fault plan that never fires and a watchdog that
   never misses, so every seam is wired and no failure leg runs.  An
   inline run takes the registry, tracer and flight recorder only: it
   has no channel to inject into and no seam to watch.

   Excluded, because their presence depends on scheduling: which of
   [ring.stall]/[ring.enqueue] and of [ring.wait]/[ring.dequeue] a
   transfer records (whether it parked), and anything recorded by a
   domain the run does not name (the watchdog's sampler). *)

open Dift_workloads
open Dift_parallel
module Registry = Dift_obs.Registry
module Trace = Dift_obs.Trace
module Flight = Dift_obs.Flight
module Progress = Dift_obs.Progress

let check = Alcotest.check

let scheduling_dependent =
  [ "ring.stall"; "ring.enqueue"; "ring.wait"; "ring.dequeue" ]

(* A ring or track the run did not name ("domain-N"). *)
let named label =
  not (String.length label > 7 && String.sub label 0 7 = "domain-")

let kept (_, name) = not (List.mem name scheduling_dependent)

let pairs_of l =
  List.sort_uniq compare (List.filter kept l)
  |> List.map (fun (c, n) -> c ^ "/" ^ n)

(* What one instrumented run exposed. *)
type seen = {
  metrics : string list;
  legs : string list;
  flight : (string * string list) list;  (** domain label -> cat/name *)
  trace : (string * string list) list;  (** track name -> cat/name *)
}

let observe run =
  let reg = Registry.create () in
  let tr = Trace.create ~capacity:(1 lsl 18) () in
  let fl = Flight.create ~capacity:(1 lsl 16) () in
  let plan =
    match Chaos.plan_of_string "pop@1000000=crash" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let chaos = Chaos.create ~flight:fl plan in
  let wd = Watchdog.create (Watchdog.deadlines 60_000) in
  let ok =
    Fun.protect
      ~finally:(fun () -> Watchdog.stop wd)
      (fun () -> run ~obs:reg ~trace:tr ~flight:fl ~chaos ~watchdog:wd)
  in
  check Alcotest.bool "run completes" true ok;
  check Alcotest.int "the plan never fires" 0 (Chaos.fired chaos);
  let group l =
    List.fold_left
      (fun acc (label, pair) ->
        if named label then
          let old = Option.value ~default:[] (List.assoc_opt label acc) in
          (label, pair :: old) :: List.remove_assoc label acc
        else acc)
      [] l
    |> List.map (fun (label, ps) -> (label, pairs_of ps))
    |> List.sort compare
  in
  let tracks = Trace.tracks tr in
  {
    metrics =
      List.sort_uniq compare
        (List.map (fun (n, _, _) -> n) (Registry.snapshot reg));
    legs =
      List.sort_uniq compare
        (List.map Progress.name (Progress.legs (Watchdog.progress wd)));
    flight =
      group
        (List.concat_map
           (fun (t : Flight.tail) ->
             List.map
               (fun (e : Flight.entry) -> (t.t_domain, (e.cat, e.name)))
               t.t_entries)
           (Flight.tails fl));
    trace =
      group
        (List.map
           (fun (e : Trace.event) ->
             ( Option.value ~default:"?" (List.assoc_opt e.tid tracks),
               (e.cat, e.name) ))
           (Trace.events tr));
  }

let kernel name =
  match List.find_opt (fun w -> w.Workload.name = name) Spec_like.all with
  | Some w -> w
  | None -> Alcotest.failf "kernel %s missing" name

let two_domain ~obs ~trace ~flight ~chaos ~watchdog =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:40 ~seed:3 in
  Result.is_ok
    (Parallel.run_result ~obs ~trace ~flight ~chaos ~watchdog
       w.Workload.program ~input)

let inline ~obs ~trace ~flight ~chaos:_ ~watchdog:_ =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:40 ~seed:3 in
  let r = Parallel.run_inline ~obs ~trace ~flight w.Workload.program ~input in
  r.Parallel.i_result.Parallel.events > 0

(* -- the expected names --------------------------------------------------- *)

let vm_metrics =
  [
    "vm.events.exec"; "vm.events.fault"; "vm.events.finish"; "vm.instr.alu";
    "vm.instr.br"; "vm.instr.call"; "vm.instr.cmp"; "vm.instr.halt";
    "vm.instr.icall"; "vm.instr.jmp"; "vm.instr.load"; "vm.instr.mov";
    "vm.instr.nop"; "vm.instr.ret"; "vm.instr.store"; "vm.instr.sys_check";
    "vm.instr.sys_exit"; "vm.instr.sys_heap"; "vm.instr.sys_mark";
    "vm.instr.sys_read"; "vm.instr.sys_sync"; "vm.instr.sys_thread";
    "vm.instr.sys_write";
  ]

(* One feed channel's metrics under namespace [ns]. *)
let channel_metrics ns =
  List.map (fun m -> ns ^ "." ^ m)
    [
      "forwarder.batch_occupancy"; "forwarder.batches";
      "forwarder.consumed_batches"; "forwarder.consumed_events";
      "forwarder.discarded_batches"; "forwarder.discarded_events";
      "forwarder.dropped_batches"; "forwarder.dropped_events";
      "forwarder.events"; "forwarder.words"; "ring.capacity_batches";
      "ring.drops";
      "ring.in_flight_batches"; "ring.stalls"; "ring.waits";
    ]

let two_domain_seen =
  {
    metrics =
      [
        "core.engine.events"; "core.engine.sink_hits"; "core.engine.sources";
        "core.shadow.tainted_locations"; "core.shadow.words";
        "parallel.helper.batch"; "parallel.helper.busy_ns";
        "parallel.helper.utilization_pct"; "parallel.helper.wall_ns";
      ]
      @ channel_metrics "parallel" @ vm_metrics;
    legs = [ "join.helper"; "parallel.pop"; "parallel.push"; "spawn.helper" ];
    flight =
      [
        ( "app",
          [
            "parallel/ring.close"; "parallel/ring.push"; "run/run.done";
            "run/run.start";
          ] );
        ( "helper",
          [ "core/engine.progress"; "parallel/ring.pop"; "run/helper.start" ] );
      ];
    trace =
      [
        ("app", [ "vm/app.run" ]);
        ("helper", [ "core/engine.batch"; "parallel/helper.drain" ]);
        ("ring.occupancy", [ "parallel/ring.occupancy" ]);
        ("shadow.tainted_locations", [ "core/shadow.tainted_locations" ]);
        ("shadow.words", [ "core/shadow.words" ]);
      ];
  }

let inline_seen =
  {
    metrics =
      [
        "core.engine.events"; "core.engine.sink_hits"; "core.engine.sources";
        "core.shadow.tainted_locations"; "core.shadow.words";
      ]
      @ vm_metrics;
    legs = [];
    flight = [ ("app", [ "core/engine.progress" ]) ];
    trace =
      [
        ("app", [ "vm/app.run" ]);
        ("shadow.tainted_locations", [ "core/shadow.tainted_locations" ]);
        ("shadow.words", [ "core/shadow.words" ]);
      ];
  }

let sorted_seen s =
  let groups = List.map (fun (k, l) -> (k, List.sort compare l)) in
  {
    metrics = List.sort compare s.metrics;
    legs = List.sort compare s.legs;
    flight = List.sort compare (groups s.flight);
    trace = List.sort compare (groups s.trace);
  }

let check_seen expected got =
  let expected = sorted_seen expected in
  let strings = Alcotest.(list string) in
  let groups = Alcotest.(list (pair string (list string))) in
  check strings "registry metric names" expected.metrics got.metrics;
  check strings "watchdog progress legs" expected.legs got.legs;
  check groups "flight (category, name) per domain" expected.flight got.flight;
  check groups "trace (category, name) per track" expected.trace got.trace

let test_two_domain () = check_seen two_domain_seen (observe two_domain)

let test_inline () = check_seen inline_seen (observe inline)

let suite =
  [
    Alcotest.test_case "two-domain instrument names" `Quick test_two_domain;
    Alcotest.test_case "inline instrument names" `Quick test_inline;
  ]
