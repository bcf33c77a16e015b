(* Watchdog deadlines, timeout-and-cascade shutdown and degraded-mode
   inline completion.

   Three layers of coverage: (1) deterministic unit tests of the
   progress-epoch table, the deadline grammar, the shared sampler and
   the miss/cascade machinery via [check_now]; (2) fault-driven
   end-to-end runs — a stall past its deadline must surface as a
   [`Deadline] error (or, with [~degrade:`Inline], complete anyway
   with a bit-identical result), a stall inside its deadline must be
   invisible; (3) QCheck false-positive freedom: clean supervised runs
   at any size never trip the watchdog.

   Also the Livefilter generation-reset protocol (clear, standdown,
   per-slot ack, post-reset cleanliness) and the chaos stall clamp. *)

open Dift_isa
open Dift_vm
open Dift_workloads
open Dift_parallel
module Progress = Dift_obs.Progress
module Sampler = Dift_obs.Sampler
module Json = Dift_obs.Json

let check = Alcotest.check

(* Unwrap a run that must succeed. *)
let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "run failed: %a" Parallel.pp_error e

(* -- process watchdog: a wedged scenario must fail loudly -------------- *)

let with_watchdog ?(timeout_s = 60.) f =
  let finished = Atomic.make false in
  let dog =
    Domain.spawn (fun () ->
        let steps = int_of_float (timeout_s /. 0.05) in
        let rec loop i =
          if Atomic.get finished then ()
          else if i >= steps then begin
            prerr_endline "watchdog: deadline scenario deadlocked; aborting";
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

let dl s =
  match Watchdog.deadlines_of_string s with
  | Ok d -> d
  | Error e -> Alcotest.failf "bad deadline spec %S: %s" s e

let plan s =
  match Chaos.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad test plan %S: %s" s e

let chaos s = Chaos.create (plan s)

let kernel name =
  match List.find_opt (fun w -> w.Workload.name = name) Spec_like.all with
  | Some w -> w
  | None -> Alcotest.failf "kernel %s missing" name

let same_result name (a : Parallel.result) (b : Parallel.result) =
  check Alcotest.int (name ^ ": events") a.Parallel.events b.Parallel.events;
  check Alcotest.int (name ^ ": sources") a.Parallel.sources
    b.Parallel.sources;
  check Alcotest.int (name ^ ": sink hits") a.Parallel.sink_hits
    b.Parallel.sink_hits;
  check Alcotest.int
    (name ^ ": sink trace hash")
    a.Parallel.sink_trace_hash b.Parallel.sink_trace_hash;
  check Alcotest.int
    (name ^ ": tainted locations")
    a.Parallel.tainted_locations b.Parallel.tainted_locations;
  check Alcotest.int
    (name ^ ": fingerprint")
    a.Parallel.taint_fingerprint b.Parallel.taint_fingerprint

let is_deadline = function Watchdog.Deadline_exceeded _ -> true | _ -> false

(* supervise one run: create, use, always stop *)
let with_wd spec f =
  let wd = Watchdog.create (dl spec) in
  Fun.protect ~finally:(fun () -> Watchdog.stop wd) (fun () -> f wd)

(* -- progress-epoch parity --------------------------------------------- *)

let test_progress_parity () =
  let p = Progress.create () in
  let a = Progress.leg p "parallel.push" in
  let b = Progress.leg p "parallel.pop" in
  check Alcotest.string "name" "parallel.push" (Progress.name a);
  check Alcotest.bool "distinct ids" true (Progress.id a <> Progress.id b);
  check Alcotest.int "fresh epoch" 0 (Progress.epoch a);
  check Alcotest.bool "fresh leg unarmed" false (Progress.armed a);
  Progress.enter a;
  check Alcotest.int "enter flips to odd" 1 (Progress.epoch a);
  check Alcotest.bool "armed inside the region" true (Progress.armed a);
  Progress.tick b;
  Progress.tick b;
  check Alcotest.int "tick adds two" 4 (Progress.epoch b);
  check Alcotest.bool "tick preserves parity" false (Progress.armed b);
  check Alcotest.int "total sums every leg" 5 (Progress.total p);
  Progress.leave a;
  check Alcotest.int "leave flips back to even" 2 (Progress.epoch a);
  check Alcotest.bool "disarmed after leave" false (Progress.armed a);
  check Alcotest.int "two legs registered" 2 (List.length (Progress.legs p))

(* -- deadline grammar --------------------------------------------------- *)

let test_deadline_grammar () =
  let spec = "500;parallel.po=200;join.helper=2000" in
  let d = dl spec in
  check Alcotest.string "round-trips" spec (Watchdog.deadlines_to_string d);
  check Alcotest.int "prefix override" 200
    (Watchdog.deadline_ms d "parallel.pop");
  check Alcotest.int "exact override" 2000
    (Watchdog.deadline_ms d "join.helper");
  check Alcotest.int "default" 500 (Watchdog.deadline_ms d "parallel.push");
  (* first matching prefix wins *)
  let d = dl "100;join=7;join.helper=9" in
  check Alcotest.int "first match wins" 7
    (Watchdog.deadline_ms d "join.helper");
  List.iter
    (fun bad ->
      match Watchdog.deadlines_of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" bad)
    [ ""; "0"; "-5"; "abc"; "100;nodeq"; "100;=5"; "100;join=0";
      "100;join=q" ];
  (* an override must be a prefix of one of the runtime's seams; a
     misspelt or retired one (the shard rings, the exchange mesh, the
     per-shard work legs) would never apply, and the error lists the
     seams there are *)
  List.iter
    (fun good ->
      match Watchdog.deadlines_of_string ("100;" ^ good ^ "=5") with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%S names a seam: %s" good e)
    [ "p"; "parallel"; "parallel.push"; "parallel.pop"; "spawn";
      "spawn.helper"; "j"; "join.helper" ];
  List.iter
    (fun bad ->
      match Watchdog.deadlines_of_string bad with
      | Ok _ -> Alcotest.failf "%S must be rejected" bad
      | Error e ->
          let want =
            "parallel.push, parallel.pop, spawn.helper, join.helper"
          in
          check Alcotest.bool
            (Fmt.str "the error for %S lists the seams" bad)
            true
            (List.exists
               (fun i -> String.sub e i (String.length want) = want)
               (List.init
                  (max 0 (String.length e - String.length want + 1))
                  Fun.id)))
    [ "500;paralel.pop=1;bogus=1"; "100;bogus=1"; "100;xchg=200";
      "100;xchg.0.1.push=5"; "100;parallel.shard1=5"; "100;spawn.shard0=5";
      "100;join.shard1=5"; "100;work=5"; "100;parallel.popx=5" ];
  (match Watchdog.deadlines 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deadline 0 ms must be rejected");
  match Watchdog.deadlines ~overrides:[ ("", 5) ] 10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty prefix must be rejected"

(* -- shared sampler ----------------------------------------------------- *)

let test_shared_sampler () =
  with_watchdog @@ fun () ->
  (* a heartbeat-style job and the watchdog check share one sampler
     domain; stopping the watchdog must not stop the shared sampler *)
  let s = Sampler.create () in
  Fun.protect ~finally:(fun () -> Sampler.stop s) @@ fun () ->
  let beats = Atomic.make 0 in
  let job =
    Sampler.add s ~name:"beat" ~interval_ms:5 (fun () -> Atomic.incr beats)
  in
  let wd = Watchdog.create ~sampler:s (dl "20") in
  Unix.sleepf 0.08;
  check Alcotest.bool "shared job ran" true (Atomic.get beats > 0);
  check Alcotest.bool "watchdog checked on the shared domain" true
    (Watchdog.checks wd > 0);
  Watchdog.stop wd;
  let checks_after = Watchdog.checks wd in
  let beats_at_stop = Atomic.get beats in
  Unix.sleepf 0.05;
  check Alcotest.int "no check after stop" checks_after (Watchdog.checks wd);
  check Alcotest.bool "shared sampler survives watchdog stop" true
    (Atomic.get beats > beats_at_stop);
  Sampler.remove s job;
  let frozen = Atomic.get beats in
  Unix.sleepf 0.03;
  check Alcotest.int "remove is synchronous" frozen (Atomic.get beats)

(* -- miss detection and cascade (deterministic, via check_now) ---------- *)

let test_miss_detection_and_cascade () =
  with_watchdog @@ fun () ->
  with_wd "25" @@ fun wd ->
  let order = ref [] in
  Watchdog.on_miss wd ~name:"alpha" (fun () -> order := "alpha" :: !order);
  Watchdog.on_miss wd ~name:"parallel" (fun () ->
      order := "parallel" :: !order);
  let p = Watchdog.progress wd in
  let lg = Progress.leg p "parallel.push" in
  Progress.enter lg;
  Watchdog.check_now wd;
  Unix.sleepf 0.06;
  Watchdog.check_now wd;
  (match Watchdog.fired wd with
  | None -> Alcotest.fail "armed leg frozen past its deadline must fire"
  | Some m ->
      check Alcotest.string "stalled seam" "parallel.push" m.Watchdog.m_seam;
      check Alcotest.bool "frozen epoch is odd (armed)" true
        (m.Watchdog.m_epoch land 1 = 1);
      check Alcotest.bool "blocked at least the deadline" true
        (m.Watchdog.m_blocked_ns >= m.Watchdog.m_deadline_ns);
      check Alcotest.int "deadline as configured" 25_000_000
        m.Watchdog.m_deadline_ns;
      check Alcotest.bool "armed portrait lists the seam" true
        (List.mem_assoc "parallel.push" m.Watchdog.m_armed));
  check
    Alcotest.(list string)
    "hooks prefixing the seam run first" [ "parallel"; "alpha" ]
    (List.rev !order);
  Progress.leave lg;
  Unix.sleepf 0.06;
  Watchdog.check_now wd;
  check Alcotest.int "a fired watchdog never re-cascades" 2
    (List.length !order)

let test_global_quiet_suppresses_misses () =
  with_watchdog @@ fun () ->
  with_wd "25" @@ fun wd ->
  let p = Watchdog.progress wd in
  let parked = Progress.leg p "parallel.pop" in
  let busy = Progress.leg p "parallel.push" in
  let idle = Progress.leg p "join.helper" in
  ignore idle;
  Progress.enter parked;
  (* the parked leg is armed and frozen for far longer than its
     deadline, but some other leg keeps ticking: the global pulse
     moves, so nothing may fire *)
  for _ = 1 to 8 do
    Unix.sleepf 0.012;
    Progress.tick busy;
    Watchdog.check_now wd
  done;
  check Alcotest.bool "no false positive while anything ticks" true
    (Watchdog.fired wd = None);
  (* an unarmed frozen leg never fires either: stop ticking, wait out
     the deadline — only the armed leg may be blamed *)
  Unix.sleepf 0.06;
  Watchdog.check_now wd;
  (match Watchdog.fired wd with
  | None -> Alcotest.fail "a genuine global freeze must fire"
  | Some m ->
      check Alcotest.string "the armed leg is blamed" "parallel.pop"
        m.Watchdog.m_seam);
  Progress.leave parked

(* -- stalls vs deadlines, end to end ------------------------------------ *)

let run_crc ?chaos ?watchdog ?degrade () =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:12 ~seed:3 in
  Parallel.run_result ?chaos ?watchdog ?degrade ~queue_capacity:4
    ~batch_size:1 w.Workload.program ~input

let inline_crc () =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:12 ~seed:3 in
  (Parallel.run_inline w.Workload.program ~input).Parallel.i_result

let test_stall_past_deadline_two_domain () =
  with_watchdog @@ fun () ->
  (* the helper wedges for 400 ms against a 50 ms deadline: the run
     must terminate with a structured [`Deadline] error, and the
     bundle rendering must carry the stalled-seam portrait *)
  with_wd "50" @@ fun wd ->
  match run_crc ~chaos:(chaos "pop@2=stall:400000000") ~watchdog:wd () with
  | Ok _ -> Alcotest.fail "a wedge past its deadline must surface"
  | Error e ->
      check Alcotest.bool "deadline leg" true (e.Parallel.e_leg = `Deadline);
      check Alcotest.bool "Deadline_exceeded primary" true
        (is_deadline e.Parallel.e_exn);
      check Alcotest.bool "watchdog agrees" true (Watchdog.fired wd <> None);
      check Alcotest.bool "error_json carries the deadline object" true
        (Json.member "deadline" (Postmortem.error_json e) <> None)

let test_stall_within_deadline_invisible () =
  with_watchdog @@ fun () ->
  (* a 30 ms stall against a 400 ms deadline: timing noise only — the
     run completes bit-identically and the watchdog never fires *)
  let c = chaos "pop@2=stall:30000000" in
  with_wd "400" @@ fun wd ->
  match run_crc ~chaos:c ~watchdog:wd () with
  | Error e ->
      Alcotest.failf "stall inside the deadline failed the run: %a"
        Parallel.pp_error e
  | Ok r ->
      check Alcotest.bool "no miss" true (Watchdog.fired wd = None);
      check Alcotest.bool "not degraded" true (r.Parallel.degraded = None);
      same_result "stall within deadline" (inline_crc ()) r.Parallel.result;
      check Alcotest.bool "stall accounted" true
        (Chaos.stalled_ns c >= 30_000_000)

let test_stall_clamp () =
  with_watchdog ~timeout_s:30. @@ fun () ->
  (* a 10 s injected stall is clamped (2 s max), so even with the
     cascade long done the stalled domain wakes and joins promptly —
     the sweep can never be held hostage by its own fault plan *)
  let c = chaos "pop@2=stall:10000000000" in
  let t0 = Unix.gettimeofday () in
  (with_wd "50" @@ fun wd ->
   match run_crc ~chaos:c ~watchdog:wd () with
   | Ok _ -> Alcotest.fail "the clamped wedge must still miss its deadline"
   | Error e ->
       check Alcotest.bool "deadline leg" true
         (e.Parallel.e_leg = `Deadline));
  let wall = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "join bounded by the clamp" true (wall < 10.);
  check Alcotest.bool "slept the clamp, not the plan" true
    (Chaos.stalled_ns c >= 1_000_000_000 && Chaos.stalled_ns c < 5_000_000_000)

(* -- degraded-mode inline completion ------------------------------------ *)

let test_degrade_helper_crash () =
  with_watchdog @@ fun () ->
  match run_crc ~chaos:(chaos "pop@2=crash") ~degrade:`Inline () with
  | Error e ->
      Alcotest.failf "degraded run must complete: %a" Parallel.pp_error e
  | Ok r -> (
      same_result "degraded helper crash" (inline_crc ()) r.Parallel.result;
      match r.Parallel.degraded with
      | None -> Alcotest.fail "report must be flagged degraded"
      | Some d ->
          check Alcotest.bool "helper leg" true (d.Parallel.d_leg = `Helper);
          check Alcotest.bool "resumed past a real cutoff" true
            (d.Parallel.d_cutoff_step >= 0);
          check Alcotest.bool "replayed only the suffix" true
            (d.Parallel.d_replayed_events > 0
            && d.Parallel.d_replayed_events
               < r.Parallel.result.Parallel.events))

let test_degrade_spawn_failure () =
  with_watchdog @@ fun () ->
  match run_crc ~chaos:(chaos "spawn@1=crash") ~degrade:`Inline () with
  | Error e ->
      Alcotest.failf "degraded run must complete: %a" Parallel.pp_error e
  | Ok r -> (
      same_result "degraded spawn failure" (inline_crc ()) r.Parallel.result;
      match r.Parallel.degraded with
      | None -> Alcotest.fail "report must be flagged degraded"
      | Some d ->
          check Alcotest.bool "spawn leg" true (d.Parallel.d_leg = `Spawn);
          check Alcotest.int "nothing was processed before the failure" (-1)
            d.Parallel.d_cutoff_step;
          check Alcotest.int "the whole run was replayed"
            r.Parallel.result.Parallel.events d.Parallel.d_replayed_events)

let test_degrade_deadline_miss () =
  with_watchdog @@ fun () ->
  (* the wedge is detected, the cascade tears the plane down, and the
     application domain completes inline: Ok, flagged [`Deadline] *)
  with_wd "50" @@ fun wd ->
  match
    run_crc ~chaos:(chaos "pop@2=stall:300000000") ~watchdog:wd
      ~degrade:`Inline ()
  with
  | Error e ->
      Alcotest.failf "degraded run must complete: %a" Parallel.pp_error e
  | Ok r -> (
      same_result "degraded deadline miss" (inline_crc ()) r.Parallel.result;
      match r.Parallel.degraded with
      | None -> Alcotest.fail "report must be flagged degraded"
      | Some d ->
          check Alcotest.bool "deadline leg" true
            (d.Parallel.d_leg = `Deadline);
          check Alcotest.bool "failure was a deadline miss" true
            (is_deadline d.Parallel.d_exn))

let test_degrade_does_not_mask_app_crash () =
  with_watchdog @@ fun () ->
  (* an application-leg failure is the caller's own crash: degraded
     completion must not swallow it *)
  match run_crc ~chaos:(chaos "push@3=crash") ~degrade:`Inline () with
  | Ok _ -> Alcotest.fail "an app crash must not be degraded away"
  | Error e -> check Alcotest.bool "app leg" true (e.Parallel.e_leg = `App)

(* -- QCheck: false-positive freedom on clean runs ----------------------- *)

let prop_clean_two_domain_never_trips =
  QCheck2.Test.make ~count:12
    ~name:"watchdog: clean two-domain runs never trip"
    QCheck2.Gen.(pair (int_range 4 16) (int_range 0 1000))
    (fun (size, seed) ->
      let w = kernel "hash" in
      let input = w.Workload.input ~size ~seed in
      let inline = Parallel.run_inline w.Workload.program ~input in
      with_wd "250" @@ fun wd ->
      match
        Parallel.run_result ~watchdog:wd ~queue_capacity:4 ~batch_size:2
          w.Workload.program ~input
      with
      | Error _ -> false
      | Ok r ->
          Watchdog.fired wd = None
          && r.Parallel.degraded = None
          && r.Parallel.result = inline.Parallel.i_result)

(* -- livefilter generation reset ---------------------------------------- *)

let lf_prog =
  Program.make [ Func.make ~name:"main" ~arity:0 [| Instr.Halt |] ]

let lf_func = Program.find lf_prog "main"

let lf_ev step ?(reads = []) ?(writes = []) ?(input_index = -1) instr =
  {
    Event.step;
    tid = 0;
    func = lf_func;
    pc = 0;
    instr;
    reads;
    writes;
    addr = -1;
    next_pc = 0;
    input_index;
    value = 0;
  }

let source step ~writes = lf_ev step ~writes ~input_index:0
    (Instr.Sys (Instr.Read Reg.r0))

let mov step ?(reads = []) ?(writes = []) () =
  lf_ev step ~reads ~writes (Instr.Mov (Reg.r0, Operand.Reg Reg.r1))

let test_livefilter_reset_cycle () =
  (* one producer, one consumer slot, reset every 4 admits: the taint
     on [mem 0] is published, the page saturates H, the consumer's
     taint then dies — after the quiescent reset and an empty
     repopulation, events touching the page are filtered again *)
  (* mem 0 and mem 4096 hash to distinct stamp words (one word covers
     2048 locations), so the source's stamp cannot alias the page
     under test *)
  let lf = Livefilter.create ~reset_interval:4 ~slots:1 () in
  check Alcotest.bool "source forwarded" true
    (Livefilter.admit lf (source 0 ~writes:[ Loc.mem 4096 ]));
  Livefilter.publish_loc lf (Loc.mem 0);
  Livefilter.advance lf ~slot:0 ~step:0;
  (* H-driven liveness: reads of the published page must go through *)
  for i = 1 to 2 do
    check Alcotest.bool "published page is live" true
      (Livefilter.admit lf (mov i ~reads:[ Loc.mem 0 ] ()));
    Livefilter.advance lf ~slot:0 ~step:i
  done;
  check Alcotest.int "no reset yet" 0 (Livefilter.resets lf);
  (* the 4th admit reaches the reset interval at a quiescent point
     (every epoch covers the last forwarded step): H is cleared, the
     generation bumps, the filter stands down *)
  check Alcotest.bool "standdown admit forwards" true
    (Livefilter.admit lf (mov 3 ~reads:[ Loc.mem 0 ] ()));
  check Alcotest.int "one completed clear" 1 (Livefilter.resets lf);
  check Alcotest.int "generation bumped" 1 (Livefilter.generation lf);
  check Alcotest.bool "standing down" true (Livefilter.reset_pending lf);
  (* the consumer's taint died before the reset: its repopulation dump
     publishes nothing, then acks the generation *)
  Livefilter.advance ~repopulate:(fun () -> ()) lf ~slot:0 ~step:3;
  (* filtering resumes, and the stale page is clean again *)
  check Alcotest.bool "stale page filtered after the reset" false
    (Livefilter.admit lf (mov 4 ~reads:[ Loc.mem 0 ] ()));
  check Alcotest.bool "standdown over" false (Livefilter.reset_pending lf);
  check Alcotest.int "the drop is counted" 1 (Livefilter.filtered lf)

let test_livefilter_reset_awaits_every_ack () =
  (* two consumer slots: the filter stands down until *both* have
     republished and acked the new generation *)
  let lf = Livefilter.create ~reset_interval:2 ~slots:2 () in
  check Alcotest.bool "source forwarded" true
    (Livefilter.admit lf (source 0 ~writes:[ Loc.mem 4096 ]));
  Livefilter.advance lf ~slot:0 ~step:0;
  Livefilter.advance lf ~slot:1 ~step:0;
  check Alcotest.bool "reset admit forwards" true
    (Livefilter.admit lf (mov 1 ~reads:[ Loc.mem 4096 ] ()));
  check Alcotest.bool "standing down" true (Livefilter.reset_pending lf);
  Livefilter.advance ~repopulate:(fun () -> ()) lf ~slot:0 ~step:1;
  check Alcotest.bool "one ack is not enough" true
    (Livefilter.admit lf (mov 2 ~reads:[ Loc.mem 8192 ] ()));
  check Alcotest.bool "still standing down" true
    (Livefilter.reset_pending lf);
  Livefilter.advance ~repopulate:(fun () -> ()) lf ~slot:1 ~step:2;
  Livefilter.advance lf ~slot:0 ~step:2;
  check Alcotest.bool "after both acks filtering resumes" false
    (Livefilter.admit lf (mov 3 ~reads:[ Loc.mem 8192 ] ()));
  check Alcotest.bool "standdown over" false (Livefilter.reset_pending lf)

let test_livefilter_reset_disabled () =
  let lf = Livefilter.create ~reset_interval:0 ~slots:1 () in
  check Alcotest.bool "source forwarded" true
    (Livefilter.admit lf (source 0 ~writes:[ Loc.mem 0 ]));
  Livefilter.publish_loc lf (Loc.mem 0);
  Livefilter.advance lf ~slot:0 ~step:0;
  for i = 1 to 50 do
    ignore (Livefilter.admit lf (mov i ~reads:[ Loc.mem 0 ] ()));
    Livefilter.advance lf ~slot:0 ~step:i
  done;
  check Alcotest.int "interval 0 never resets" 0 (Livefilter.resets lf);
  check Alcotest.int "generation never moves" 0 (Livefilter.generation lf)

let test_livefilter_reset_bit_identical () =
  with_watchdog ~timeout_s:120. @@ fun () ->
  (* end to end: a run long enough to cross the runtime's default
     reset interval (8192 admits) stays bit-identical to the inline
     baseline, with the filter actually earning *)
  let w = Spec_like.search in
  let input = w.Workload.input ~size:2000 ~seed:1 in
  let inline = Parallel.run_inline w.Workload.program ~input in
  check Alcotest.bool "the run crosses the reset interval" true
    (inline.Parallel.i_result.Parallel.events > 8192);
  let r =
    ok (Parallel.run_result ~forward_filter:true w.Workload.program ~input)
  in
  same_result "filtered two-domain across resets"
    inline.Parallel.i_result r.Parallel.result;
  check Alcotest.bool "filter earned" true (r.Parallel.filtered_events > 0)

let suite =
  [
    Alcotest.test_case "progress epoch parity" `Quick test_progress_parity;
    Alcotest.test_case "deadline grammar" `Quick test_deadline_grammar;
    Alcotest.test_case "shared sampler" `Quick test_shared_sampler;
    Alcotest.test_case "miss detection and cascade order" `Quick
      test_miss_detection_and_cascade;
    Alcotest.test_case "global quiet suppresses misses" `Quick
      test_global_quiet_suppresses_misses;
    Alcotest.test_case "stall past deadline (two-domain)" `Quick
      test_stall_past_deadline_two_domain;
    Alcotest.test_case "stall within deadline invisible" `Quick
      test_stall_within_deadline_invisible;
    Alcotest.test_case "stall clamp bounds the join" `Quick test_stall_clamp;
    Alcotest.test_case "degrade: helper crash" `Quick
      test_degrade_helper_crash;
    Alcotest.test_case "degrade: spawn failure" `Quick
      test_degrade_spawn_failure;
    Alcotest.test_case "degrade: deadline miss" `Quick
      test_degrade_deadline_miss;
    Alcotest.test_case "degrade: app crash not masked" `Quick
      test_degrade_does_not_mask_app_crash;
    Alcotest.test_case "livefilter: reset cycle" `Quick
      test_livefilter_reset_cycle;
    Alcotest.test_case "livefilter: reset awaits every ack" `Quick
      test_livefilter_reset_awaits_every_ack;
    Alcotest.test_case "livefilter: resets disabled" `Quick
      test_livefilter_reset_disabled;
    Alcotest.test_case "livefilter: bit-identical across resets" `Quick
      test_livefilter_reset_bit_identical;
  ]
  @ List.map Qcheck_run.to_alcotest
      [ prop_clean_two_domain_never_trips ]
