(* Tests for the streaming execution tracer (Obs.Trace): event
   recording and kinds, per-domain tracks, counter-track remapping,
   the bounded-buffer drop policy with its registry accounting, the
   Chrome trace-event JSON rendering, and the acceptance shape of a
   real two-domain run — at least three distinct tracks with duration
   spans on both domain tracks and a sampled ring-occupancy counter
   track. *)

open Dift_obs
open Dift_workloads

let check = Alcotest.check

(* Unwrap a run that must succeed. *)
let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "run failed: %a" Dift_parallel.Parallel.pp_error e

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
  at 0

(* -- event recording -------------------------------------------------- *)

let test_basic_events () =
  let tr = Trace.create ~capacity:128 () in
  Trace.name_track tr "main";
  let x = Trace.span tr ~cat:"t" "work" (fun () -> 21 * 2) in
  check Alcotest.int "span returns the thunk's value" 42 x;
  Trace.instant tr ~cat:"t" "mark";
  Trace.counter tr ~cat:"t" "depth" 3;
  Trace.complete_ns tr ~cat:"t" "manual" ~start_ns:10 ~dur_ns:5;
  check Alcotest.int "buffered" 4 (Trace.buffered tr);
  check Alcotest.int "nothing dropped" 0 (Trace.dropped tr);
  let tracks = Trace.tracks tr and evs = Trace.events tr in
  check Alcotest.int "four events" 4 (List.length evs);
  let by_name n = List.find (fun e -> e.Trace.name = n) evs in
  (match (by_name "work").Trace.kind with
  | Trace.Span { dur_ns } ->
      check Alcotest.bool "span duration non-negative" true (dur_ns >= 0)
  | _ -> Alcotest.fail "work must be a span");
  (match (by_name "mark").Trace.kind with
  | Trace.Instant -> ()
  | _ -> Alcotest.fail "mark must be an instant");
  (match (by_name "depth").Trace.kind with
  | Trace.Sample { value } -> check Alcotest.int "sample value" 3 value
  | _ -> Alcotest.fail "depth must be a sample");
  let self = (Domain.self () :> int) in
  check Alcotest.int "spans ride the recording domain's track" self
    (by_name "work").Trace.tid;
  check Alcotest.bool "counter remapped off the domain track" true
    ((by_name "depth").Trace.tid <> self);
  check Alcotest.bool "domain track is named" true
    (List.mem (self, "main") tracks);
  check Alcotest.bool "counter track named after the series" true
    (List.exists (fun (_, n) -> n = "depth") tracks)

let test_span_records_on_raise () =
  let tr = Trace.create ~capacity:16 () in
  (try
     Trace.span tr "boom" (fun () -> failwith "x") |> ignore;
     Alcotest.fail "exception must propagate"
   with Failure _ -> ());
  check Alcotest.int "span recorded despite the raise" 1 (Trace.buffered tr)

(* -- JSON rendering ---------------------------------------------------- *)

let test_chrome_json () =
  let tr = Trace.create ~capacity:64 () in
  Trace.name_track tr "main";
  ignore (Trace.span tr ~cat:"t" "work" (fun () -> ()));
  Trace.counter tr ~cat:"t" "depth" 7;
  let s = Json.to_string (Trace.to_json tr) in
  check Alcotest.bool "renders a JSON array" true (s.[0] = '[');
  List.iter
    (fun needle ->
      check Alcotest.bool (Fmt.str "contains %S" needle) true
        (contains s needle))
    [
      "\"thread_name\""; "\"process_name\""; "\"ph\": \"X\"";
      "\"ph\": \"C\""; "\"ph\": \"M\""; "\"pid\": 1"; "\"value\": 7";
    ]

(* -- bounded buffers and drop accounting ------------------------------- *)

(* Below the cap nothing is lost: two domains each record a known
   number of spans and every one appears in the merge.  Over the cap,
   events are dropped and counted — in the tracer and in the
   registry's [trace.dropped] counter — never silently truncated. *)
let test_capacity_and_drops () =
  let cap = 512 in
  let tr = Trace.create ~capacity:cap () in
  let reg = Registry.create () in
  Trace.register_obs tr reg;
  let spans_per_domain = 200 in
  let record () =
    for i = 1 to spans_per_domain do
      Trace.complete_ns tr ~cat:"t" "tick" ~start_ns:i ~dur_ns:1
    done
  in
  let d = Domain.spawn record in
  record ();
  Domain.join d;
  check Alcotest.int "all spans retained below the cap"
    (2 * spans_per_domain) (Trace.buffered tr);
  check Alcotest.int "no drops below the cap" 0 (Trace.dropped tr);
  check Alcotest.int "merge loses nothing" (2 * spans_per_domain)
    (List.length (Trace.events tr));
  (* a fresh domain overflows its own buffer by exactly [cap] *)
  Domain.join
    (Domain.spawn (fun () ->
         for _ = 1 to 2 * cap do
           Trace.instant tr "burst"
         done));
  check Alcotest.int "buffer retains up to the cap"
    ((2 * spans_per_domain) + cap)
    (Trace.buffered tr);
  check Alcotest.int "overflow counted, not silent" cap (Trace.dropped tr);
  match Registry.(find (snapshot reg) "trace.dropped") with
  | Some (Registry.Counter_v v) ->
      check Alcotest.int "registry mirrors the drop count" cap v
  | _ -> Alcotest.fail "trace.dropped missing from snapshot"

(* -- the two-domain runtime on a timeline ------------------------------ *)

(* The acceptance shape: a parallel run yields at least three distinct
   track ids (app domain, helper domain, ring-occupancy counter),
   duration spans on both domain tracks, and zero drops at default
   capacity. *)
let test_two_domain_timeline () =
  let w = Spec_like.crc in
  let input = w.Workload.input ~size:40 ~seed:1 in
  let reg = Registry.create () in
  let tr = Trace.create () in
  Trace.register_obs tr reg;
  let r =
    ok (Dift_parallel.Parallel.run_result ~obs:reg ~trace:tr ~queue_capacity:4
        ~batch_size:16 w.Workload.program ~input)
  in
  check Alcotest.bool "run did work" true
    (r.Dift_parallel.Parallel.result.Dift_parallel.Parallel.events > 0);
  let tracks = Trace.tracks tr and evs = Trace.events tr in
  let module IS = Set.Make (Int) in
  let tids = IS.of_list (List.map (fun e -> e.Trace.tid) evs) in
  check Alcotest.bool "at least three distinct tracks" true
    (IS.cardinal tids >= 3);
  let span_tids =
    IS.of_list
      (List.filter_map
         (fun e ->
           match e.Trace.kind with
           | Trace.Span _ -> Some e.Trace.tid
           | _ -> None)
         evs)
  in
  check Alcotest.bool "duration spans on both domain tracks" true
    (IS.cardinal span_tids >= 2);
  let name_of tid = List.assoc_opt tid tracks in
  check Alcotest.bool "app track named" true
    (List.exists (fun tid -> name_of tid = Some "app") (IS.elements tids));
  check Alcotest.bool "helper track named" true
    (List.exists (fun tid -> name_of tid = Some "helper") (IS.elements tids));
  let has_event name =
    List.exists (fun e -> e.Trace.name = name) evs
  in
  List.iter
    (fun n -> check Alcotest.bool (Fmt.str "recorded %s" n) true (has_event n))
    [ "app.run"; "helper.drain"; "engine.batch"; "ring.occupancy" ];
  (* ring.occupancy lives on its own synthetic counter track *)
  let occ =
    List.find (fun e -> e.Trace.name = "ring.occupancy") evs
  in
  check Alcotest.bool "occupancy on a counter track" true
    (not (List.exists (fun tid -> tid = occ.Trace.tid)
            (IS.elements span_tids)));
  check Alcotest.int "no drops at default capacity" 0 (Trace.dropped tr);
  (match Registry.(find (snapshot reg) "trace.dropped") with
  | Some (Registry.Counter_v v) -> check Alcotest.int "snapshot agrees" 0 v
  | _ -> Alcotest.fail "trace.dropped missing from snapshot");
  (* satellite: the helper's per-batch span made it into the registry *)
  match Registry.(find (snapshot reg) "parallel.helper.batch") with
  | Some (Registry.Span_v { count; mean_ns; _ }) ->
      check Alcotest.bool "batches timed" true (count > 0);
      check Alcotest.bool "mean computed" true (mean_ns >= 0)
  | _ -> Alcotest.fail "parallel.helper.batch missing from snapshot"

(* Cross-validation under tracing: the timeline must not perturb the
   tracked computation. *)
let test_traced_run_matches_inline () =
  let w = Spec_like.bfs in
  let input = w.Workload.input ~size:16 ~seed:3 in
  let tr = Trace.create () in
  let r =
    ok (Dift_parallel.Parallel.run_result ~trace:tr ~queue_capacity:2
        ~batch_size:8 w.Workload.program ~input)
  in
  let i = Dift_parallel.Parallel.run_inline w.Workload.program ~input in
  check Alcotest.bool "same result as untraced inline" true
    (r.Dift_parallel.Parallel.result
    = i.Dift_parallel.Parallel.i_result)

(* -- the engine's samples ----------------------------------------------- *)

(* Where and when the engine's instruments fire, pinned on a run long
   enough for two progress milestones: crc at size 450, seed 3, is
   4,507 events.  [engine.progress] fires on the first processed event
   and every 4,096th after it ([a] = events counting this one, [b] =
   sink hits before it), on the ring of the domain that processes —
   [app] inline, [helper] under two domains; the shadow footprint is
   sampled on the first processed event and every 256th after it, so
   18 times, the first before any taint exists. *)
let test_engine_samples () =
  let w = Spec_like.crc in
  let input = w.Workload.input ~size:450 ~seed:3 in
  let module P = Dift_parallel.Parallel in
  let pinned ~ring run =
    let tr = Trace.create () and fl = Flight.create ~capacity:4096 () in
    let events = run ~trace:tr ~flight:fl in
    check Alcotest.int (ring ^ ": events") 4507 events;
    let progress =
      List.concat_map
        (fun (t : Flight.tail) ->
          List.filter_map
            (fun (e : Flight.entry) ->
              if e.name = "engine.progress" then Some (t.t_domain, e.a, e.b)
              else None)
            t.t_entries)
        (Flight.tails fl)
    in
    check
      Alcotest.(list (triple string int int))
      (ring ^ ": engine.progress milestones")
      [ (ring, 1, 0); (ring, 4097, 410) ]
      progress;
    let words =
      List.filter_map
        (fun (e : Trace.event) ->
          match e.Trace.kind with
          | Trace.Sample { value } when e.Trace.name = "shadow.words" ->
              Some value
          | _ -> None)
        (Trace.events tr)
    in
    check Alcotest.int (ring ^ ": shadow.words samples") 18
      (List.length words);
    check Alcotest.int (ring ^ ": first sample") 0 (List.hd words)
  in
  pinned ~ring:"app" (fun ~trace ~flight ->
      (P.run_inline ~trace ~flight w.Workload.program ~input).P.i_result
        .P.events);
  pinned ~ring:"helper" (fun ~trace ~flight ->
      (ok (P.run_result ~trace ~flight w.Workload.program ~input)).P.result
        .P.events)

(* -- register_obs idempotence regression ------------------------------- *)

(* Re-attaching a registry used to re-add the carried-over drop count
   on every call ([add (dropped t)]) and double-count [trace.dropped];
   the carry-over is now the delta against what the counter already
   holds, so any number of attachments mirrors the drop count
   exactly. *)
let test_register_obs_idempotent () =
  let cap = 64 in
  let tr = Trace.create ~capacity:cap () in
  Domain.join
    (Domain.spawn (fun () ->
         for _ = 1 to 2 * cap do
           Trace.instant tr "burst"
         done));
  check Alcotest.int "overflow counted" cap (Trace.dropped tr);
  let reg = Registry.create () in
  Trace.register_obs tr reg;
  Trace.register_obs tr reg;
  (match Registry.(find (snapshot reg) "trace.dropped") with
  | Some (Registry.Counter_v v) ->
      check Alcotest.int "re-attachment does not double-count" cap v
  | _ -> Alcotest.fail "trace.dropped missing from snapshot");
  (* a second, fresh registry still receives the full carry-over *)
  let reg2 = Registry.create () in
  Trace.register_obs tr reg2;
  match Registry.(find (snapshot reg2) "trace.dropped") with
  | Some (Registry.Counter_v v) ->
      check Alcotest.int "fresh registry gets the full count" cap v
  | _ -> Alcotest.fail "trace.dropped missing from second snapshot"

(* -- merge-quiescence precondition -------------------------------------- *)

(* [to_json] requires every traced domain to have quiesced; the
   precondition is asserted best-effort.  Exercise the checked paths:
   after the recording domain is joined the export succeeds, and a
   recorder that is live but idle either yields a well-formed export
   or trips the assertion — never a torn crash. *)
let test_merge_quiescence () =
  let tr = Trace.create () in
  Domain.join
    (Domain.spawn (fun () ->
         for i = 1 to 10 do
           Trace.complete_ns tr ~cat:"t" "tick" ~start_ns:i ~dur_ns:1
         done));
  (* quiesced: export is safe and complete *)
  (match Trace.to_json tr with
  | Json.List _ -> ()
  | _ -> Alcotest.fail "to_json must yield a trace-event array");
  check Alcotest.int "all spans exported" 10
    (List.length (Trace.events tr));
  (* a live recorder between bursts: repeated exports must either
     succeed or fail the stated precondition check, nothing else *)
  let stop = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Trace.instant tr "live";
          Domain.cpu_relax ()
        done)
  in
  for _ = 1 to 50 do
    match Trace.to_json tr with
    | (_ : Json.t) -> ()
    | exception Invalid_argument _ -> ()
    | exception Assert_failure _ -> ()
  done;
  Atomic.set stop true;
  Domain.join d;
  match Trace.to_json tr with
  | (_ : Json.t) -> ()
  | exception _ -> Alcotest.fail "quiesced export must succeed"

(* The seqlock hardening behind the quiescence check: with several
   domains recording flat out, a concurrent merge must either return a
   consistent snapshot or raise the stated precondition — the
   per-buffer epoch detects a torn read deterministically, where the
   old length-snapshot heuristic could miss one.  After the join, the
   merge must account for every recorded event. *)
let test_merge_seqlock_storm () =
  let tr = Trace.create () in
  let per_domain = 2_000 in
  let stop = Atomic.make false in
  let recorders =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let name = Fmt.str "storm-%d" d in
            Trace.name_track tr name;
            for i = 1 to per_domain do
              Trace.instant tr ~cat:"storm" (Fmt.str "e%d" i)
            done;
            (* keep mutating until the reader is done, so merges keep
               racing live writes, not just the tail of them.  Renaming
               brackets its write with the same odd epoch as recording
               but adds no event: buffers filled by spinning made every
               later merge sort up to the 65,536-event cap per domain,
               and the test ran for minutes whenever the spinners got
               there before the reader finished. *)
            while not (Atomic.get stop) do
              Trace.name_track tr name;
              Domain.cpu_relax ()
            done))
  in
  for _ = 1 to 200 do
    match Trace.events tr with
    | (_ : Trace.event list) -> ()
    | exception Invalid_argument _ -> ()
  done;
  Atomic.set stop true;
  List.iter Domain.join recorders;
  let events = Trace.events tr in
  check Alcotest.bool "post-join merge covers every burst" true
    (List.length events >= 3 * per_domain);
  check Alcotest.int "all three tracks present (plus the main track's name)"
    3
    (List.length
       (List.filter
          (fun (_, n) -> String.length n >= 5 && String.sub n 0 5 = "storm")
          (Trace.tracks tr)))

let suite =
  [
    Alcotest.test_case "basic events" `Quick test_basic_events;
    Alcotest.test_case "span records on raise" `Quick
      test_span_records_on_raise;
    Alcotest.test_case "chrome json" `Quick test_chrome_json;
    Alcotest.test_case "capacity and drops" `Quick test_capacity_and_drops;
    Alcotest.test_case "two-domain timeline" `Quick test_two_domain_timeline;
    Alcotest.test_case "traced run matches inline" `Quick
      test_traced_run_matches_inline;
    Alcotest.test_case "engine samples" `Quick test_engine_samples;
    Alcotest.test_case "register_obs is idempotent" `Quick
      test_register_obs_idempotent;
    Alcotest.test_case "merge requires quiescence" `Quick
      test_merge_quiescence;
    Alcotest.test_case "merge seqlock storm" `Quick test_merge_seqlock_storm;
  ]
