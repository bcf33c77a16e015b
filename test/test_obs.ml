(* Tests for the observability layer: the metrics registry (counters,
   gauges, histograms, spans), snapshotting and its JSON rendering,
   and the cross-domain stats-correctness regression — a third domain
   snapshotting Spsc counters while two domains hammer the ring. *)

open Dift_obs

let check = Alcotest.check

(* -- counters / gauges ----------------------------------------------------- *)

let test_counter () =
  let reg = Registry.create () in
  let c = Registry.counter reg "t.hits" ~help:"hits" in
  check Alcotest.int "starts at zero" 0 (Registry.value c);
  Registry.incr c;
  Registry.incr c;
  Registry.add c 40;
  check Alcotest.int "incr and add" 42 (Registry.value c);
  Registry.add c (-7);
  check Alcotest.int "negative add ignored (monotonic)" 42 (Registry.value c);
  (* idempotent registration returns the same cell *)
  let c' = Registry.counter reg "t.hits" in
  Registry.incr c';
  check Alcotest.int "re-registration shares the cell" 43 (Registry.value c)

let test_kind_mismatch () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "t.x");
  Alcotest.check_raises "counter re-registered as gauge"
    (Invalid_argument "Registry: t.x already registered as a counter")
    (fun () -> ignore (Registry.gauge reg "t.x"))

let test_gauge_fn_rebinds () =
  let reg = Registry.create () in
  Registry.gauge_fn reg "t.depth" (fun () -> 1);
  Registry.gauge_fn reg "t.depth" (fun () -> 2);
  match Registry.(find (snapshot reg) "t.depth") with
  | Some (Registry.Gauge_v v) ->
      check Alcotest.int "newest callback wins" 2 v
  | _ -> Alcotest.fail "t.depth missing from snapshot"

(* -- histograms ------------------------------------------------------------ *)

let test_histogram () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "t.sizes" ~buckets:[ 10; 1; 100 ] in
  List.iter (Registry.observe h) [ 0; 1; 2; 10; 11; 100; 1000 ];
  check Alcotest.int "observations" 7 (Registry.observations h);
  match Registry.(find (snapshot reg) "t.sizes") with
  | Some (Registry.Histogram_v { buckets; counts; count; sum }) ->
      check (Alcotest.list Alcotest.int) "bounds sorted" [ 1; 10; 100 ]
        buckets;
      (* <=1: {0,1}; <=10: {2,10}; <=100: {11,100}; overflow: {1000} *)
      check (Alcotest.list Alcotest.int) "bucket counts" [ 2; 2; 2; 1 ]
        counts;
      check Alcotest.int "count" 7 count;
      check Alcotest.int "sum" 1124 sum
  | _ -> Alcotest.fail "t.sizes missing from snapshot"

(* -- histogram bucket-edge regression -------------------------------------- *)

(* Bucket bounds are inclusive: an observation equal to a bound lands
   in that bound's bucket, never the next one.  Negative observations
   used to land in the lowest bucket while pulling [sum] backwards,
   making snapshots non-monotonic; now they are ignored, like negative
   counter increments. *)
let test_histogram_edges () =
  let reg = Registry.create () in
  let h = Registry.histogram reg "t.edges" ~buckets:[ 10; 20 ] in
  List.iter (Registry.observe h) [ 10; 11; 20; 21; -5 ];
  check Alcotest.int "negative observation ignored" 4
    (Registry.observations h);
  match Registry.(find (snapshot reg) "t.edges") with
  | Some (Registry.Histogram_v { buckets; counts; count; sum }) ->
      check (Alcotest.list Alcotest.int) "bounds" [ 10; 20 ] buckets;
      (* <=10: {10}; <=20: {11,20}; overflow: {21} — both exact-bound
         observations stay in their own bucket *)
      check (Alcotest.list Alcotest.int) "edge observations inclusive"
        [ 1; 2; 1 ] counts;
      check Alcotest.int "count excludes negatives" 4 count;
      check Alcotest.int "sum excludes negatives" 62 sum
  | _ -> Alcotest.fail "t.edges missing from snapshot"

(* -- spans ----------------------------------------------------------------- *)

let test_span () =
  let reg = Registry.create () in
  let s = Registry.span reg "t.phase" in
  Registry.record_ns s 500;
  let x = Registry.time s (fun () -> 21 * 2) in
  check Alcotest.int "time returns the thunk's value" 42 x;
  check Alcotest.bool "total accumulates" true
    (Registry.span_total_ns s >= 500);
  check Alcotest.int "span_count" 2 (Registry.span_count s);
  match Registry.(find (snapshot reg) "t.phase") with
  | Some (Registry.Span_v { count; total_ns; mean_ns }) ->
      check Alcotest.int "two recordings" 2 count;
      check Alcotest.bool "snapshot total" true (total_ns >= 500);
      check Alcotest.int "mean is total over count" (total_ns / 2) mean_ns
  | _ -> Alcotest.fail "t.phase missing from snapshot"

let test_span_mean () =
  let reg = Registry.create () in
  let s = Registry.span reg "t.batch" in
  Registry.record_ns s 100;
  Registry.record_ns s 300;
  (match Registry.(find (snapshot reg) "t.batch") with
  | Some (Registry.Span_v { count; total_ns; mean_ns }) ->
      check Alcotest.int "count" 2 count;
      check Alcotest.int "total" 400 total_ns;
      check Alcotest.int "mean" 200 mean_ns
  | _ -> Alcotest.fail "t.batch missing from snapshot");
  (* an empty span reports a zero mean, not a division failure *)
  let e = Registry.span reg "t.empty" in
  check Alcotest.int "empty span count" 0 (Registry.span_count e);
  (match Registry.(find (snapshot reg) "t.empty") with
  | Some (Registry.Span_v { mean_ns; _ }) ->
      check Alcotest.int "empty span mean" 0 mean_ns
  | _ -> Alcotest.fail "t.empty missing from snapshot");
  let s = Json.to_string (Registry.to_json (Registry.snapshot reg)) in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
    at 0
  in
  check Alcotest.bool "JSON carries mean_ns" true (contains "\"mean_ns\": 200")

(* -- snapshot + JSON ------------------------------------------------------- *)

let test_snapshot_json_shape () =
  let reg = Registry.create () in
  let c = Registry.counter reg "vm.events" ~help:"events" in
  Registry.add c 7;
  Registry.gauge_fn reg "core.depth" (fun () -> 3);
  let h = Registry.histogram reg "parallel.occ" ~buckets:[ 2; 4 ] in
  Registry.observe h 3;
  ignore (Registry.span reg "misc_timer");
  let json = Registry.to_json (Registry.snapshot reg) in
  (match json with
  | Json.Obj groups ->
      check
        (Alcotest.list Alcotest.string)
        "groups in first-seen order, dotless names under misc"
        [ "vm"; "core"; "parallel"; "misc" ]
        (List.map fst groups)
  | _ -> Alcotest.fail "snapshot must render to an object");
  let s = Json.to_string json in
  let contains needle =
    let n = String.length needle and m = String.length s in
    let rec at i = i + n <= m && (String.sub s i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      check Alcotest.bool
        (Fmt.str "rendering contains %S" needle)
        true (contains needle))
    [
      "\"events\": {"; "\"kind\": \"counter\""; "\"value\": 7";
      "\"kind\": \"gauge\""; "\"kind\": \"histogram\"";
      "\"kind\": \"span\"";
    ]

let test_json_printer () =
  let j =
    Json.obj
      [
        ("s", Json.String "a\"b\\c\nd");
        ("i", Json.Int (-3));
        ("f", Json.Float 2.5);
        ("fi", Json.Float 4.0);
        ("nan", Json.Float Float.nan);
        ("l", Json.List [ Json.Bool true; Json.Null ]);
        ("empty", Json.Obj []);
      ]
  in
  let s = Json.to_string j in
  let expected =
    "{\n\
    \  \"s\": \"a\\\"b\\\\c\\nd\",\n\
    \  \"i\": -3,\n\
    \  \"f\": 2.5,\n\
    \  \"fi\": 4.0,\n\
    \  \"nan\": null,\n\
    \  \"l\": [\n\
    \    true,\n\
    \    null\n\
    \  ],\n\
    \  \"empty\": {}\n\
     }\n"
  in
  check Alcotest.string "deterministic rendering" expected s

(* -- prometheus exposition ------------------------------------------------- *)

(* Every line of the exposition is either a [# HELP]/[# TYPE] comment
   or [name value] with a float-parseable value — the shape a scraper
   relies on. *)
let test_prometheus () =
  let reg = Registry.create () in
  let c = Registry.counter reg "vm.events.exec" ~help:"executed" in
  Registry.add c 7;
  Registry.gauge_fn reg "core.depth" (fun () -> 3);
  let h = Registry.histogram reg "parallel.occ" ~buckets:[ 2; 4 ] in
  List.iter (Registry.observe h) [ 1; 3; 3; 4; 5; 9; 100 ];
  let s = Registry.span reg "parallel.helper.batch" ~help:"per batch" in
  Registry.record_ns s 100;
  Registry.record_ns s 300;
  let text = Registry.to_prometheus (Registry.snapshot reg) in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  List.iter
    (fun line ->
      let prefixed p =
        String.length line >= String.length p
        && String.sub line 0 (String.length p) = p
      in
      if not (prefixed "# HELP " || prefixed "# TYPE ") then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "sample line has no value: %S" line
        | Some i -> (
            let value =
              String.sub line (i + 1) (String.length line - i - 1)
            in
            match float_of_string_opt value with
            | Some _ -> ()
            | None ->
                Alcotest.failf "unparseable value %S in line %S" value line)
      end)
    lines;
  let has l = List.mem l lines in
  List.iter
    (fun l -> check Alcotest.bool (Fmt.str "has %S" l) true (has l))
    [
      "# TYPE dift_vm_events_exec counter";
      "dift_vm_events_exec 7";
      "# HELP dift_vm_events_exec executed";
      "# TYPE dift_core_depth gauge";
      "dift_core_depth 3";
      "# TYPE dift_parallel_occ histogram";
      "dift_parallel_occ_bucket{le=\"2\"} 1";
      "dift_parallel_occ_bucket{le=\"4\"} 4";
      "dift_parallel_occ_bucket{le=\"+Inf\"} 7";
      "dift_parallel_occ_sum 125";
      "dift_parallel_occ_count 7";
      "# TYPE dift_parallel_helper_batch_ns summary";
      "dift_parallel_helper_batch_ns_sum 400";
      "dift_parallel_helper_batch_ns_count 2";
    ]

(* -- cross-domain stats (satellite-1 regression) --------------------------- *)

(* The Spsc stall/wait/drop counters used to be plain [mutable]
   fields: reading them from a domain other than the one incrementing
   them was unsynchronized and could observe stale or torn values.
   Now they are [Atomic.t]; a third (monitoring) domain snapshotting
   them concurrently with a two-domain run must never raise and must
   see each counter monotonically non-decreasing. *)
let test_two_domain_stats_snapshot () =
  let ring = Dift_parallel.Spsc.create ~capacity:2 () in
  let reg = Registry.create () in
  Registry.gauge_fn reg "parallel.ring.stalls" (fun () ->
      Dift_parallel.Spsc.producer_stalls ring);
  Registry.gauge_fn reg "parallel.ring.waits" (fun () ->
      Dift_parallel.Spsc.consumer_waits ring);
  Registry.gauge_fn reg "parallel.ring.drops" (fun () ->
      Dift_parallel.Spsc.dropped ring);
  let items = 20_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to items do
          Dift_parallel.Spsc.push ring i
        done;
        Dift_parallel.Spsc.close ring)
  in
  let consumer =
    Domain.spawn (fun () ->
        let n = ref 0 in
        let rec loop () =
          match Dift_parallel.Spsc.pop ring with
          | Some _ ->
              incr n;
              loop ()
          | None -> !n
        in
        loop ())
  in
  (* the monitoring domain: snapshot in a tight loop during the run *)
  let gauge name snap =
    match Registry.find snap name with
    | Some (Registry.Gauge_v v) -> v
    | _ -> Alcotest.failf "%s missing from snapshot" name
  in
  let monotonic = ref true in
  let prev_stalls = ref 0 and prev_waits = ref 0 in
  for _ = 1 to 2_000 do
    let snap = Registry.snapshot reg in
    let stalls = gauge "parallel.ring.stalls" snap in
    let waits = gauge "parallel.ring.waits" snap in
    if stalls < !prev_stalls || waits < !prev_waits then monotonic := false;
    prev_stalls := stalls;
    prev_waits := waits
  done;
  let consumed = Domain.join consumer in
  Domain.join producer;
  check Alcotest.bool "counters monotonic under concurrency" true !monotonic;
  check Alcotest.int "every element consumed" items consumed;
  (* quiescent: a final snapshot agrees with the direct reads *)
  let snap = Registry.snapshot reg in
  check Alcotest.int "final stalls agree"
    (Dift_parallel.Spsc.producer_stalls ring)
    (gauge "parallel.ring.stalls" snap);
  check Alcotest.int "no drops without abort" 0
    (gauge "parallel.ring.drops" snap)

(* -- the monotonic clock ----------------------------------------------- *)

(* Every duration in the tree is measured on [Clock.now_ns]; the whole
   point of switching off [Unix.gettimeofday] is that readings never
   go backwards, within a domain or across domains (one process-wide
   timebase).  A tight sampling loop plus a cross-domain interleaving
   would both fail under a stepped wall clock. *)
let test_clock_monotonic () =
  let prev = ref (Clock.now_ns ()) in
  for _ = 1 to 100_000 do
    let t = Clock.now_ns () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %d after %d" t !prev;
    prev := t
  done;
  (* cross-domain: a reading taken after joining a domain must not
     precede any reading that domain took *)
  let t0 = Clock.now_ns () in
  let t_in = Domain.join (Domain.spawn (fun () -> Clock.now_ns ())) in
  let t1 = Clock.now_ns () in
  check Alcotest.bool "cross-domain readings ordered" true
    (t0 <= t_in && t_in <= t1);
  (* readings resolve actual elapsed time *)
  let a = Clock.now_ns () in
  Unix.sleepf 0.01;
  let b = Clock.now_ns () in
  check Alcotest.bool "sleep is visible (>= 5ms measured)" true
    (b - a >= 5_000_000)

(* -- JSON parser ----------------------------------------------------------- *)

let test_json_parser_roundtrip () =
  (* everything the printers emit must read back as the same tree *)
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "plain";
      Json.String "esc \" \\ \n \t \x01 é";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "x"; Json.Null ];
      Json.obj [];
      Json.obj
        [
          ("a", Json.Int 1);
          ("nested", Json.obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      let pretty = Json.to_string j and compact = Json.to_compact_string j in
      (match Json.of_string pretty with
      | Ok j' -> check Alcotest.bool "pretty round-trips" true (j = j')
      | Error e -> Alcotest.failf "pretty %S: %s" pretty e);
      match Json.of_string compact with
      | Ok j' -> check Alcotest.bool "compact round-trips" true (j = j')
      | Error e -> Alcotest.failf "compact %S: %s" compact e)
    samples;
  (* standard JSON the printers never emit *)
  (match Json.of_string {| {"u":"é","e":1e2} |} with
  | Ok j ->
      check Alcotest.bool "unicode escape decodes" true
        (Json.member "u" j = Some (Json.String "\xc3\xa9"));
      check Alcotest.bool "exponent parses as float" true
        (Json.member "e" j = Some (Json.Float 100.))
  | Error e -> Alcotest.failf "standard JSON rejected: %s" e);
  (* malformed inputs are errors, not exceptions *)
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" bad)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "{'a':1}" ]

(* -- flight recorder -------------------------------------------------------- *)

let test_flight_ring_overflow () =
  let fl = Flight.create ~capacity:4 () in
  Flight.name_domain fl "solo";
  for i = 1 to 10 do
    Flight.record fl ~cat:"t" "tick" ~a:i
  done;
  check Alcotest.int "all records counted" 10 (Flight.recorded fl);
  check Alcotest.int "overflow counted" 6 (Flight.overwritten fl);
  check Alcotest.int "one recording domain" 1 (Flight.domains fl);
  match Flight.tails fl with
  | [ tl ] ->
      check Alcotest.string "ring label" "solo" tl.Flight.t_domain;
      check Alcotest.int "per-ring total" 10 tl.Flight.t_recorded;
      check (Alcotest.list Alcotest.int) "tail is the most recent, oldest first"
        [ 7; 8; 9; 10 ]
        (List.map (fun e -> e.Flight.a) tl.Flight.t_entries);
      check Alcotest.bool "timestamps monotonic" true
        (let ts = List.map (fun e -> e.Flight.ts_ns) tl.Flight.t_entries in
         List.sort compare ts = ts)
  | tls -> Alcotest.failf "expected one tail, got %d" (List.length tls)

let test_flight_multi_domain () =
  let fl = Flight.create ~capacity:8 () in
  let worker name n () =
    Flight.name_domain fl name;
    for i = 1 to n do
      Flight.record fl ~cat:"w" "work" ~a:i ~detail:name
    done
  in
  Domain.join (Domain.spawn (worker "left" 3));
  Domain.join (Domain.spawn (worker "right" 5));
  check Alcotest.int "both domains recorded" 2 (Flight.domains fl);
  check Alcotest.int "totals add up" 8 (Flight.recorded fl);
  check Alcotest.int "no overflow" 0 (Flight.overwritten fl);
  let tails = Flight.tails fl in
  let by_name n =
    match List.find_opt (fun t -> t.Flight.t_domain = n) tails with
    | Some t -> t
    | None -> Alcotest.failf "no ring named %s" n
  in
  check Alcotest.int "left ring" 3 (by_name "left").Flight.t_recorded;
  check Alcotest.int "right ring" 5 (by_name "right").Flight.t_recorded;
  (* the JSON export carries the same structure, and round-trips
     through the parser *)
  let j = Flight.to_json fl in
  match Json.of_string (Json.to_string j) with
  | Error e -> Alcotest.failf "flight json does not parse: %s" e
  | Ok j' -> (
      check Alcotest.bool "json round-trips" true (j = j');
      match Json.member "domains" j with
      | Some (Json.List doms) ->
          check Alcotest.int "two domain sections" 2 (List.length doms)
      | _ -> Alcotest.fail "flight json has no domains list")

let test_flight_register_obs () =
  let fl = Flight.create ~capacity:4 () in
  let reg = Registry.create () in
  Flight.register_obs fl reg;
  Flight.record fl ~cat:"t" "one";
  let gauge name =
    match Registry.(find (snapshot reg) name) with
    | Some (Registry.Gauge_v v) -> v
    | _ -> Alcotest.failf "gauge %s missing" name
  in
  check Alcotest.int "recorded gauge live" 1 (gauge "flight.recorded");
  check Alcotest.int "capacity gauge" 4 (gauge "flight.capacity_per_domain")

(* -- heartbeat -------------------------------------------------------------- *)

let test_heartbeat () =
  let reg = Registry.create () in
  let c = Registry.counter reg "hb.ticks" in
  let file = Filename.temp_file "dift-hb" ".jsonl" in
  let sampler = Sampler.create () in
  let hb = Heartbeat.start ~interval_ms:20 ~sampler reg ~file in
  Registry.add c 5;
  Unix.sleepf 0.1;
  let n = Heartbeat.stop hb in
  Sampler.stop sampler;
  check Alcotest.bool "several beats" true (n >= 3);
  check Alcotest.int "stop is idempotent" n (Heartbeat.stop hb);
  let lines =
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Sys.remove file;
  check Alcotest.int "one line per beat" n (List.length lines);
  List.iteri
    (fun i line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "beat %d does not parse: %s" i e
      | Ok j -> (
          check Alcotest.bool "seq increments" true
            (Json.member "seq" j = Some (Json.Int i));
          match Json.member "metrics" j with
          | Some (Json.Obj _) -> ()
          | _ -> Alcotest.failf "beat %d has no metrics object" i))
    lines;
  (* beat 0 was written before any post-start mutation: the embedded
     first snapshot shows the counter at its pre-run value *)
  match Json.member "hb" (Heartbeat.first hb) with
  | Some hb_group ->
      check Alcotest.bool "first snapshot predates the bump" true
        (match Json.member "ticks" hb_group with
        | Some m -> Json.member "value" m = Some (Json.Int 0)
        | None -> false)
  | None -> Alcotest.fail "first snapshot has no hb group"

(* -- feed-ring occupancy: events per pushed batch, on either wire -------- *)

(* The occupancy histogram observes every batch the producer pushes, so
   its count is the delivered batches of a clean run, its sum the
   forwarded events, and a full batch lands in its last bucket. *)
let test_batch_occupancy () =
  let w = Dift_workloads.Spec_like.crc in
  List.iter
    (fun wire ->
      let name s = Fmt.str "%a: %s" Dift_parallel.Channel.pp_wire wire s in
      let reg = Registry.create () in
      (match
         Dift_parallel.Parallel.run_result ~obs:reg ~wire
           w.Dift_workloads.Workload.program
           ~input:(w.Dift_workloads.Workload.input ~size:200 ~seed:1)
       with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail (name "the run failed"));
      let snap = Registry.snapshot reg in
      let gauge metric =
        match Registry.find snap metric with
        | Some (Registry.Gauge_v v) -> v
        | _ -> Alcotest.failf "%s missing" metric
      in
      match Registry.find snap "parallel.forwarder.batch_occupancy" with
      | Some (Registry.Histogram_v h) ->
          check Alcotest.int (name "count = batches")
            (gauge "parallel.forwarder.batches")
            h.count;
          check Alcotest.int (name "sum = events")
            (gauge "parallel.forwarder.events")
            h.sum;
          check Alcotest.int (name "last bucket = batch size")
            Dift_parallel.Channel.default_batch_size
            (List.nth h.buckets (List.length h.buckets - 1))
      | _ -> Alcotest.fail (name "batch_occupancy histogram missing"))
    [ `Coded; `Boxed ]

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter;
    Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
    Alcotest.test_case "gauge_fn rebinds" `Quick test_gauge_fn_rebinds;
    Alcotest.test_case "histogram buckets" `Quick test_histogram;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_edges;
    Alcotest.test_case "span timing" `Quick test_span;
    Alcotest.test_case "span mean" `Quick test_span_mean;
    Alcotest.test_case "snapshot JSON shape" `Quick test_snapshot_json_shape;
    Alcotest.test_case "json printer" `Quick test_json_printer;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
    Alcotest.test_case "batch occupancy is events per batch" `Quick
      test_batch_occupancy;
    Alcotest.test_case "two-domain stats snapshot" `Quick
      test_two_domain_stats_snapshot;
    Alcotest.test_case "monotonic clock" `Quick test_clock_monotonic;
    Alcotest.test_case "json parser round-trips" `Quick
      test_json_parser_roundtrip;
    Alcotest.test_case "flight ring overflow" `Quick
      test_flight_ring_overflow;
    Alcotest.test_case "flight multi-domain" `Quick test_flight_multi_domain;
    Alcotest.test_case "flight register_obs" `Quick test_flight_register_obs;
    Alcotest.test_case "heartbeat sampler" `Quick test_heartbeat;
  ]
