(* The forwarding-plane sweep behind BENCH_5.json: what the de-boxed
   wire ({!Dift_parallel.Codec}) buys over the boxed one on the
   helper's side of the channel.

   Per (kernel, wire) the kernel's recorded event stream makes one
   trip through a channel whose ring is sized to hold the whole
   stream, so neither side ever blocks:

   - feed: every event encoded (coded) or boxed and enqueued (boxed)
     — the producer-side cost of the wire.  The recording is replayed
     the way the machine feeds a run: one reused view is refilled per
     event ({!Recording.refill}) and handed to [Channel.add_view], so
     the coded leg encodes the view in place and the boxed leg builds
     the record it ships, as each does behind the machine;
   - drain: every event decoded into the reused scratch view and run
     through a fresh Bool-taint engine — the helper-drain work the
     runtime's critical path is made of.

   Both legs are timed separately, best of [reps].  Aggregate
   helper-drain throughput = events / drain time; [drain_ratio] is
   coded over boxed and is what [check_regression] gates on (>= 1.3x
   on >= 2 kernels).  [feed_ratio] is the coded feed time over the
   boxed one — the encode the application core pays on top of the
   push — and is gated too, so a producer-side regression cannot hide
   behind a faster drain.  Each trip's final engine stats are compared
   across wires, so a trip that decoded the stream wrong fails loudly
   rather than producing a fast wrong number.

   The sweep also records the producer-side liveness filter's
   effectiveness per kernel (fraction of the stream dropped on a real
   two-domain run with [~forward_filter:true]) — the traffic the
   coded plane never even has to encode. *)

open Dift_vm
open Dift_core
open Dift_workloads
module Channel = Dift_parallel.Channel
module Parallel = Dift_parallel.Parallel
module Bool_engine = Engine.Make (Taint.Bool)

let now_ns = Dift_obs.Clock.now_ns

(* One trip: feed the whole pre-recorded stream, close, then drain
   into a fresh engine.  Returns (feed_ns, drain_ns, stats). *)
let trip ~wire ~batch_size ~table program events =
  let n = Array.length events in
  let ch =
    Channel.create ~wire ~queue_capacity:((n / batch_size) + 2) ~batch_size
      ~table ()
  in
  let eng = Bool_engine.create program in
  let v = Recording.scratch () in
  (* the trips are short: collect pending garbage now so no major
     slice lands inside a timed region *)
  Gc.full_major ();
  let t0 = now_ns () in
  Array.iter
    (fun src ->
      Recording.refill v src;
      Channel.add_view ch v)
    events;
  Channel.close ch;
  let t1 = now_ns () in
  Channel.drain ch ~f:(Bool_engine.process_view eng);
  let t2 = now_ns () in
  (t1 - t0, t2 - t1, Bool_engine.stats eng)

type leg = { feed_ns : int; drain_ns : int }

type row = {
  kernel : string;
  events : int;
  boxed : leg;
  coded : leg;
  filtered_events : int;  (* liveness filter, real two-domain run *)
}

let best_trip ~reps ~wire ~batch_size ~table program events =
  let rec go best_feed best_drain stats n =
    if n = 0 then ({ feed_ns = best_feed; drain_ns = best_drain }, stats)
    else begin
      let f, d, s = trip ~wire ~batch_size ~table program events in
      go (min best_feed f) (min best_drain d) (Some s) (n - 1)
    end
  in
  go max_int max_int None (max 1 reps)

let kernels = [ "crc"; "qsort"; "matmul"; "treesum"; "feistel" ]

let run ?(size = 60) ?(seed = 3) ?(reps = 5)
    ?(batch_size = Channel.default_batch_size) () =
  List.map
    (fun kname ->
      let w = Spec_like.by_name kname in
      let program = w.Workload.program in
      (* same stream scaling as shard_bench: long enough that a trip
         dwarfs the clock granularity *)
      let ksize =
        match kname with
        | "matmul" -> size
        | "treesum" -> 16 * size
        | _ -> 6 * size
      in
      let events = Recording.views w ~size:ksize ~seed in
      let table = lazy (Site.of_program program) in
      let boxed, bstats =
        best_trip ~reps ~wire:`Boxed ~batch_size ~table program events
      in
      let coded, cstats =
        best_trip ~reps ~wire:`Coded ~batch_size ~table program events
      in
      (match (bstats, cstats) with
      | Some b, Some c when b <> c ->
          Fmt.failwith "forward_bench: %s decoded differently per wire" kname
      | _ -> ());
      let filtered_events =
        let input = w.Workload.input ~size:ksize ~seed in
        match Parallel.run_result ~forward_filter:true program ~input with
        | Ok r -> r.Parallel.filtered_events
        | Error e -> Fmt.failwith "forward_bench: %a" Parallel.pp_error e
      in
      {
        kernel = kname;
        events = Array.length events;
        boxed;
        coded;
        filtered_events;
      })
    kernels

let ms ns = float_of_int ns /. 1e6

(* Events per second through the helper-side drain. *)
let drain_rate ~events (l : leg) =
  float_of_int events *. 1e9 /. float_of_int (max 1 l.drain_ns)

(* Coded helper-drain throughput over boxed — the gated headline. *)
let drain_ratio r =
  drain_rate ~events:r.events r.coded /. drain_rate ~events:r.events r.boxed

(* Coded producer-side cost over boxed (encode + push against push
   alone) — the feed-side gate. *)
let feed_ratio r =
  float_of_int r.coded.feed_ns /. float_of_int (max 1 r.boxed.feed_ns)

let filtered_fraction r =
  float_of_int r.filtered_events /. float_of_int (max 1 r.events)

let json rows =
  let open Dift_obs.Json in
  let leg_json r (l : leg) =
    obj
      [
        ("feed_ms", Float (ms l.feed_ns));
        ( "feed_ns_per_ev",
          Float (float_of_int l.feed_ns /. float_of_int (max 1 r.events)) );
        ("drain_ms", Float (ms l.drain_ns));
        ("drain_ev_per_s", Float (drain_rate ~events:r.events l));
      ]
  in
  obj
    [
      ("bench", String "forwarding-plane");
      ( "method",
        String
          "per (kernel, wire): the recorded stream makes one trip \
           through a channel sized to hold it whole (no blocking); \
           feed and drain timed separately, best of reps; feed refills \
           one reused view per event and forwards it with \
           Channel.add_view, as behind the machine; drain runs a \
           fresh Bool-taint engine over the decoded views; \
           coded_vs_boxed = coded drain rate / boxed drain rate; \
           coded_feed_vs_boxed = coded feed time / boxed feed time" );
      ("batch_size", Int Channel.default_batch_size);
      ( "results",
        List
          (List.map
             (fun r ->
               obj
                 [
                   ("kernel", String r.kernel);
                   ("events", Int r.events);
                   ("boxed", leg_json r r.boxed);
                   ("coded", leg_json r r.coded);
                   ("coded_vs_boxed", Float (drain_ratio r));
                   ("coded_feed_vs_boxed", Float (feed_ratio r));
                   ("filtered_events", Int r.filtered_events);
                   ("filtered_fraction", Float (filtered_fraction r));
                 ])
             rows) );
    ]

let pp_rows ppf rows =
  Fmt.pf ppf "%-8s %8s %10s %10s %8s %10s %10s %8s %10s@." "kernel" "events"
    "boxed ms" "coded ms" "ratio" "boxed feed" "coded feed" "ratio"
    "filtered";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-8s %8d %10.3f %10.3f %7.2fx %10.3f %10.3f %7.2fx %9.1f%%@."
        r.kernel r.events (ms r.boxed.drain_ns) (ms r.coded.drain_ns)
        (drain_ratio r) (ms r.boxed.feed_ns) (ms r.coded.feed_ns)
        (feed_ratio r)
        (100.0 *. filtered_fraction r))
    rows
