(* The shard-scaling sweep behind BENCH_4.json: how the tracking work
   of the sharded runtime ({!Dift_parallel.Shard_engine}) divides
   across N helper shards.

   The CI box exposes a single hardware core, so wall-clocking the
   concurrent cluster measures time-slicing, not scaling.  The sweep
   therefore runs in two passes per (kernel, shard count):

   - pass 1 (concurrent): the kernel's recorded event stream runs
     through a real N-worker exchange mesh with journaling on.  This
     pass establishes correctness — the merged fingerprint must match
     a sequential replay of the same stream — and records, per ring,
     exactly which taint vectors each shard consumed;

   - pass 2 (isolated): each shard is replayed alone — fresh worker,
     exchange rings prefilled from the pass-1 journals, capacities
     sized so no push or pop can ever block — and timed, best of
     [reps].  The isolated busy time is that shard's true tracking
     work, independent of scheduling.  The isolated workers are merged
     and fingerprint-checked again, so the replay provably did the
     same work.

   Aggregate drain rate = events / max isolated shard busy: the
   throughput the slowest shard sustains, i.e. what the cluster
   drains on a machine with one core per shard.  [speedup_at] divides
   a point's drain rate by the one-shard rate of the same stream;
   [check_regression] gates on it. *)

open Dift_vm
open Dift_core
open Dift_workloads
module Router = Dift_parallel.Router
module B = Dift_parallel.Shard_engine.Make (Taint.Bool)

let now_ns = Dift_obs.Clock.now_ns

(* Pre-route the stream: shard [s] receives every event whose
   participant mask names it — exactly what [Shard_engine.feed_view]
   delivers down the per-shard channels. *)
let route_streams router events =
  let shards = Router.shards router in
  let cross = ref 0 in
  let buckets = Array.make shards [] in
  Array.iter
    (fun e ->
      let mask = Router.participants router e in
      if not (Router.is_local mask) then incr cross;
      Router.iter_shards mask (fun s -> buckets.(s) <- e :: buckets.(s)))
    events;
  (!cross, Array.map (fun l -> Array.of_list (List.rev l)) buckets)

(* Replay recorded events through [f], each refilled into one scratch
   view, as a drained channel hands its shard one. *)
let replay f stream =
  let v = Event.view_blank () in
  Array.iter
    (fun e ->
      Event.view_fill v e;
      f v)
    stream

(* Pass 1: drive the pre-routed streams through a journaling mesh with
   one domain per shard; return the merged result, the per-ring
   consumption journals and the total exchange volume. *)
let concurrent_journals ~router ~shards program streams =
  let xchg = B.create_xchg ~journal:true ~shards () in
  let workers =
    Array.init shards (fun s ->
        B.worker ~router ~xchg ~record_sinks:false ~shard:s program)
  in
  let doms =
    Array.init shards (fun s ->
        Domain.spawn (fun () ->
            try replay (B.handle_view workers.(s)) streams.(s)
            with e ->
              B.abort_xchg xchg;
              raise e))
  in
  Array.iter Domain.join doms;
  let journals =
    Array.init shards (fun src ->
        Array.init shards (fun dst -> B.journal xchg ~src ~dst))
  in
  let messages =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc j -> acc + List.length j) acc row)
      0 journals
  in
  (B.merge workers, journals, messages)

(* Pass 2: replay shard [s]'s stream against an isolated worker whose
   inbound exchange rings are prefilled from the journals.  Capacity
   covers the largest journal on any ring, so the shard's own pushes
   land in empty rings and its pops hit prefilled ones — nothing
   blocks, and the measured time is pure tracking work.  Returns the
   best-of-[reps] time and the (deterministic) final worker. *)
let isolated ~reps ~router ~shards ~journals program stream s =
  let cap =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc j -> max acc (List.length j)) acc row)
      1 journals
  in
  let setup () =
    let xchg = B.create_xchg ~capacity:(cap + 1) ~shards () in
    for src = 0 to shards - 1 do
      if src <> s then B.prefill xchg ~src ~dst:s journals.(src).(s)
    done;
    let w = B.worker ~router ~xchg ~record_sinks:false ~shard:s program in
    (* the replays are short (tens of microseconds): collect pending
       garbage now so no major slice lands inside the timed region *)
    Gc.full_major ();
    w
  in
  let rec go best last n =
    if n = 0 then (best, Option.get last)
    else begin
      let w = setup () in
      let t0 = now_ns () in
      replay (B.handle_view w) stream;
      go (min best (now_ns () - t0)) (Some w) (n - 1)
    end
  in
  go max_int None (max 1 reps)

type point = {
  shards : int;
  cross_events : int;
  exchange_messages : int;
  busy_ns : int array;  (* per shard, isolated replay *)
}

type row = {
  kernel : string;
  events : int;
  sweep : point list;
}

let max_busy p = Array.fold_left max 1 p.busy_ns
let sum_busy p = Array.fold_left ( + ) 0 p.busy_ns

(* Events per second at the pace of the slowest shard. *)
let drain_rate ~events p = float_of_int events *. 1e9 /. float_of_int (max_busy p)

(* Drain rate of the [shards]-shard point over the one-shard point. *)
let speedup_at ~shards r =
  match
    ( List.find_opt (fun p -> p.shards = shards) r.sweep,
      List.find_opt (fun p -> p.shards = 1) r.sweep )
  with
  | Some p, Some base ->
      drain_rate ~events:r.events p /. drain_rate ~events:r.events base
  | _ -> 1.0

let shard_counts = [ 1; 2; 4 ]
let kernels = [ "crc"; "qsort"; "matmul"; "treesum"; "feistel" ]

let run ?(size = 60) ?(seed = 3) ?(reps = 5) () =
  List.map
    (fun kname ->
      let w = Spec_like.by_name kname in
      let program = w.Workload.program in
      (* event counts grow as O(n^3) for matmul but O(n)-ish for the
         rest; scale the linear kernels up so their streams are long
         enough that a per-shard replay dwarfs the clock granularity
         (treesum emits the fewest events per element, so it gets the
         largest factor) *)
      let ksize =
        match kname with
        | "matmul" -> size
        | "treesum" -> 16 * size
        | _ -> 6 * size
      in
      let events = Recording.events w ~size:ksize ~seed in
      let reference =
        let w = B.solo ~record_sinks:false program in
        replay (B.transfer w) events;
        B.merge [| w |]
      in
      let sweep =
        List.map
          (fun shards ->
            let router = Router.create ~shards () in
            let cross_events, streams = route_streams router events in
            let m1, journals, exchange_messages =
              concurrent_journals ~router ~shards program streams
            in
            if m1.B.m_fingerprint <> reference.B.m_fingerprint then
              Fmt.failwith
                "shard_bench: %s at %d shards diverged from sequential" kname
                shards;
            let iso =
              Array.init shards (fun s ->
                  isolated ~reps ~router ~shards ~journals program streams.(s)
                    s)
            in
            let m2 = B.merge (Array.map snd iso) in
            if m2.B.m_fingerprint <> reference.B.m_fingerprint then
              Fmt.failwith
                "shard_bench: %s isolated replay at %d shards diverged" kname
                shards;
            {
              shards;
              cross_events;
              exchange_messages;
              busy_ns = Array.map fst iso;
            })
          shard_counts
      in
      { kernel = kname; events = Array.length events; sweep })
    kernels

let ms ns = float_of_int ns /. 1e6

let json rows =
  let open Dift_obs.Json in
  let point_json r p =
    obj
      [
        ("shards", Int p.shards);
        ("cross_events", Int p.cross_events);
        ("exchange_messages", Int p.exchange_messages);
        ( "per_shard_busy_ms",
          List (Array.to_list (Array.map (fun ns -> Float (ms ns)) p.busy_ns))
        );
        ("max_busy_ms", Float (ms (max_busy p)));
        ("sum_busy_ms", Float (ms (sum_busy p)));
        ("drain_ev_per_s", Float (drain_rate ~events:r.events p));
        ("speedup_vs_1", Float (speedup_at ~shards:p.shards r));
      ]
  in
  obj
    [
      ("bench", String "shard-scaling");
      ( "method",
        String
          "two-pass journal replay: a concurrent pass records per-ring \
           exchange journals, then each shard is replayed in isolation \
           against prefilled rings; drain rate = events / max isolated \
           shard busy" );
      ("route", String "request-reply");
      ("block_bits", Int Router.default_block_bits);
      ( "results",
        List
          (List.map
             (fun r ->
               obj
                 [
                   ("kernel", String r.kernel);
                   ("events", Int r.events);
                   ("sweep", List (List.map (point_json r) r.sweep));
                 ])
             rows) );
    ]

let pp_rows ppf rows =
  Fmt.pf ppf "%-8s %8s %7s %6s %6s %10s %10s %8s@." "kernel" "events" "shards"
    "cross" "msgs" "max ms" "sum ms" "vs 1";
  List.iter
    (fun r ->
      List.iter
        (fun p ->
          Fmt.pf ppf "%-8s %8d %7d %6d %6d %10.3f %10.3f %7.2fx@." r.kernel
            r.events p.shards p.cross_events p.exchange_messages
            (ms (max_busy p)) (ms (sum_busy p))
            (speedup_at ~shards:p.shards r))
        r.sweep)
    rows
