(* CI gate for the performance claims: re-runs the engine micro-sweep
   and the shard-scaling sweep in-process (smoke scale) and fails
   loudly if either regresses.

   Two checks over the sweep of {!Engine_bench}:

   - no row — any kernel, any domain, engine or bare-shadow level —
     may show the paged shadow slower than the reference beyond a
     noise tolerance;

   - the headline claim must hold: for the Bool domain the bare
     shadow traffic must be at least 2x faster on a majority of
     kernels (the single-core CI box is noisy, so the gate asks for 2
     of 3 rather than all).

   One check over the sweep of {!Shard_bench}: the 4-shard aggregate
   drain rate must stay >= 1.5x the 1-shard rate on at least two
   kernels.

   Two checks over the sweep of {!Forward_bench}: the coded wire's
   helper-drain throughput must stay >= 1.3x the boxed wire's on at
   least two kernels (BENCH_5.json's headline), and its producer-side
   feed must stay within [feed_bound] times the boxed feed on at least
   four of the five kernels — the drain gate alone let a 3.7-7.6x
   encode regression through.

   Exit status 1 with a per-row report on failure. *)

(* The shared-runner tolerance: a row only fails if paged is >15%
   slower than the reference. *)
let tolerance = 0.85

(* Coded feed over boxed feed (encode + push against record + push).
   The committed BENCH_5.json rows (full scale, 256-event batches)
   span 0.27-1.30x; the bound is 20% over the highest of them, rounded
   down to a tenth.  At smoke scale the rows read 0.25-1.98x over
   thirty runs on a 2-vCPU box, the highest always crc, whose
   2.4k-event stream is too short to amortise anything (its full-scale
   row read 0.88-1.45x over six runs of the sweep); the other four
   kernels stayed at or below 0.67x.  Both legs fill fresh batches
   (the sweep's ring holds the whole stream), so the ratio carries
   allocation noise and the gate asks for four kernels of five. *)
let feed_bound = 1.5

let () =
  let rows = Engine_bench.run ~size:25 ~reps:3 () in
  Engine_bench.pp_rows Fmt.stdout rows;
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (r : Engine_bench.row) ->
      let e = Engine_bench.speedup r.Engine_bench.engine in
      let s = Engine_bench.speedup r.Engine_bench.shadow in
      if e < tolerance then
        fail "%s/%s: engine with paged shadow %.2fx the reference (slower)"
          r.Engine_bench.kernel r.Engine_bench.domain e;
      if s < tolerance then
        fail "%s/%s: paged shadow traffic %.2fx the reference (slower)"
          r.Engine_bench.kernel r.Engine_bench.domain s)
    rows;
  let bool_2x =
    List.length
      (List.filter
         (fun (r : Engine_bench.row) ->
           r.Engine_bench.domain = "bool"
           && Engine_bench.speedup r.Engine_bench.shadow >= 2.0)
         rows)
  in
  if bool_2x < 2 then
    fail
      "bool shadow traffic >=2x faster than the hashtable on only %d \
       kernel(s); need >=2"
      bool_2x;
  (* The shard-scaling gate (BENCH_4.json; see shard_bench.ml): at 4
     shards the aggregate drain rate must be at least 1.5x the
     one-shard rate on at least two kernels.  The call-dense kernels
     (treesum, feistel) are the ones expected to scale — frame
     striping spreads their activations — while the single-frame
     loops are expected to sit near 1x; the gate fails only if the
     scaling story itself regresses.  Each point is the best of 15
     isolated replays: with 5, treesum read 1.34-2.58x and qsort
     1.01-2.45x, and one run in ten failed on each side; with 15 the
     gate passed ten runs of ten. *)
  let srows = Shard_bench.run ~size:40 ~reps:15 () in
  Shard_bench.pp_rows Fmt.stdout srows;
  let scaling =
    List.length
      (List.filter (fun r -> Shard_bench.speedup_at ~shards:4 r >= 1.5) srows)
  in
  if scaling < 2 then
    fail
      "sharded drain rate >=1.5x at 4 shards on only %d kernel(s); need >=2"
      scaling;
  (* The forwarding-plane gate (BENCH_5.json; see forward_bench.ml):
     the de-boxed wire must keep its helper-drain advantage on at
     least two kernels.  The long-stream kernels (qsort, feistel) are
     the ones expected to clear it comfortably; the gate fails only
     if the coded plane's advantage itself regresses. *)
  let frows = Forward_bench.run ~size:40 ~reps:5 () in
  Forward_bench.pp_rows Fmt.stdout frows;
  let deboxed =
    List.length
      (List.filter (fun r -> Forward_bench.drain_ratio r >= 1.3) frows)
  in
  if deboxed < 2 then
    fail
      "coded drain rate >=1.3x the boxed wire on only %d kernel(s); need >=2"
      deboxed;
  let lean =
    List.length
      (List.filter (fun r -> Forward_bench.feed_ratio r <= feed_bound) frows)
  in
  if lean < 4 then
    fail "coded feed <=%.1fx the boxed feed on only %d kernel(s); need >=4"
      feed_bound lean;
  match !failures with
  | [] ->
      Fmt.pr
        "@.check_regression: paged shadow, sharded runtime and de-boxed \
         wire hold their speedups, and the coded feed stays lean@."
  | fs ->
      Fmt.epr "@.check_regression FAILED:@.";
      List.iter (fun f -> Fmt.epr "  - %s@." f) (List.rev fs);
      exit 1
