(** E11 — the real two-domain DIFT runtime (paper §2.1, "Exploiting
    multicores"), measured in wall clock.

    E3 reproduces the paper's claim inside the cycle model; this
    experiment runs the same decoupled architecture for real: the
    application on the calling OCaml domain, taint propagation on a
    helper domain, connected by the bounded batched forwarding channel
    of {!Dift_parallel.Channel}.  The sweep varies the two channel
    parameters — ring capacity (in batches) and batch size (events per
    batch) — and reports, per shape, the application-domain time, the
    total time until the helper joins, and the backpressure stalls.

    The shape to look for: batching amortises channel synchronisation
    (batch 1 is the degenerate, chatty channel), and once the ring is
    deep enough to absorb the helper's lag, stalls vanish and the
    application domain runs well below the inline-DIFT time — the
    wall-clock edition of the paper's "main-core overhead" story. *)

open Dift_workloads
open Dift_parallel

type row = {
  queue_capacity : int;
  batch_size : int;
  main_ms : float;  (** application-domain wall time *)
  total_ms : float;  (** until the helper joined *)
  stalls : int;  (** producer blocks on a full ring *)
  speedup : float;  (** inline time / total time *)
  main_ratio : float;  (** main time / inline time *)
}

type result = {
  kernel : string;
  native_ms : float;  (** uninstrumented run *)
  inline_ms : float;  (** sequential engine, same domain *)
  rows : row list;
}

let ms ns = float_of_int ns /. 1e6

(* Wall-clock numbers are noisy; keep the best of [reps] runs, which
   is the standard way to estimate the cost floor. *)
let best f reps =
  List.fold_left min max_float (List.init (max 1 reps) (fun _ -> f ()))

let shapes =
  [ (4, 64); (64, 64); (1024, 64); (64, 1); (64, 256) ]

let run ?(size = 40) ?(seed = 3) ?(reps = 3) () =
  let w = Spec_like.crc in
  let input = w.Workload.input ~size ~seed in
  let program = w.Workload.program in
  let native_ms =
    best (fun () -> ms (Parallel.native_wall_ns program ~input)) reps
  in
  let inline =
    best
      (fun () -> ms (Parallel.run_inline program ~input).Parallel.i_wall_ns)
      reps
  in
  let rows =
    List.map
      (fun (queue_capacity, batch_size) ->
        let reports =
          List.init (max 1 reps) (fun _ ->
              match
                Parallel.run_result ~queue_capacity ~batch_size program ~input
              with
              | Ok r -> r
              | Error e -> Fmt.failwith "e11: %a" Parallel.pp_error e)
        in
        let pick f =
          List.fold_left (fun acc r -> min acc (f r)) max_float reports
        in
        let main_ms = pick (fun r -> ms r.Parallel.main_wall_ns) in
        let total_ms = pick (fun r -> ms r.Parallel.total_wall_ns) in
        let stalls =
          List.fold_left
            (fun acc r -> min acc r.Parallel.producer_stalls)
            max_int reports
        in
        {
          queue_capacity;
          batch_size;
          main_ms;
          total_ms;
          stalls;
          speedup = inline /. total_ms;
          main_ratio = main_ms /. inline;
        })
      shapes
  in
  { kernel = w.Workload.name; native_ms; inline_ms = inline; rows }

let table r =
  Table.make
    ~title:"E11: real two-domain DIFT (wall clock, OCaml 5 Domains)"
    ~paper_claim:
      "offloading tracking to a helper core frees the application core \
       (§2.1)"
    ~header:
      [
        "queue (batches)"; "batch (events)"; "main ms"; "total ms";
        "stalls"; "speedup vs inline"; "main / inline";
      ]
    ~notes:
      [
        Fmt.str "kernel %s: native %.2f ms, inline DIFT %.2f ms" r.kernel
          r.native_ms r.inline_ms;
        "speedup = inline / total; main / inline < 1 means the \
         application domain finished faster than inline DIFT";
      ]
    (List.map
       (fun row ->
         [
           Table.i row.queue_capacity;
           Table.i row.batch_size;
           Table.f2 row.main_ms;
           Table.f2 row.total_ms;
           Table.i row.stalls;
           Table.f2 row.speedup;
           Table.f2 row.main_ratio;
         ])
       r.rows)
