(* The engine micro-benchmark sweep behind BENCH_3.json: the taint hot
   path measured in isolation, shadow implementation x taint domain x
   kernel.

   Method: each kernel runs once under a collector tool that records
   its full event stream; the stream is then replayed through a fresh
   DIFT engine (so the VM's interpretation cost is excluded and both
   shadow implementations see the byte-identical stream), best of
   [reps] runs.  Two levels per (kernel, domain) pair:

   - engine: the whole per-event transfer function
     ({!Dift_core.Engine.process_view} under the security policy, fed
     one reused view refilled per event as the machine fills its own)
     over the paged shadow ({!Dift_core.Shadow.Make}) and the
     hashtable reference ({!Dift_core.Shadow.Make_ref});

   - shadow: the bare location traffic of the same stream (a [get]
     per read, a [set] per write, sources injected periodically) —
     the data-structure cost with the transfer function factored out.

   [check_regression] re-runs this sweep in-process and fails CI if
   the paged shadow has become slower than the reference. *)

open Dift_vm
open Dift_core
open Dift_workloads

let now_ns = Dift_obs.Clock.now_ns

(* Best of [reps] measurements; each builds fresh state with [setup]
   (untimed — engine construction must not pollute per-event costs),
   then times [inner] replays of the stream over it.  Repeated replay
   both lifts short streams above the clock granularity and measures
   the steady state: after the first pass the shadow is warm, which is
   exactly the regime the hot path is optimised for. *)
let best_ns ~reps ~inner ~setup run =
  let rec go best n =
    if n = 0 then best
    else begin
      let st = setup () in
      let t0 = now_ns () in
      for _ = 1 to inner do
        run st
      done;
      go (min best (now_ns () - t0)) (n - 1)
    end
  in
  go max_int (max 1 reps)

module Sweep (D : Taint.DOMAIN) = struct
  module EP = Engine.Make (D)
  module ER = Engine.Make_over (Shadow.Make_ref) (D)
  module SP = Shadow.Make (D)
  module SR = Shadow.Make_ref (D)

  let replay process eng views =
    let v = Recording.scratch () in
    Array.iter
      (fun src ->
        Recording.refill v src;
        process eng v)
      views

  let engine_paged_ns ~reps ~inner program views =
    best_ns ~reps ~inner
      ~setup:(fun () -> EP.create ~policy:Policy.security program)
      (fun eng -> replay EP.process_view eng views)

  let engine_ref_ns ~reps ~inner program views =
    best_ns ~reps ~inner
      ~setup:(fun () -> ER.create ~policy:Policy.security program)
      (fun eng -> replay ER.process_view eng views)

  (* The bare shadow traffic of the stream: a get per read, a set per
     write.  Every 16th event writes a fresh source (so pages fill and
     the table grows); the rest write the join of the event's reads
     (so non-trivial values flow through both structures).  The loops
     are closure-free recursions so the harness adds as little as
     possible on top of the get/set costs being compared. *)
  module Traffic (S : Shadow.S with type elt = D.t) = struct
    let rec join_reads sh acc = function
      | [] -> acc
      | l :: rest -> join_reads sh (D.join acc (S.get sh l)) rest

    let rec set_writes sh v = function
      | [] -> ()
      | l :: rest ->
          S.set sh l v;
          set_writes sh v rest

    let run sh events =
      let n = Array.length events in
      for i = 0 to n - 1 do
        let e : Event.exec = Array.unsafe_get events i in
        let v = join_reads sh D.bottom e.Event.reads in
        let v =
          if e.Event.step land 15 = 0 then
            D.join v
              (D.source ~input_index:(e.Event.step land 7) ~step:e.Event.step)
          else v
        in
        set_writes sh v e.Event.writes
      done
  end

  module Traffic_paged = Traffic (SP)
  module Traffic_ref = Traffic (SR)

  let shadow_paged_ns ~reps ~inner events =
    best_ns ~reps ~inner ~setup:SP.create (fun sh ->
        Traffic_paged.run sh events)

  let shadow_ref_ns ~reps ~inner events =
    best_ns ~reps ~inner ~setup:SR.create (fun sh -> Traffic_ref.run sh events)
end

module Sweep_bool = Sweep (Taint.Bool)
module Sweep_pc = Sweep (Taint.Pc)
module Sweep_set = Sweep (Taint.Input_set)

type level = {
  paged_ns : int;
  ref_ns : int;
}

type row = {
  kernel : string;
  domain : string;
  events : int;
  engine : level;
  shadow : level;
}

let speedup l =
  if l.paged_ns <= 0 then 1.0
  else float_of_int l.ref_ns /. float_of_int l.paged_ns

let kernels = [ "crc"; "qsort"; "hash"; "matmul" ]

let run ?(size = 60) ?(seed = 3) ?(reps = 5) ?(target = 100_000) () =
  List.concat_map
    (fun kname ->
      let w = Spec_like.by_name kname in
      let events = Recording.events w ~size ~seed in
      let views = Recording.views w ~size ~seed in
      let n = Array.length events in
      (* replay short streams until ~[target] events are processed per
         timed measurement *)
      let inner = max 1 ((target + n - 1) / n) in
      let program = w.Workload.program in
      let row domain engine shadow =
        { kernel = kname; domain; events = n * inner; engine; shadow }
      in
      [
        row "bool"
          {
            paged_ns = Sweep_bool.engine_paged_ns ~reps ~inner program views;
            ref_ns = Sweep_bool.engine_ref_ns ~reps ~inner program views;
          }
          {
            paged_ns = Sweep_bool.shadow_paged_ns ~reps ~inner events;
            ref_ns = Sweep_bool.shadow_ref_ns ~reps ~inner events;
          };
        row "pc"
          {
            paged_ns = Sweep_pc.engine_paged_ns ~reps ~inner program views;
            ref_ns = Sweep_pc.engine_ref_ns ~reps ~inner program views;
          }
          {
            paged_ns = Sweep_pc.shadow_paged_ns ~reps ~inner events;
            ref_ns = Sweep_pc.shadow_ref_ns ~reps ~inner events;
          };
        row "input-set"
          {
            paged_ns = Sweep_set.engine_paged_ns ~reps ~inner program views;
            ref_ns = Sweep_set.engine_ref_ns ~reps ~inner program views;
          }
          {
            paged_ns = Sweep_set.shadow_paged_ns ~reps ~inner events;
            ref_ns = Sweep_set.shadow_ref_ns ~reps ~inner events;
          };
      ])
    kernels

let ns_per_event row ns = float_of_int ns /. float_of_int (max 1 row.events)

let json rows =
  let open Dift_obs.Json in
  let level_json row l =
    obj
      [
        ("paged_ns_per_event", Float (ns_per_event row l.paged_ns));
        ("ref_ns_per_event", Float (ns_per_event row l.ref_ns));
        ("paged_speedup", Float (speedup l));
      ]
  in
  obj
    [
      ("bench", String "engine-micro");
      ("method", String "recorded event streams replayed, best-of-reps");
      ( "results",
        List
          (List.map
             (fun r ->
               obj
                 [
                   ("kernel", String r.kernel);
                   ("domain", String r.domain);
                   ("events", Int r.events);
                   ("engine", level_json r r.engine);
                   ("shadow", level_json r r.shadow);
                 ])
             rows) );
    ]

let pp_rows ppf rows =
  Fmt.pf ppf "%-8s %-10s %8s %18s %18s@." "kernel" "domain" "events"
    "engine paged/ref" "shadow paged/ref";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-8s %-10s %8d %7.1f/%-7.1fx%4.2f %7.1f/%-7.1fx%4.2f@."
        r.kernel r.domain r.events
        (ns_per_event r r.engine.paged_ns)
        (ns_per_event r r.engine.ref_ns)
        (speedup r.engine)
        (ns_per_event r r.shadow.paged_ns)
        (ns_per_event r r.shadow.ref_ns)
        (speedup r.shadow))
    rows
