(* The benchmark harness.

   Two parts, then the sweeps:

   1. The experiment tables — one per table/claim in the paper's
      evaluation (E1..E10), regenerated at reduced scale (run
      `experiments` for the full-scale numbers used in
      EXPERIMENTS.md).

   2. Bechamel micro-benchmarks — one [Test.make] per experiment,
      timing the core operation each experiment stresses, so
      regressions in the *implementation's* real performance are
      visible (the tables above measure the modelled cycles, not wall
      clock).

   Then the engine, shard-scaling and forwarding-plane sweeps,
   serialized to BENCH_3.json, BENCH_4.json and BENCH_5.json for
   bench/check_regression.ml. *)

open Bechamel
open Toolkit
open Dift_vm
open Dift_core
open Dift_workloads

(* -- part 1: the paper's tables ------------------------------------------- *)

let print_tables () =
  Fmt.pr "===============================================================@.";
  Fmt.pr "Experiment tables (reduced scale; see EXPERIMENTS.md for full)@.";
  Fmt.pr "===============================================================@.@.";
  Dift_experiments.All.run_all ~scale:Dift_experiments.All.Quick Fmt.stdout

(* -- part 2: micro-benchmarks ---------------------------------------------- *)

let kernel_input (w : Workload.t) ~size ~seed = w.Workload.input ~size ~seed

let bench_interpreter =
  let w = Spec_like.crc in
  let input = kernel_input w ~size:60 ~seed:1 in
  Test.make ~name:"vm: interpret crc/60"
    (Staged.stage (fun () ->
         let m = Machine.create w.Workload.program ~input in
         ignore (Machine.run m)))

let bench_ontrac =
  let w = Spec_like.crc in
  let input = kernel_input w ~size:60 ~seed:1 in
  Test.make ~name:"e1/e2: ontrac trace crc/60"
    (Staged.stage (fun () ->
         let m = Machine.create w.Workload.program ~input in
         let tracer = Ontrac.create w.Workload.program in
         Ontrac.attach tracer m;
         ignore (Machine.run m)))

let bench_offline =
  let w = Spec_like.crc in
  let input = kernel_input w ~size:60 ~seed:1 in
  Test.make ~name:"e1: offline trace+postprocess crc/60"
    (Staged.stage (fun () ->
         let m = Machine.create w.Workload.program ~input in
         let off = Offline.create w.Workload.program in
         Offline.attach off m;
         ignore (Machine.run m);
         ignore (Offline.postprocess off)))

module Bool_engine = Engine.Make (Taint.Bool)

let bench_taint =
  let w = Spec_like.crc in
  let input = kernel_input w ~size:60 ~seed:1 in
  Test.make ~name:"e3: inline bool-taint crc/60"
    (Staged.stage (fun () ->
         let m = Machine.create w.Workload.program ~input in
         let eng = Bool_engine.create w.Workload.program in
         Bool_engine.attach eng m;
         ignore (Machine.run m)))

let bench_helper =
  let w = Spec_like.crc in
  let input = kernel_input w ~size:60 ~seed:1 in
  Test.make ~name:"e3: hw helper-thread dift crc/60"
    (Staged.stage (fun () ->
         ignore
           (Dift_multicore.Helper.run
              ~channel:Dift_multicore.Helper.Hardware w.Workload.program
              ~input)))

(* e11: the real two-domain runtime, wall clock.  One inline baseline
   plus a sweep of the forwarding-channel geometry: three ring
   capacities at a fixed batch size, and two batch sizes at a fixed
   capacity (batch 1 is the chatty, unamortised channel). *)

let bench_parallel_inline =
  let w = Spec_like.crc in
  let input = kernel_input w ~size:60 ~seed:1 in
  Test.make ~name:"e11: inline (1 domain) dift crc/60"
    (Staged.stage (fun () ->
         ignore (Dift_parallel.Parallel.run_inline w.Workload.program ~input)))

let bench_parallel ~queue_capacity ~batch_size =
  let w = Spec_like.crc in
  let input = kernel_input w ~size:60 ~seed:1 in
  Test.make
    ~name:
      (Fmt.str "e11: helper-domain dift crc/60 (q=%d b=%d)" queue_capacity
         batch_size)
    (Staged.stage (fun () ->
         match
           Dift_parallel.Parallel.run_result ~queue_capacity ~batch_size
             w.Workload.program ~input
         with
         | Ok _ -> ()
         | Error e -> Fmt.failwith "%a" Dift_parallel.Parallel.pp_error e))

let bench_parallel_q4 = bench_parallel ~queue_capacity:4 ~batch_size:64
let bench_parallel_q64 = bench_parallel ~queue_capacity:64 ~batch_size:64
let bench_parallel_q1024 = bench_parallel ~queue_capacity:1024 ~batch_size:64
let bench_parallel_b1 = bench_parallel ~queue_capacity:64 ~batch_size:1
let bench_parallel_b256 = bench_parallel ~queue_capacity:64 ~batch_size:256

let bench_reduction =
  let p = Server_sim.program () in
  let batch = Server_sim.generate ~requests:30 ~seed:11 ~faulty:true () in
  Test.make ~name:"e4: execution-reduction pipeline (30 reqs)"
    (Staged.stage (fun () ->
         ignore
           (Dift_replay.Rerun.run ~checkpoint_every:2_000 p
              ~input:batch.Server_sim.input)))

let bench_stm =
  let p = Splash_like.spin_barrier ~threads:2 ~phases:2 () in
  Test.make ~name:"e5: stm sync-aware spin-barrier"
    (Staged.stage (fun () ->
         let t = Dift_tm.Stm_exec.create p ~input:[||] in
         ignore (Dift_tm.Stm_exec.run t)))

let bench_attack =
  let c = Vulnerable.stack_smash in
  Test.make ~name:"e6: pc-taint attack detection (stack-smash)"
    (Staged.stage (fun () ->
         ignore
           (Dift_attack.Detector.protect c.Vulnerable.program
              ~input:c.Vulnerable.attack_input)))

let bench_lineage_naive =
  let pl = Scientific.prefix_sum in
  Test.make ~name:"e7: lineage naive-sets prefix-sum/100"
    (Staged.stage (fun () ->
         ignore (Dift_lineage.Tracer.run_naive pl ~size:100 ~seed:3)))

let bench_lineage_robdd =
  let pl = Scientific.prefix_sum in
  Test.make ~name:"e7: lineage roBDD prefix-sum/100"
    (Staged.stage (fun () ->
         ignore (Dift_lineage.Tracer.run_robdd pl ~size:100 ~seed:3)))

let bench_slicing =
  (* build the graph once; benchmark the slicing traversal *)
  let w = Spec_like.qsort in
  let input = kernel_input w ~size:60 ~seed:2 in
  let m = Machine.create w.Workload.program ~input in
  let tracer = Ontrac.create w.Workload.program in
  Ontrac.attach tracer m;
  ignore (Machine.run m);
  let g, ws = Ontrac.final_graph tracer in
  let out = match Slicing.last_output g with Some s -> s | None -> 0 in
  Test.make ~name:"e8: backward slice qsort/60"
    (Staged.stage (fun () ->
         ignore (Slicing.backward ~window_start:ws g ~criterion:[ out ])))

let bench_pred_switch =
  let c = Buggy.omission_guard in
  Test.make ~name:"e8: predicate switching (omission-guard)"
    (Staged.stage (fun () ->
         ignore
           (Dift_faultloc.Pred_switch.search c.Buggy.program
              ~input:c.Buggy.failing_input)))

let bench_avoidance =
  let c = Vulnerable.heap_overflow in
  let config = { Machine.default_config with check_bounds = true } in
  Test.make ~name:"e9: avoidance search (heap overflow)"
    (Staged.stage (fun () ->
         ignore
           (Dift_avoidance.Framework.avoid ~config c.Vulnerable.program
              ~input:c.Vulnerable.attack_input)))

let bench_races =
  let p = Splash_like.bank_racy ~threads:2 () in
  let input = Splash_like.bank_input ~size:40 ~seed:0 in
  Test.make ~name:"e10: sync-aware race detection (bank-racy)"
    (Staged.stage (fun () ->
         let config =
           { Machine.default_config with quantum_min = 2; quantum_max = 9 }
         in
         let m = Machine.create ~config p ~input in
         let det =
           Dift_faultloc.Race_detect.create Dift_faultloc.Race_detect.Sync_aware
         in
         Dift_faultloc.Race_detect.attach det m;
         ignore (Machine.run m)))

let bench_bdd =
  Test.make ~name:"substrate: bdd union of 64-wide windows"
    (Staged.stage (fun () ->
         let man = Dift_bdd.Bdd.manager () in
         let s =
           List.fold_left
             (fun acc i ->
               Dift_bdd.Bdd.union man acc
                 (Dift_bdd.Bdd.of_list man (List.init 64 (fun j -> i + j))))
             Dift_bdd.Bdd.zero
             (List.init 32 (fun i -> i * 8))
         in
         ignore (Dift_bdd.Bdd.cardinal s)))

let tests =
  Test.make_grouped ~name:"dift" ~fmt:"%s %s"
    [
      bench_interpreter;
      bench_ontrac;
      bench_offline;
      bench_taint;
      bench_helper;
      bench_parallel_inline;
      bench_parallel_q4;
      bench_parallel_q64;
      bench_parallel_q1024;
      bench_parallel_b1;
      bench_parallel_b256;
      bench_reduction;
      bench_stm;
      bench_attack;
      bench_lineage_naive;
      bench_lineage_robdd;
      bench_slicing;
      bench_pred_switch;
      bench_avoidance;
      bench_races;
      bench_bdd;
    ]

let run_benchmarks () =
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  Fmt.pr "@.=================================================@.";
  Fmt.pr "Micro-benchmarks (wall clock of this implementation)@.";
  Fmt.pr "=================================================@.@.";
  Fmt.pr "%-50s %14s %16s@." "benchmark" "time/run" "minor words/run";
  let time_tbl = List.nth results 0 in
  let alloc_tbl = List.nth results 1 in
  let names =
    Hashtbl.fold (fun k _ acc -> k :: acc) time_tbl [] |> List.sort compare
  in
  List.iter
    (fun name ->
      let estimate tbl =
        match Hashtbl.find_opt tbl name with
        | Some ols -> (
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> e
            | Some [] | None -> nan)
        | None -> nan
      in
      let time_ns = estimate time_tbl in
      let words = estimate alloc_tbl in
      let time_str =
        if Float.is_nan time_ns then "n/a"
        else if time_ns > 1e9 then Fmt.str "%.2f s" (time_ns /. 1e9)
        else if time_ns > 1e6 then Fmt.str "%.2f ms" (time_ns /. 1e6)
        else if time_ns > 1e3 then Fmt.str "%.2f us" (time_ns /. 1e3)
        else Fmt.str "%.0f ns" time_ns
      in
      Fmt.pr "%-50s %14s %16s@." name time_str
        (if Float.is_nan words then "n/a" else Fmt.str "%.0f" words))
    names

(* -- the sweeps -------------------------------------------------------- *)

let write_json file json =
  let json = Dift_obs.Json.to_string json in
  if file = "-" then print_string json
  else begin
    let oc = open_out file in
    output_string oc json;
    close_out oc;
    Fmt.pr "wrote %s@." file
  end

(* The engine micro-sweep (shadow impl x domain x kernel; see
   engine_bench.ml) serialized to BENCH_3.json. *)
let write_engine_json ?size ?reps file =
  let rows = Engine_bench.run ?size ?reps () in
  Engine_bench.pp_rows Fmt.stdout rows;
  write_json file (Engine_bench.json rows)

(* The forwarding-plane sweep (kernel x wire, feed/drain trip; see
   forward_bench.ml) serialized to BENCH_5.json. *)
let write_forward_json ?size ?reps file =
  let rows = Forward_bench.run ?size ?reps () in
  Forward_bench.pp_rows Fmt.stdout rows;
  write_json file (Forward_bench.json rows)

(* The shard-scaling sweep (kernel x shard count, two-pass journal
   replay; see shard_bench.ml) serialized to BENCH_4.json. *)
let write_shard_json ?size ?reps file =
  let rows = Shard_bench.run ?size ?reps () in
  Shard_bench.pp_rows Fmt.stdout rows;
  write_json file (Shard_bench.json rows)

let () =
  (* `bench --engine-json [FILE]`: only the engine micro-sweep;
     `bench --shard-json [FILE]`: only the shard-scaling sweep;
     `bench --forward-json [FILE]`: only the forwarding-plane sweep
     (`--smoke` shrinks any sweep to the CI scale).  Plain `bench`:
     tables + micro-benchmarks, then all three sweeps next to the
     current directory. *)
  match Array.to_list Sys.argv with
  | _ :: "--engine-json" :: rest ->
      let smoke = List.mem "--smoke" rest in
      let file =
        match List.filter (fun a -> a <> "--smoke") rest with
        | f :: _ -> f
        | [] -> "BENCH_3.json"
      in
      if smoke then write_engine_json ~size:25 ~reps:3 file
      else write_engine_json file
  | _ :: "--shard-json" :: rest ->
      let smoke = List.mem "--smoke" rest in
      let file =
        match List.filter (fun a -> a <> "--smoke") rest with
        | f :: _ -> f
        | [] -> "BENCH_4.json"
      in
      if smoke then write_shard_json ~size:40 ~reps:3 file
      else write_shard_json file
  | _ :: "--forward-json" :: rest ->
      let smoke = List.mem "--smoke" rest in
      let file =
        match List.filter (fun a -> a <> "--smoke") rest with
        | f :: _ -> f
        | [] -> "BENCH_5.json"
      in
      if smoke then write_forward_json ~size:40 ~reps:3 file
      else write_forward_json file
  | _ ->
      print_tables ();
      run_benchmarks ();
      write_engine_json "BENCH_3.json";
      write_shard_json "BENCH_4.json";
      write_forward_json "BENCH_5.json"
