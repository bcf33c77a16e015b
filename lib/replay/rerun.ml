(** The complete execution-reduction pipeline (paper §2.2): log a
    failing run cheaply, analyse the log to find the failure-relevant
    requests, restore the last checkpoint before them, and replay just
    that suffix with fine-grained tracing gated to the relevant
    requests.  The report mirrors the paper's MySQL case study
    numbers: original / logging / full-tracing / reduced-replay
    costs, and full vs. reduced dependence counts. *)

open Dift_isa
open Dift_vm
open Dift_core

type report = {
  original_cycles : int;
  logging_cycles : int;
  tracing_cycles : int;  (** fine-grained tracing over the whole run *)
  replay_cycles : int;  (** reduced replay with gated tracing *)
  total_steps : int;
  replayed_steps : int;
  total_requests : int;
  relevant_requests : int;
  full_deps : int;  (** dependences recorded by whole-run tracing *)
  reduced_deps : int;  (** dependences recorded by the reduced replay *)
  checkpoints_taken : int;
  logged_words : int;
  fault_reproduced : bool;
  fault_slice_sites : int;
      (** statement count of the backward slice from the reproduced
          fault, in the reduced graph *)
}

(* A keep-predicate gating tracing to relevant requests, driven by the
   request marks. *)
let relevance_filter plan =
  let open_req : (int, int) Hashtbl.t = Hashtbl.create 8 in
  fun (e : Event.exec) ->
    (match e.Event.instr with
    | Instr.Sys (Instr.Mark (c, _)) when c = Request_log.mark_req_start ->
        Hashtbl.replace open_req e.Event.tid e.Event.value
    | Instr.Sys (Instr.Mark (c, _)) when c = Request_log.mark_req_end ->
        Hashtbl.remove open_req e.Event.tid
    | _ -> ());
    match Hashtbl.find_opt open_req e.Event.tid with
    | Some req_id -> Reduction.is_relevant plan req_id
    | None -> false

(* The fine-grained tracer of the paper's §2.2 pipeline is the
   *unoptimized* dependence tracer (execution reduction is what makes
   it affordable; ONTRAC's optimizations are the orthogonal §2.1
   work).  Both the whole-run contrast and the reduced replay use it,
   so the dependence counts compare like for like. *)
let ontrac_opts = { Ontrac.no_opts with capacity = 256 * 1024 * 1024 }

let run ?(config = Machine.default_config) ?(checkpoint_every = 20_000)
    program ~input =
  (* 1. the original (production) run, uninstrumented *)
  let m0 = Machine.create ~config program ~input in
  ignore (Machine.run m0);
  let original_cycles = Machine.cycles m0 in
  let total_steps = Machine.steps m0 in
  (* 2. the same run under checkpointing & logging *)
  let m1 = Machine.create ~config program ~input in
  let log = Request_log.create ~checkpoint_every () in
  Request_log.attach log m1;
  ignore (Machine.run m1);
  let logging_cycles = Machine.cycles m1 in
  let schedule = Machine.schedule_log m1 in
  (* 3. hypothetical whole-run fine-grained tracing, for the contrast *)
  let m2 = Machine.create ~config program ~input in
  let full_tracer = Ontrac.create ~opts:ontrac_opts program in
  Ontrac.attach full_tracer m2;
  ignore (Machine.run m2);
  let tracing_cycles = Machine.cycles m2 in
  let full_deps = (Ontrac.stats full_tracer).Ontrac.deps_recorded in
  let base =
    {
      original_cycles;
      logging_cycles;
      tracing_cycles;
      replay_cycles = 0;
      total_steps;
      replayed_steps = 0;
      total_requests = List.length (Request_log.requests log);
      relevant_requests = 0;
      full_deps;
      reduced_deps = 0;
      checkpoints_taken = List.length (Request_log.checkpoints log);
      logged_words = Request_log.logged_words log;
      fault_reproduced = false;
      fault_slice_sites = 0;
    }
  in
  (* 4. reduction + replay of the relevant suffix with gated tracing *)
  match Reduction.analyse log with
  | None -> base
  | Some plan ->
      let fault0 = Request_log.fault log in
      let m3, cp_step, cp_words =
        match Reduction.restart_point log plan ~schedule with
        | None ->
            ( Machine.create
                ~config:{ config with schedule = Some schedule }
                program ~input,
              0, 0 )
        | Some (cp_step, cp, suffix) ->
            ( Machine.of_checkpoint
                ~config:{ config with schedule = Some suffix }
                program ~input cp,
              cp_step,
              Machine.checkpoint_words cp )
      in
      let tracer = Ontrac.create ~opts:ontrac_opts program in
      Ontrac.attach_filtered tracer m3 ~keep:(relevance_filter plan);
      (* Irrelevant requests are applied from the event log rather than
         natively re-executed (the replayer of [6] skips them); their
         instructions cost nothing in the model.  A second relevance
         filter drives the cost gate — mark handling is idempotent, so
         feeding marks to both filters is safe.  The event's record is
         shared with the tracer's tool, so the gate builds nothing. *)
      let cost_filter = relevance_filter plan in
      Machine.set_step_cost m3 (fun v ->
          if cost_filter (Event.view_to_exec v) then Cost.base_instr else 0);
      (* restoring the checkpoint costs one pass over its words *)
      Machine.charge m3 (cp_words * Cost.checkpoint_word);
      let outcome3 = Machine.run m3 in
      let g, w = Ontrac.final_graph tracer in
      let fault_slice_sites =
        match fault0 with
        | Some f ->
            Slicing.num_sites
              (Slicing.backward ~window_start:w g
                 ~criterion:[ f.Event.at_step ])
        | None -> 0
      in
      {
        base with
        replay_cycles = Machine.cycles m3;
        replayed_steps = Machine.steps m3 - cp_step;
        relevant_requests = List.length plan.Reduction.relevant;
        reduced_deps = (Ontrac.stats tracer).Ontrac.deps_recorded;
        fault_reproduced =
          (match outcome3, fault0 with
          | Event.Faulted f3, Some f0 ->
              f3.Event.kind = f0.Event.kind
              && f3.Event.at_step = f0.Event.at_step
          | (Event.Halted | Event.Faulted _ | Event.Deadlocked
            | Event.Out_of_steps | Event.Stopped _), _ ->
              false);
        fault_slice_sites;
      }

let pp_report ppf r =
  let ratio a = float_of_int a /. float_of_int (max 1 r.original_cycles) in
  Fmt.pf ppf
    "@[<v>original:       %d cycles@,\
     logging:        %d cycles (%.2fx)@,\
     full tracing:   %d cycles (%.1fx)@,\
     reduced replay: %d cycles (%.3fx)@,\
     requests:       %d relevant of %d@,\
     deps:           %d full -> %d reduced@,\
     fault reproduced: %b@]"
    r.original_cycles r.logging_cycles (ratio r.logging_cycles)
    r.tracing_cycles (ratio r.tracing_cycles) r.replay_cycles
    (ratio r.replay_cycles) r.relevant_requests r.total_requests r.full_deps
    r.reduced_deps r.fault_reproduced
