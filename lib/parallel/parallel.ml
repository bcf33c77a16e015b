(** The real two-domain DIFT runtime (paper §2.1); see the interface
    for the architecture and [docs/forwarding-protocol.md] for the
    channel protocol. *)

open Dift_vm
open Dift_core

module Bool_engine = Engine.Make (Taint.Bool)

type result = {
  outcome : Event.outcome;
  events : int;
  sources : int;
  sink_hits : int;
  sink_trace_hash : int;
  tainted_locations : int;
  shadow_words : int;
  taint_fingerprint : int;
}

(* -- supervised outcomes ----------------------------------------------- *)

type leg = [ `App | `Helper | `Shard of int | `Spawn | `Deadline ]

type partial = {
  p_events : int;
  p_batches : int;
  p_dropped_batches : int;
  p_dropped_events : int;
  p_wall_ns : int;
}

type error = {
  e_leg : leg;
  e_exn : exn;
  e_secondary : exn list;
  e_partial : partial;
}

type degraded = {
  d_leg : leg;
  d_exn : exn;
  d_cutoff_step : int;
  d_replayed_events : int;
}

type report = {
  result : result;
  queue_capacity : int;
  batch_size : int;
  wire : Channel.wire;
  filtered_events : int;
      (** events the producer-side liveness filter dropped (0 with the
          filter off); [result.events] already adds them back *)
  batches : int;
  dropped_batches : int;
  dropped_events : int;
  producer_stalls : int;
  consumer_waits : int;
  main_wall_ns : int;
  total_wall_ns : int;
  degraded : degraded option;
}

type inline_report = {
  i_result : result;
  i_wall_ns : int;
}

let pp_leg ppf = function
  | `App -> Fmt.string ppf "application"
  | `Helper -> Fmt.string ppf "helper"
  | `Shard s -> Fmt.pf ppf "shard %d" s
  | `Spawn -> Fmt.string ppf "spawn"
  | `Deadline -> Fmt.string ppf "deadline"

let pp_error ppf e =
  Fmt.pf ppf
    "%a leg failed: %s%s; partial: %d events fed, %d batches delivered, \
     %d batches / %d events dropped, %.2f ms"
    pp_leg e.e_leg
    (Printexc.to_string e.e_exn)
    (match e.e_secondary with
    | [] -> ""
    | l -> Fmt.str " (+%d secondary)" (List.length l))
    e.e_partial.p_events e.e_partial.p_batches e.e_partial.p_dropped_batches
    e.e_partial.p_dropped_events
    (float_of_int e.e_partial.p_wall_ns /. 1e6)

(* Monotonic (see {!Dift_obs.Clock}): wall intervals must never go
   negative even if the system clock steps mid-run. *)
let now_ns = Dift_obs.Clock.now_ns

(* The sink trace: an order-sensitive accumulation of every sink
   observation (step, sink, taint), one integer mix per sink event and
   no allocation.  Every runtime folds the same observations in step
   order, so the hashes agree across configurations. *)
let sink_code : Engine.sink -> int = function
  | Engine.Sink_icall -> 0
  | Engine.Sink_output -> 1
  | Engine.Sink_check -> 2
  | Engine.Sink_store_address -> 3
  | Engine.Sink_load_address -> 4
  | Engine.Sink_branch -> 5

let mix h sink taint step =
  let x = (step lsl 4) lor (sink_code sink lsl 1) lor Bool.to_int taint in
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

let taint_fingerprint eng =
  let sh = Bool_engine.shadow eng in
  Bool_engine.Sh.fold (fun loc d acc -> (loc, d) :: acc) sh []
  |> List.sort compare |> Hashtbl.hash

(* Shared between the inline and the parallel paths: an engine whose
   sink observations feed the trace hash, read off the view, and the
   client callback, the only one that needs each sink's record — with
   modelled-cycle charging disabled: this runtime measures wall clock,
   not the cycle model. *)
let make_engine ?policy ?on_sink program =
  let eng = Bool_engine.create ?policy program in
  Bool_engine.set_charge eng ignore;
  let trace = ref 0 in
  Bool_engine.on_sink_view eng (fun sink taint v ->
      trace := mix !trace sink taint v.Event.v_step);
  (match on_sink with Some f -> Bool_engine.on_sink eng f | None -> ());
  (eng, trace)

let result_of eng trace outcome =
  let s = Bool_engine.stats eng in
  let tainted_locations, shadow_words = Bool_engine.shadow_footprint eng in
  {
    outcome;
    events = s.Engine.events;
    sources = s.Engine.sources;
    sink_hits = s.Engine.sink_hits;
    sink_trace_hash = !trace;
    tainted_locations;
    shadow_words;
    taint_fingerprint = taint_fingerprint eng;
  }

(* Channel geometry below 1 would loop in batch fill / ring indexing
   arithmetic; reject it up front with a caller-level message. *)
let validate_geometry fn ~queue_capacity ~batch_size =
  if queue_capacity < 1 then
    invalid_arg
      (Fmt.str "Parallel.%s: queue_capacity = %d < 1" fn queue_capacity);
  if batch_size < 1 then
    invalid_arg (Fmt.str "Parallel.%s: batch_size = %d < 1" fn batch_size)

(* One bounded flight event (category [run]) on the calling domain's
   ring; a no-op when the recorder is off. *)
let flight_ev flight ?a ?b ?detail name =
  match flight with
  | None -> ()
  | Some fl -> Dift_obs.Flight.record fl ?a ?b ?detail ~cat:"run" name

let flight_name flight name =
  match flight with
  | None -> ()
  | Some fl -> Dift_obs.Flight.name_domain fl name

let leg_to_string = function
  | `App -> "app"
  | `Helper -> "helper"
  | `Shard s -> Fmt.str "shard-%d" s
  | `Spawn -> "spawn"
  | `Deadline -> "deadline"

let pp_degraded ppf d =
  Fmt.pf ppf
    "degraded: %a leg failed (%s); inline completion replayed %d events \
     after step %d"
    pp_leg d.d_leg
    (Printexc.to_string d.d_exn)
    d.d_replayed_events d.d_cutoff_step

(* Chaos [Spawn] interception, shared by both runtimes' supervisors:
   any non-Proceed action models [Domain.spawn] itself failing. *)
let chaos_spawn chaos body =
  (match chaos with
  | None -> ()
  | Some c -> (
      match Chaos.on_spawn c with
      | Chaos.Proceed -> ()
      | Chaos.Raise_now e -> raise e
      | Chaos.Fail | Chaos.Abort_now ->
          raise (Chaos.Injected "injected spawn failure, helper")));
  Domain.spawn body

(* Watchdog progress-leg helpers: [arm_leg]/[disarm_leg] publish the
   spawn window (armed from just before [Domain.spawn] until the body's
   first instruction), [with_leg] brackets a join. *)
let arm_leg = function
  | Some l -> Dift_obs.Progress.enter l
  | None -> ()

let disarm_leg = function
  | Some l -> Dift_obs.Progress.leave l
  | None -> ()

let with_leg leg f =
  match leg with
  | None -> f ()
  | Some l ->
      Dift_obs.Progress.enter l;
      Fun.protect ~finally:(fun () -> Dift_obs.Progress.leave l) f

let run_result ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade
    ?(queue_capacity = 64) ?(batch_size = 64) ?(wire = `Coded)
    ?(forward_filter = false) ?policy ?on_sink program ~input =
  validate_geometry "run" ~queue_capacity ~batch_size;
  let progress = Option.map Watchdog.progress watchdog in
  let fwd =
    Channel.create ?obs ?trace ?flight ?chaos ?progress ~wire ~queue_capacity
      ~batch_size
      ~table:(lazy (Site.of_program program))
      ()
  in
  (* one idempotent cascade hook: a deadline miss aborts the channel,
     unparking both domains (the same abort every crash path runs) *)
  (match watchdog with
  | Some w -> Watchdog.on_miss w ~name:"parallel" (fun () -> Channel.abort fwd)
  | None -> ());
  let spawn_leg =
    Option.map (fun p -> Dift_obs.Progress.leg p "spawn.helper") progress
  in
  let join_leg =
    Option.map (fun p -> Dift_obs.Progress.leg p "join.helper") progress
  in
  (* degraded-mode cutoff: step of the last event of the last batch the
     helper fully processed.  Written by the helper, read by the
     application domain strictly after the join (the happens-before
     edge), so a plain ref suffices. *)
  let cutoff = ref (-1) in
  (* the filter is sound only when taint flows through the event's
     read set; control-plane taint escapes it, so the filter silently
     stands down under propagate_control *)
  let lf =
    let p = Option.value policy ~default:Policy.default in
    if forward_filter && not p.Policy.propagate_control then
      Some (Livefilter.create ~slots:1 ())
    else None
  in
  let eng, sink_trace = make_engine ?policy ?on_sink program in
  (* Timeline: the engine samples its shadow footprint from whichever
     domain processes events — the helper track, here. *)
  (match trace with Some tr -> Bool_engine.set_trace eng tr | None -> ());
  (* Flight recorder: engine milestones land on the helper's ring. *)
  (match flight with
  | Some fl -> Bool_engine.set_flight eng fl
  | None -> ());
  (* Observability: engine gauges plus helper-domain utilization —
     busy time is measured around whole batches (one clock read per
     batch, not per event) and compared to the helper's wall time at
     snapshot.  The same per-batch measurement feeds the
     [parallel.helper.batch] span, whose snapshot carries the batch
     count and mean latency. *)
  let around_batch =
    match obs with
    | None -> fun k -> k ()
    | Some reg ->
        let open Dift_obs in
        Bool_engine.register_obs eng reg;
        let busy =
          Registry.counter reg "parallel.helper.busy_ns"
            ~help:"helper time spent processing batches"
        in
        let wall =
          Registry.counter reg "parallel.helper.wall_ns"
            ~help:"helper wall time, spawn to drain end"
        in
        let batch_span =
          Registry.span reg "parallel.helper.batch"
            ~help:"per-batch propagation latency"
        in
        Registry.gauge_fn reg "parallel.helper.utilization_pct"
          ~help:"busy / wall, percent" (fun () ->
            Registry.value busy * 100 / max 1 (Registry.value wall));
        fun k ->
          let t0 = now_ns () in
          k ();
          let dt = now_ns () - t0 in
          Registry.add busy dt;
          Registry.record_ns batch_span dt
  in
  (* Timeline: each batch the helper propagates is an [engine.batch]
     span on the helper track — §2.1's "tracking proceeds elsewhere"
     as visible duration blocks interleaving with the app track. *)
  let around_batch =
    match trace with
    | None -> around_batch
    | Some tr ->
        fun k ->
          Dift_obs.Trace.span tr ~cat:"core" "engine.batch" (fun () ->
              around_batch k)
  in
  let helper_wall =
    Option.map
      (fun reg -> Dift_obs.Registry.counter reg "parallel.helper.wall_ns")
      obs
  in
  let helper_body () =
    (* the spawn-to-first-progress window is over *)
    disarm_leg spawn_leg;
    (match trace with
    | Some tr -> Dift_obs.Trace.name_track tr "helper"
    | None -> ());
    flight_name flight "helper";
    flight_ev flight "helper.start";
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        match helper_wall with
        | Some wall -> Dift_obs.Registry.add wall (now_ns () - t0)
        | None -> ())
    @@ fun () ->
    let f, after_batch =
      match lf with
      | None -> ((fun v -> Bool_engine.process_view eng v), None)
      | Some l ->
          (* publish taint per event (after processing), advance the
             epoch per batch: the exact order the filter's soundness
             argument relies on *)
          let sh = Bool_engine.shadow eng in
          let tainted loc =
            not (Taint.Bool.is_bottom (Bool_engine.Sh.get sh loc))
          in
          (* generation reset: republish all live taint from the
             helper's shadow before acking the new generation *)
          let repopulate () =
            Bool_engine.Sh.fold
              (fun loc d () ->
                if not (Taint.Bool.is_bottom d) then
                  Livefilter.publish_loc l loc)
              sh ()
          in
          ( (fun v ->
              Bool_engine.process_view eng v;
              Livefilter.publish l ~tainted v),
            Some
              (fun ~last_step ->
                Livefilter.advance ~repopulate l ~slot:0 ~step:last_step) )
    in
    (* degraded mode resumes strictly after the last fully-processed
       batch, so the cutoff only ever advances at batch boundaries *)
    let after_batch =
      match degrade with
      | None -> after_batch
      | Some `Inline ->
          Some
            (fun ~last_step ->
              cutoff := last_step;
              match after_batch with
              | Some g -> g ~last_step
              | None -> ())
    in
    let drain () = Channel.drain ~around_batch ?after_batch fwd ~f in
    try
      match trace with
      | Some tr ->
          Dift_obs.Trace.span tr ~cat:"parallel" "helper.drain" drain
      | None -> drain ()
    with ex ->
      (* never leave the application domain blocked on a full ring *)
      Channel.abort fwd;
      raise ex
  in
  let t_start = now_ns () in
  let partial () =
    {
      p_events = Channel.events fwd;
      p_batches = Channel.batches fwd;
      p_dropped_batches = Channel.dropped_batches fwd;
      p_dropped_events = Channel.dropped_events fwd;
      p_wall_ns = now_ns () - t_start;
    }
  in
  (* Close the channel for good even when the trailing flush takes an
     injected failure: the raising flush already detached its batch,
     so the retry is a quiet no-op flush + ring close.  The helper can
     therefore always terminate. *)
  let close_fwd () =
    match Channel.close fwd with
    | () -> None
    | exception ex ->
        (try Channel.close fwd with _ -> Channel.abort fwd);
        Some ex
  in
  flight_name flight "app";
  flight_ev flight "run.start" ~a:queue_capacity ~b:batch_size
    ~detail:"two-domain";
  let errored e =
    flight_ev flight "run.error" ~detail:(leg_to_string e.e_leg);
    Error e
  in
  let wd_fired () =
    match watchdog with Some w -> Watchdog.fired w | None -> None
  in
  (* A post-cascade run can die of a downstream abort exception — or
     even complete looking ordinary.  The deadline miss is the root
     cause, so it takes over as the primary error; whatever the legs
     died of becomes secondary. *)
  let wd_override e =
    match wd_fired () with
    | None -> e
    | Some m ->
        {
          e_leg = `Deadline;
          e_exn = Watchdog.Deadline_exceeded m;
          e_secondary = e.e_exn :: e.e_secondary;
          e_partial = e.e_partial;
        }
  in
  let mk_report ~filtered ~degraded result ~main_wall_ns ~total_wall_ns =
    {
      result;
      queue_capacity;
      batch_size;
      wire;
      filtered_events = filtered;
      batches = Channel.batches fwd;
      dropped_batches = Channel.dropped_batches fwd;
      dropped_events = Channel.dropped_events fwd;
      producer_stalls = Channel.producer_stalls fwd;
      consumer_waits = Channel.consumer_waits fwd;
      main_wall_ns;
      total_wall_ns;
      degraded;
    }
  in
  (* Degraded-mode inline completion: when a non-application leg fails
     (helper crash, spawn failure, deadline miss), re-execute the
     deterministic machine, counting every event but processing only
     those strictly past the cutoff through the retained engine — the
     events at or below it were fully processed by the helper exactly
     once, so the merged result is bit-identical to a pure inline run.
     Application-leg failures are excluded: the app's own crash would
     simply recur in the replay (as does a client [on_sink] exception,
     which aborts the replay and restores the original error). *)
  let conclude_err e =
    match degrade with
    | Some `Inline when e.e_leg <> `App -> (
        let cut = !cutoff in
        flight_ev flight "run.degrade" ~a:cut ~detail:(leg_to_string e.e_leg);
        let total = ref 0 and replayed = ref 0 in
        let replay () =
          let m = Machine.create ?config program ~input in
          Machine.attach m
            (Tool.make ~dispatch_cost:0
               ~on_view:(fun v ->
                 incr total;
                 if v.Event.v_step > cut then begin
                   incr replayed;
                   Bool_engine.process_view eng v
                 end)
               "degraded-inline-dift");
          Machine.run m
        in
        match replay () with
        | exception rx -> errored { e with e_secondary = e.e_secondary @ [ rx ] }
        | outcome ->
            (* the engine processed the admitted events up to the
               cutoff (helper-side) plus everything past it (replay);
               the report counts whole-program events, as inline does *)
            let result =
              let r = result_of eng sink_trace outcome in
              { r with events = !total }
            in
            flight_ev flight "run.done" ~a:!total ~b:!replayed;
            let wall = now_ns () - t_start in
            Ok
              (mk_report
                 ~filtered:
                   (match lf with Some l -> Livefilter.filtered l | None -> 0)
                 ~degraded:
                   (Some
                      {
                        d_leg = e.e_leg;
                        d_exn = e.e_exn;
                        d_cutoff_step = cut;
                        d_replayed_events = !replayed;
                      })
                 result ~main_wall_ns:wall ~total_wall_ns:wall))
    | _ -> errored e
  in
  let finish_err e = conclude_err (wd_override e) in
  arm_leg spawn_leg;
  match chaos_spawn chaos helper_body with
  | exception ex ->
      (* the body never ran, so it cannot disarm the leg *)
      disarm_leg spawn_leg;
      finish_err
        { e_leg = `Spawn; e_exn = ex; e_secondary = []; e_partial = partial () }
  | helper -> (
      let m = Machine.create ?config program ~input in
      (match obs with Some reg -> Obs_tool.attach reg m | None -> ());
      (match trace with
      | Some tr -> Dift_obs.Trace.name_track tr "app"
      | None -> ());
      let on_view =
        match lf with
        | None -> Channel.add_view fwd
        | Some l ->
            fun v -> if Livefilter.admit_view l v then Channel.add_view fwd v
      in
      Machine.attach m
        (Tool.make ~dispatch_cost:0 ~on_view "parallel-dift-forwarder");
      let t0 = now_ns () in
      let run_machine () =
        match trace with
        | Some tr ->
            Dift_obs.Trace.span tr ~cat:"vm" "app.run" (fun () ->
                Machine.run m)
        | None -> Machine.run m
      in
      let join_helper () = with_leg join_leg (fun () -> Domain.join helper) in
      let join_quiet () =
        match join_helper () with () -> [] | exception hx -> [ hx ]
      in
      match run_machine () with
      | exception ex ->
          (* shut the channel down before reporting so the helper
             exits; its own failure, if any, is secondary *)
          let close_exn = close_fwd () in
          let secondary = Option.to_list close_exn @ join_quiet () in
          finish_err
            { e_leg = `App; e_exn = ex; e_secondary = secondary;
              e_partial = partial () }
      | outcome -> (
          match close_fwd () with
          | Some ex ->
              finish_err
                { e_leg = `App; e_exn = ex; e_secondary = join_quiet ();
                  e_partial = partial () }
          | None -> (
              let main_wall_ns = now_ns () - t0 in
              match join_helper () with
              | exception hx ->
                  finish_err
                    { e_leg = `Helper; e_exn = hx; e_secondary = [];
                      e_partial = partial () }
              | () -> (
                  let total_wall_ns = now_ns () - t0 in
                  (* a cascade can leave every leg terminating cleanly:
                     the watchdog verdict outranks the ordinary one *)
                  match wd_fired () with
                  | Some m ->
                      conclude_err
                        {
                          e_leg = `Deadline;
                          e_exn = Watchdog.Deadline_exceeded m;
                          e_secondary = [];
                          e_partial = partial ();
                        }
                  | None ->
                      flight_ev flight "run.done" ~a:(Channel.events fwd)
                        ~b:(Channel.batches fwd);
                      let filtered_events =
                        match lf with
                        | Some l -> Livefilter.filtered l
                        | None -> 0
                      in
                      (* add the filtered events back so the report
                         counts whole-program events on every
                         configuration — filtered and unfiltered runs
                         stay bit-identical *)
                      let result =
                        let r = result_of eng sink_trace outcome in
                        { r with events = r.events + filtered_events }
                      in
                      Ok
                        (mk_report ~filtered:filtered_events ~degraded:None
                           result ~main_wall_ns ~total_wall_ns)))))

let run ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade ?queue_capacity
    ?batch_size ?wire ?forward_filter ?policy ?on_sink program ~input =
  match
    run_result ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade
      ?queue_capacity ?batch_size ?wire ?forward_filter ?policy ?on_sink
      program ~input
  with
  | Ok r -> r
  | Error e -> raise e.e_exn

let run_inline ?config ?obs ?trace ?flight ?policy ?on_sink program ~input =
  let eng, sink_trace = make_engine ?policy ?on_sink program in
  (match trace with
  | Some tr ->
      Dift_obs.Trace.name_track tr "app";
      Bool_engine.set_trace eng tr
  | None -> ());
  (match flight with
  | Some fl ->
      Dift_obs.Flight.name_domain fl "app";
      Bool_engine.set_flight eng fl
  | None -> ());
  let m = Machine.create ?config program ~input in
  (match obs with
  | Some reg ->
      Bool_engine.register_obs eng reg;
      Obs_tool.attach reg m
  | None -> ());
  Machine.attach m
    (Tool.make ~dispatch_cost:0 ~on_view:(Bool_engine.process_view eng)
       "inline-dift");
  let t0 = now_ns () in
  let outcome =
    match trace with
    | Some tr ->
        Dift_obs.Trace.span tr ~cat:"vm" "app.run" (fun () -> Machine.run m)
    | None -> Machine.run m
  in
  let i_wall_ns = now_ns () - t0 in
  { i_result = result_of eng sink_trace outcome; i_wall_ns }

(* -- the sharded N-helper runtime ------------------------------------- *)

module Bool_shards = Shard_engine.Make (Taint.Bool)

type sharded_report = {
  s_result : result;
  s_shards : int;
  s_route : Shard_engine.route;
  s_queue_capacity : int;
  s_batch_size : int;
  s_wire : Channel.wire;
  s_filtered_events : int;
      (** events the producer-side liveness filter dropped (0 with the
          filter off); [s_result.events] already adds them back *)
  s_cross_events : int;
  s_exchange_messages : int;
  s_per_shard : Shard_engine.shard_stat array;
  s_main_wall_ns : int;
  s_total_wall_ns : int;
  s_degraded : degraded option;
}

let run_sharded_result ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade
    ?route ?(queue_capacity = 64) ?(batch_size = 64) ?xchg_capacity
    ?block_bits ?(wire = `Coded) ?(forward_filter = false) ?policy ?on_sink
    ~shards program ~input =
  if shards < 1 then
    invalid_arg (Fmt.str "Parallel.run_sharded: shards = %d < 1" shards);
  validate_geometry "run_sharded" ~queue_capacity ~batch_size;
  (* control-plane taint escapes the read set: stand down silently,
     exactly as in {!run_result} *)
  let lf =
    let p = Option.value policy ~default:Policy.default in
    if forward_filter && not p.Policy.propagate_control then
      Some (Livefilter.create ~slots:shards ())
    else None
  in
  let c =
    Bool_shards.cluster ?policy ?route ?block_bits ?obs ?trace ?flight
      ?chaos ?watchdog ~queue_capacity ~batch_size ?xchg_capacity ~wire
      ?filter:lf ~shards program
  in
  (* shards build a sink's record only for a client callback *)
  if Option.is_some on_sink then Bool_shards.record_sink_events c;
  let t_start = now_ns () in
  let partial () =
    Array.fold_left
      (fun acc (s : Shard_engine.shard_stat) ->
        {
          acc with
          p_events = acc.p_events + s.Shard_engine.fed;
          p_batches = acc.p_batches + s.Shard_engine.batches;
          p_dropped_batches =
            acc.p_dropped_batches + s.Shard_engine.dropped_batches;
          p_dropped_events =
            acc.p_dropped_events + s.Shard_engine.dropped_events;
        })
      {
        p_events = 0;
        p_batches = 0;
        p_dropped_batches = 0;
        p_dropped_events = 0;
        p_wall_ns = now_ns () - t_start;
      }
      (Bool_shards.shard_stats c)
  in
  (* attribute a cluster failure to the first shard that died of its
     own exception (not of the Shard_dead cascade) *)
  let error_of_failure (f : Shard_engine.failure) =
    let primary_shard =
      match
        List.find_opt
          (fun (_, e) -> e <> Shard_engine.Shard_dead)
          f.Shard_engine.f_shards
      with
      | Some (s, _) -> Some s
      | None -> (
          match f.Shard_engine.f_shards with
          | (s, _) :: _ -> Some s
          | [] -> None)
    in
    {
      e_leg =
        (match primary_shard with Some s -> `Shard s | None -> `App);
      e_exn = f.Shard_engine.f_primary;
      e_secondary =
        List.filter_map
          (fun (s, e) ->
            if Some s = primary_shard then None else Some e)
          f.Shard_engine.f_shards;
      e_partial = partial ();
    }
  in
  flight_name flight "app";
  flight_ev flight "run.start" ~a:shards ~b:queue_capacity
    ~detail:"sharded";
  let errored e =
    flight_ev flight "run.error" ~detail:(leg_to_string e.e_leg);
    Error e
  in
  let wd_fired () =
    match watchdog with Some w -> Watchdog.fired w | None -> None
  in
  (* the deadline miss is the root cause of whatever the legs then
     died of — it takes over as the primary error (see run_result) *)
  let wd_override e =
    match wd_fired () with
    | None -> e
    | Some m ->
        {
          e_leg = `Deadline;
          e_exn = Watchdog.Deadline_exceeded m;
          e_secondary = e.e_exn :: e.e_secondary;
          e_partial = e.e_partial;
        }
  in
  (* Degraded-mode inline completion, sharded edition.  Unlike the
     two-domain runtime there is no exact resume point: a cross-shard
     event may have been half-exchanged when the cluster died, and no
     single cutoff covers N shards mid-protocol.  The replay is
     therefore a full inline rerun on a fresh engine — trivially
     bit-identical to {!run_inline} — while the partial cluster
     accounting survives in the report ([d_cutoff_step] is [-1]:
     nothing was resumed). *)
  let conclude_err e =
    match degrade with
    | Some `Inline when e.e_leg <> `App -> (
        flight_ev flight "run.degrade" ~a:(-1)
          ~detail:(leg_to_string e.e_leg);
        let replay () =
          let eng, sink_trace = make_engine ?policy ?on_sink program in
          let m = Machine.create ?config program ~input in
          Machine.attach m
            (Tool.make ~dispatch_cost:0 ~on_view:(Bool_engine.process_view eng)
               "degraded-inline-dift");
          let outcome = Machine.run m in
          result_of eng sink_trace outcome
        in
        match replay () with
        | exception rx -> errored { e with e_secondary = e.e_secondary @ [ rx ] }
        | result ->
            flight_ev flight "run.done" ~a:result.events ~b:0;
            let wall = now_ns () - t_start in
            Ok
              {
                s_result = result;
                s_shards = shards;
                s_route =
                  (match route with Some r -> r | None -> `Request_reply);
                s_queue_capacity = queue_capacity;
                s_batch_size = batch_size;
                s_wire = wire;
                s_filtered_events =
                  (match lf with Some l -> Livefilter.filtered l | None -> 0);
                s_cross_events = Bool_shards.cross_events c;
                s_exchange_messages = Bool_shards.exchange_messages c;
                s_per_shard = Bool_shards.shard_stats c;
                s_main_wall_ns = wall;
                s_total_wall_ns = wall;
                s_degraded =
                  Some
                    {
                      d_leg = e.e_leg;
                      d_exn = e.e_exn;
                      d_cutoff_step = -1;
                      d_replayed_events = result.events;
                    };
              })
    | _ -> errored e
  in
  let finish_err e = conclude_err (wd_override e) in
  match Bool_shards.start c with
  | exception Shard_engine.Spawn_failure ex ->
      finish_err
        { e_leg = `Spawn; e_exn = ex; e_secondary = [];
          e_partial = partial () }
  | () -> (
      let m = Machine.create ?config program ~input in
      (match obs with Some reg -> Obs_tool.attach reg m | None -> ());
      (match trace with
      | Some tr -> Dift_obs.Trace.name_track tr "app"
      | None -> ());
      Machine.attach m
        (Tool.make ~dispatch_cost:0 ~on_view:(Bool_shards.feed_view c)
           "sharded-dift-router");
      let t0 = now_ns () in
      let run_machine () =
        match trace with
        | Some tr ->
            Dift_obs.Trace.span tr ~cat:"vm" "app.run" (fun () ->
                Machine.run m)
        | None -> Machine.run m
      in
      match run_machine () with
      | exception ex ->
          (* shut the channels down before reporting so every helper
             exits; their failures are secondary to the app's.  The
             crash may have split a cross-shard event across only some
             participants, so the mesh must go down too — a plain
             close would leave the home shard waiting on a provide leg
             that never comes. *)
          Bool_shards.abort c;
          let secondary =
            match Bool_shards.finish_result c with
            | Ok _ -> []
            | Error f ->
                List.map snd f.Shard_engine.f_shards
          in
          finish_err
            { e_leg = `App; e_exn = ex; e_secondary = secondary;
              e_partial = partial () }
      | outcome -> (
          let s_main_wall_ns = now_ns () - t0 in
          (* closes the channels, joins every shard *)
          match Bool_shards.finish_result c with
          | Error f -> finish_err (error_of_failure f)
          | Ok _ when wd_fired () <> None ->
              (* a cascade can leave every shard terminating cleanly:
                 the watchdog verdict outranks the ordinary one *)
              let m = Option.get (wd_fired ()) in
              conclude_err
                {
                  e_leg = `Deadline;
                  e_exn = Watchdog.Deadline_exceeded m;
                  e_secondary = [];
                  e_partial = partial ();
                }
          | Ok merged ->
              let s_total_wall_ns = now_ns () - t0 in
              let s_filtered_events =
                match lf with Some l -> Livefilter.filtered l | None -> 0
              in
              flight_ev flight "run.done"
                ~a:merged.Bool_shards.m_events
                ~b:(Bool_shards.exchange_messages c);
              (* Deterministic sink delivery: unlike {!run}, whose
                 [on_sink] runs streaming on the helper domain, sharded
                 sink callbacks fire here, after the join, in global
                 step order. *)
              let sink_trace_hash =
                List.fold_left
                  (fun h (step, sink, taint, _) -> mix h sink taint step)
                  0 merged.Bool_shards.m_sinks
              in
              (match on_sink with
              | Some f ->
                  List.iter
                    (fun (_, sink, taint, e) -> f sink taint (Option.get e))
                    merged.Bool_shards.m_sinks
              | None -> ());
              Ok
                {
                  s_result =
                    {
                      outcome;
                      events = merged.Bool_shards.m_events + s_filtered_events;
                      sources = merged.Bool_shards.m_sources;
                      sink_hits = merged.Bool_shards.m_sink_hits;
                      sink_trace_hash;
                      tainted_locations =
                        merged.Bool_shards.m_tainted_locations;
                      shadow_words = merged.Bool_shards.m_shadow_words;
                      taint_fingerprint = merged.Bool_shards.m_fingerprint;
                    };
                  s_shards = shards;
                  s_route =
                    (match route with Some r -> r | None -> `Request_reply);
                  s_queue_capacity = queue_capacity;
                  s_batch_size = batch_size;
                  s_wire = wire;
                  s_filtered_events;
                  s_cross_events = Bool_shards.cross_events c;
                  s_exchange_messages = Bool_shards.exchange_messages c;
                  s_per_shard = Bool_shards.shard_stats c;
                  s_main_wall_ns;
                  s_total_wall_ns;
                  s_degraded = None;
                }))

let run_sharded ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade ?route
    ?queue_capacity ?batch_size ?xchg_capacity ?block_bits ?wire
    ?forward_filter ?policy ?on_sink ~shards program ~input =
  match
    run_sharded_result ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade
      ?route ?queue_capacity ?batch_size ?xchg_capacity ?block_bits ?wire
      ?forward_filter ?policy ?on_sink ~shards program ~input
  with
  | Ok r -> r
  | Error e -> raise e.e_exn

let pp_sharded_report ppf r =
  Fmt.pf ppf
    "%d shard%s (%a): %d cross events, %d exchange msgs; main %.2f ms, \
     total %.2f ms"
    r.s_shards
    (if r.s_shards = 1 then "" else "s")
    Shard_engine.pp_route r.s_route r.s_cross_events r.s_exchange_messages
    (float_of_int r.s_main_wall_ns /. 1e6)
    (float_of_int r.s_total_wall_ns /. 1e6)

let native_wall_ns ?config program ~input =
  let m = Machine.create ?config program ~input in
  let t0 = now_ns () in
  ignore (Machine.run m);
  now_ns () - t0

let speedup i r =
  float_of_int i.i_wall_ns /. float_of_int (max 1 r.total_wall_ns)

let main_ratio i r =
  float_of_int r.main_wall_ns /. float_of_int (max 1 i.i_wall_ns)

let pp_result ppf r =
  Fmt.pf ppf
    "%a; %d events, %d sources, %d sink hits; shadow %d locs / %d words"
    Event.pp_outcome r.outcome r.events r.sources r.sink_hits
    r.tainted_locations r.shadow_words

let pp_report ppf r =
  Fmt.pf ppf
    "queue %d x %d (%a wire%t): %a; %d batches, %d stalls, %d waits; main \
     %.2f ms, total %.2f ms"
    r.queue_capacity r.batch_size Channel.pp_wire r.wire
    (fun ppf ->
      if r.filtered_events > 0 then
        Fmt.pf ppf ", %d filtered" r.filtered_events)
    pp_result r.result r.batches r.producer_stalls r.consumer_waits
    (float_of_int r.main_wall_ns /. 1e6)
    (float_of_int r.total_wall_ns /. 1e6)

let pp_inline_report ppf r =
  Fmt.pf ppf "inline: %a; %.2f ms" pp_result r.i_result
    (float_of_int r.i_wall_ns /. 1e6)
