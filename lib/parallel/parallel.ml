(** The parallel DIFT runtime (paper §2.1): one supervisor over a
    {!Shard_engine} helper; see the interface for the architecture and
    [docs/forwarding-protocol.md] for the channel protocol. *)

open Dift_vm
open Dift_core

module Bool_helper = Shard_engine.Make (Taint.Bool)
module Bool_engine = Bool_helper.E

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

type leg = [ `App | `Helper | `Spawn | `Deadline ]

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

let result_of outcome ~events (m : Bool_helper.summary) =
  {
    outcome;
    events;
    sources = m.Bool_helper.m_sources;
    sink_hits = m.Bool_helper.m_sink_hits;
    sink_trace_hash = m.Bool_helper.m_sink_hash;
    tainted_locations = m.Bool_helper.m_tainted_locations;
    shadow_words = m.Bool_helper.m_shadow_words;
    taint_fingerprint = m.Bool_helper.m_fingerprint;
  }

let leg_to_string = function
  | `App -> "app"
  | `Helper -> "helper"
  | `Spawn -> "spawn"
  | `Deadline -> "deadline"

let pp_degraded ppf d =
  Fmt.pf ppf
    "degraded: %a leg failed (%s); inline completion replayed %d events \
     after step %d"
    pp_leg d.d_leg
    (Printexc.to_string d.d_exn)
    d.d_replayed_events d.d_cutoff_step

(* What a supervised run hands its entry point's report builder. *)
type run = {
  r_result : result;
  r_filtered : int;
  r_main_wall_ns : int;
  r_total_wall_ns : int;
  r_degraded : degraded option;
}

(* The one supervisor: the application domain runs the machine and
   feeds the helper, then every leg's outcome — clean join, helper
   crash, application crash, spawn failure, deadline miss, degraded
   completion — becomes a [run] or a structured error.  The channel
   checks the geometry as the cluster creates it, before any domain. *)
let supervise ?config ~probe ?degrade ~queue_capacity ~batch_size ~wire
    ~forward_filter ?policy ?on_sink ~report program ~input =
  (* the filter is sound only when taint flows through the event's
     read set; control-plane taint escapes it, so the filter silently
     stands down under propagate_control *)
  let lf =
    let p = Option.value policy ~default:Policy.default in
    if forward_filter && not p.Policy.propagate_control then
      Some (Livefilter.create ~slots:1 ())
    else None
  in
  let c =
    Bool_helper.cluster ?policy ~probe ~queue_capacity ~batch_size ~wire
      ?filter:lf program
  in
  (* the helper builds a sink's record only for a client callback *)
  if Option.is_some on_sink then Bool_helper.record_sink_events c;
  let filtered () = match lf with Some l -> Livefilter.filtered l | None -> 0 in
  let t_start = now_ns () in
  let partial () =
    let s = Bool_helper.shard_stat c in
    {
      p_events = s.Shard_engine.fed;
      p_batches = s.Shard_engine.batches;
      p_dropped_batches = s.Shard_engine.dropped_batches;
      p_dropped_events = s.Shard_engine.dropped_events;
      p_wall_ns = now_ns () - t_start;
    }
  in
  let error_of_failure (f : Shard_engine.failure) =
    {
      e_leg = (if f.Shard_engine.f_helper then `Helper else `App);
      e_exn = f.Shard_engine.f_primary;
      e_secondary = [];
      e_partial = partial ();
    }
  in
  Probe.run_start probe ~queue_capacity;
  let errored e =
    Probe.run_error probe ~leg:(leg_to_string e.e_leg);
    Error e
  in
  (* A post-cascade run can die of a downstream abort exception — or
     even complete looking ordinary.  The deadline miss is the root
     cause, so it takes over as the primary error; whatever the legs
     died of becomes secondary. *)
  let wd_override e =
    match Probe.missed probe with
    | None -> e
    | Some m ->
        {
          e_leg = `Deadline;
          e_exn = Watchdog.Deadline_exceeded m;
          e_secondary = e.e_exn :: e.e_secondary;
          e_partial = e.e_partial;
        }
  in
  (* Sink delivery: the client callback runs here, on the calling
     domain, after the join, once per sink in step order.  Its failure
     is the application's. *)
  let complete ?(secondary = []) outcome summary ~events ~degraded
      ~main_wall_ns ~total_wall_ns ~done_b =
    match
      Option.iter
        (fun f ->
          List.iter
            (fun (_, sink, taint, e) -> f sink taint (Option.get e))
            summary.Bool_helper.m_sinks)
        on_sink
    with
    | exception ex ->
        errored
          { e_leg = `App; e_exn = ex; e_secondary = secondary;
            e_partial = partial () }
    | () ->
        Probe.run_done probe ~events ~batches:done_b;
        Ok
          (report c
             {
               r_result = result_of outcome ~events summary;
               r_filtered = filtered ();
               r_main_wall_ns = main_wall_ns;
               r_total_wall_ns = total_wall_ns;
               r_degraded = degraded;
             })
  in
  (* Degraded-mode inline completion: when a non-application leg fails
     (helper crash, spawn failure, deadline miss), re-execute the
     deterministic machine, counting every event but processing only
     those past the helper's resume point ({!Shard_engine.Make.resume}:
     after its last fully processed batch, whose events it processed
     exactly once), so the result is bit-identical to a pure inline
     run.
     Application-leg failures are excluded: the app's own crash would
     simply recur in the replay. *)
  let conclude_err e =
    match degrade with
    | Some `Inline when e.e_leg <> `App -> (
        let cut, w = Bool_helper.resume c in
        Probe.run_degrade probe ~cut ~leg:(leg_to_string e.e_leg);
        let total = ref 0 and replayed = ref 0 in
        let m = Machine.create ?config program ~input in
        Machine.attach m
          (Tool.make ~dispatch_cost:0
             ~on_view:(fun v ->
               incr total;
               if v.Event.v_step > cut then begin
                 incr replayed;
                 Bool_helper.transfer w v
               end)
             "degraded-inline-dift");
        match Machine.run m with
        | exception rx -> errored { e with e_secondary = e.e_secondary @ [ rx ] }
        | outcome ->
            let wall = now_ns () - t_start in
            (* the report counts whole-program events, as inline does *)
            complete ~secondary:[ e.e_exn ] outcome
              (Bool_helper.summary w)
              ~events:!total
              ~degraded:
                (Some
                   {
                     d_leg = e.e_leg;
                     d_exn = e.e_exn;
                     d_cutoff_step = cut;
                     d_replayed_events = !replayed;
                   })
              ~main_wall_ns:wall ~total_wall_ns:wall ~done_b:!replayed)
    | _ -> errored e
  in
  let finish_err e = conclude_err (wd_override e) in
  match Bool_helper.start c with
  | exception Shard_engine.Spawn_failure ex ->
      finish_err
        { e_leg = `Spawn; e_exn = ex; e_secondary = []; e_partial = partial () }
  | () -> (
      let m = Machine.create ?config program ~input in
      Probe.app probe m;
      Machine.attach m
        (Tool.make ~dispatch_cost:0 ~on_view:(Bool_helper.feed_view c)
           "parallel-dift-forwarder");
      let t0 = now_ns () in
      (* after a failure on this side: join the helper, keeping what
         it died of as a secondary failure *)
      let join_quiet () =
        match Bool_helper.finish_result c with
        | Error { Shard_engine.f_primary; f_helper = true } -> [ f_primary ]
        | Ok _ | Error _ -> []
      in
      match Probe.app_run probe (fun () -> Machine.run m) with
      | exception ex ->
          Bool_helper.abort c;
          finish_err
            { e_leg = `App; e_exn = ex; e_secondary = join_quiet ();
              e_partial = partial () }
      | outcome -> (
          match Bool_helper.close_feed c with
          | exception ex ->
              finish_err
                { e_leg = `App; e_exn = ex; e_secondary = join_quiet ();
                  e_partial = partial () }
          | () -> (
              let main_wall_ns = now_ns () - t0 in
              match Bool_helper.finish_result c with
              | Error f -> finish_err (error_of_failure f)
              | Ok summary -> (
                  let total_wall_ns = now_ns () - t0 in
                  (* a cascade can leave every leg terminating cleanly:
                     the watchdog verdict outranks the ordinary one *)
                  match Probe.missed probe with
                  | Some m ->
                      conclude_err
                        {
                          e_leg = `Deadline;
                          e_exn = Watchdog.Deadline_exceeded m;
                          e_secondary = [];
                          e_partial = partial ();
                        }
                  | None ->
                      let p = partial () in
                      (* add the filtered events back so the report
                         counts whole-program events on every
                         configuration — filtered and unfiltered runs
                         stay bit-identical *)
                      complete outcome summary
                        ~events:(summary.Bool_helper.m_events + filtered ())
                        ~degraded:None ~main_wall_ns ~total_wall_ns
                        ~done_b:p.p_batches))))

let run_result ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade
    ?(queue_capacity = Channel.default_queue_capacity)
    ?(batch_size = Channel.default_batch_size) ?(wire = `Coded)
    ?(forward_filter = false) ?policy ?on_sink program ~input =
  supervise ?config
    ~probe:(Probe.make ?obs ?trace ?flight ?chaos ?watchdog ())
    ?degrade ~queue_capacity ~batch_size ~wire ~forward_filter ?policy
    ?on_sink program ~input ~report:(fun c r ->
      let s = Bool_helper.shard_stat c in
      {
        result = r.r_result;
        queue_capacity;
        batch_size;
        wire;
        filtered_events = r.r_filtered;
        batches = s.Shard_engine.batches;
        dropped_batches = s.Shard_engine.dropped_batches;
        dropped_events = s.Shard_engine.dropped_events;
        producer_stalls = s.Shard_engine.producer_stalls;
        consumer_waits = s.Shard_engine.consumer_waits;
        main_wall_ns = r.r_main_wall_ns;
        total_wall_ns = r.r_total_wall_ns;
        degraded = r.r_degraded;
      })

(* The solo worker on the calling domain: the machine drives its
   engine directly, the client callback streams, and the result is the
   worker's {!Bool_helper.summary}, as in a degraded completion. *)
let run_inline ?config ?obs ?trace ?flight ?policy ?on_sink program ~input =
  let w = Bool_helper.solo ?policy ~record_sinks:false program in
  Option.iter (Bool_engine.on_sink (Bool_helper.engine w)) on_sink;
  let probe = Probe.make ?obs ?trace ?flight () in
  Bool_helper.instrument probe w;
  let m = Machine.create ?config program ~input in
  Probe.app probe m;
  Machine.attach m
    (Tool.make ~dispatch_cost:0 ~on_view:(Bool_helper.transfer w)
       "inline-dift");
  let t0 = now_ns () in
  let outcome = Probe.app_run probe (fun () -> Machine.run m) in
  let i_wall_ns = now_ns () - t0 in
  let summary = Bool_helper.summary w in
  {
    i_result = result_of outcome ~events:summary.Bool_helper.m_events summary;
    i_wall_ns;
  }

(* -- the benchmark ledger's entry point --------------------------------- *)

type sharded_report = {
  s_result : result;
  s_queue_capacity : int;
  s_batch_size : int;
  s_wire : Channel.wire;
  s_filtered_events : int;
      (** events the producer-side liveness filter dropped (0 with the
          filter off); [s_result.events] already adds them back *)
  s_helper : Shard_engine.shard_stat;
  s_main_wall_ns : int;
  s_total_wall_ns : int;
  s_degraded : degraded option;
}

let run_sharded_result ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade
    ?(queue_capacity = Channel.default_queue_capacity)
    ?(batch_size = Channel.default_batch_size) ?(wire = `Coded)
    ?(forward_filter = false) ?policy ?on_sink ~shards program ~input =
  if shards <> 1 then
    invalid_arg
      (Fmt.str "Parallel.run_sharded_result: shards = %d (want 1)" shards);
  supervise ?config
    ~probe:(Probe.make ?obs ?trace ?flight ?chaos ?watchdog ())
    ?degrade ~queue_capacity ~batch_size ~wire ~forward_filter ?policy
    ?on_sink program ~input ~report:(fun c r ->
      {
        s_result = r.r_result;
        s_queue_capacity = queue_capacity;
        s_batch_size = batch_size;
        s_wire = wire;
        s_filtered_events = r.r_filtered;
        s_helper = Bool_helper.shard_stat c;
        s_main_wall_ns = r.r_main_wall_ns;
        s_total_wall_ns = r.r_total_wall_ns;
        s_degraded = r.r_degraded;
      })

let native_wall_ns ?config program ~input =
  let m = Machine.create ?config program ~input in
  let t0 = now_ns () in
  ignore (Machine.run m);
  now_ns () - t0

let speedup i r =
  float_of_int i.i_wall_ns /. float_of_int (max 1 r.total_wall_ns)

let main_ratio i r =
  float_of_int r.main_wall_ns /. float_of_int (max 1 i.i_wall_ns)
