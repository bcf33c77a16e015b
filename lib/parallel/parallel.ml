(** The parallel DIFT runtime (paper §2.1): one supervisor over one
    helper domain; see the interface for the architecture and
    [docs/forwarding-protocol.md] for the channel protocol. *)

open Dift_isa
open Dift_vm
open Dift_core

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

(* The sink trace and the shadow fingerprint: one well-mixed integer
   per sink observation or shadow entry, folded by addition.  The sum
   does not depend on the fold order (the shadow's iteration order);
   the step inside each observation keeps the trace's order
   information. *)
let sink_code : Engine.sink -> int = function
  | Engine.Sink_icall -> 0
  | Engine.Sink_output -> 1
  | Engine.Sink_check -> 2
  | Engine.Sink_store_address -> 3
  | Engine.Sink_load_address -> 4
  | Engine.Sink_branch -> 5

let mix x =
  let h = (x lxor (x lsr 29)) * 0x100000001b3 in
  let h = (h lxor (h lsr 31)) * 0xbf58476d1ce4e5b in
  h lxor (h lsr 29)

let sink_hash ~step sink tainted =
  mix ((step lsl 4) lor (sink_code sink lsl 1) lor Bool.to_int tainted)

let entry_hash loc taint = mix (mix loc lxor taint)

(* What a supervised run hands its entry point's report builder. *)
type run = {
  r_result : result;
  r_filtered : int;
  r_main_wall_ns : int;
  r_total_wall_ns : int;
  r_degraded : degraded option;
}

module type S = sig
  type taint

  val run_result :
    ?config:Machine.config ->
    ?obs:Dift_obs.Registry.t ->
    ?trace:Dift_obs.Trace.t ->
    ?flight:Dift_obs.Flight.t ->
    ?chaos:Chaos.t ->
    ?watchdog:Watchdog.t ->
    ?degrade:[ `Inline ] ->
    ?queue_capacity:int ->
    ?batch_size:int ->
    ?wire:Channel.wire ->
    ?forward_filter:bool ->
    ?policy:Policy.t ->
    ?on_sink:(Engine.sink -> taint -> Event.exec -> unit) ->
    Program.t ->
    input:int array ->
    (report, error) Stdlib.result

  val run_inline :
    ?config:Machine.config ->
    ?obs:Dift_obs.Registry.t ->
    ?trace:Dift_obs.Trace.t ->
    ?flight:Dift_obs.Flight.t ->
    ?policy:Policy.t ->
    ?on_sink:(Engine.sink -> taint -> Event.exec -> unit) ->
    Program.t ->
    input:int array ->
    inline_report
end

module Make (D : Taint.DOMAIN) = struct
  module E = Engine.Make (D)

  (* [not (D.is_bottom t)], without a call through the functor
     parameter for the Bool domain: the sink hook and the filter's
     publication run it per event on the helper. *)
  let tainted (t : D.t) : bool =
    match D.as_bool with Some Taint.Refl -> t | None -> not (D.is_bottom t)

  (* -- the worker: the engine and its sink books ----------------------- *)

  type worker = {
    eng : E.t;
    transfer : Event.view -> unit;
        (** the engine's per-event function, behind the run's
            instruments ({!Probe.engine}) *)
    mutable sink_hash : int;
        (** {!sink_hash} summed over the worker's sink observations *)
    mutable sinks : (Engine.sink * D.t * Event.exec) list;
        (** newest first; kept only for a client sink callback run
            after the join *)
  }

  let worker ?policy ~probe ~record_sinks program =
    let policy = Option.value policy ~default:Policy.default in
    let eng = E.create ~policy program in
    (* wall-clock runtime: modelled-cycle charging is meaningless here *)
    E.set_charge eng ignore;
    let w =
      {
        eng;
        transfer =
          Probe.engine probe ~stats:(E.stats eng)
            ~shadow_footprint:(fun () -> E.shadow_footprint eng)
            (E.process_view eng);
        sink_hash = 0;
        sinks = [];
      }
    in
    E.on_sink_view eng (fun sink taint v ->
        let step = v.Event.v_step in
        w.sink_hash <- w.sink_hash + sink_hash ~step sink (tainted taint);
        if record_sinks then
          w.sinks <- (sink, taint, Event.view_to_exec v) :: w.sinks);
    w

  (* A taint as {!entry_hash}'s integer: itself for Bool. *)
  let taint_code : D.t -> int =
    match D.as_bool with
    | Some Taint.Refl -> Bool.to_int
    | None -> Hashtbl.hash

  (* The worker's results; for the helper's, only after the join. *)
  let result w outcome ~events =
    let s = E.stats w.eng and locations, words = E.shadow_footprint w.eng in
    {
      outcome;
      events;
      sources = s.Engine.sources;
      sink_hits = s.Engine.sink_hits;
      sink_trace_hash = w.sink_hash;
      tainted_locations = locations;
      shadow_words = words;
      taint_fingerprint =
        E.Sh.fold
          (fun loc d acc -> acc + entry_hash loc (taint_code d))
          (E.shadow w.eng) 0;
    }

  (* -- the supervisor ---------------------------------------------------- *)

  (* The one supervisor: the application domain runs the machine and
     feeds the helper, then every leg's outcome — clean join, helper
     crash, application crash, spawn failure, deadline miss, degraded
     completion — becomes a [run] or a structured error.  The channel
     checks the geometry as it is created, before any domain. *)
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
    let chan =
      Channel.create ~probe ~wire ~queue_capacity ~batch_size
        ~table:(lazy (Site.of_program program))
        ()
    in
    (* the helper builds a sink's record only for a client callback;
       the coded wire then forwards each sink event's value *)
    let record_sinks = Option.is_some on_sink in
    let w = worker ?policy ~probe ~record_sinks program in
    if record_sinks then Channel.forward_sink_values chan;
    (* the cascade hook: aborting the channel unparks both sides *)
    Probe.on_miss probe ~name:"parallel" (fun () -> Channel.abort chan);
    let h = Probe.helper probe in
    (* step of the last event of the last batch the helper fully
       processed ([-1] = none); written by the helper, read after the
       join *)
    let cutoff = ref (-1) in
    let filtered () = match lf with Some l -> Livefilter.filtered l | None -> 0 in
    let t_start = now_ns () in
    let partial () =
      let k = Channel.counts chan in
      {
        p_events = k.Probe.events;
        p_batches = k.Probe.batches;
        p_dropped_batches = k.Probe.dropped_batches;
        p_dropped_events = k.Probe.dropped_events;
        p_wall_ns = now_ns () - t_start;
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
       domain, after the join, once per sink in step order (the worker
       processes events in step order).  Its failure is the
       application's. *)
    let complete ?(secondary = []) outcome ~events ~degraded ~main_wall_ns
        ~total_wall_ns ~done_b =
      match
        Option.iter
          (fun f -> List.iter (fun (sink, taint, e) -> f sink taint e)
              (List.rev w.sinks))
          on_sink
      with
      | exception ex ->
          errored
            { e_leg = `App; e_exn = ex; e_secondary = secondary;
              e_partial = partial () }
      | () ->
          Probe.run_done probe ~events ~batches:done_b;
          Ok
            (report (Channel.counts chan)
               {
                 r_result = result w outcome ~events;
                 r_filtered = filtered ();
                 r_main_wall_ns = main_wall_ns;
                 r_total_wall_ns = total_wall_ns;
                 r_degraded = degraded;
               })
    in
    (* Degraded-mode inline completion: when a non-application leg
       fails (helper crash, spawn failure, deadline miss), re-execute
       the deterministic machine, counting every event but processing
       through the helper's own worker only those past the cutoff
       (after its last fully processed batch, whose events it
       processed exactly once), so the result is bit-identical to a
       pure inline run.  The worker keeps its instruments, so its
       milestones continue on the calling domain's ring; the machine
       gets no second set of VM counters.
       Application-leg failures are excluded: the app's own crash would
       simply recur in the replay. *)
    let conclude_err e =
      match degrade with
      | Some `Inline when e.e_leg <> `App -> (
          let cut = !cutoff in
          Probe.run_degrade probe ~cut ~leg:(leg_to_string e.e_leg);
          let total = ref 0 and replayed = ref 0 in
          let m = Machine.create ?config program ~input in
          Machine.attach m
            (Tool.make ~dispatch_cost:0
               ~on_view:(fun v ->
                 incr total;
                 if v.Event.v_step > cut then begin
                   incr replayed;
                   w.transfer v
                 end)
               "degraded-inline-dift");
          match Machine.run m with
          | exception rx -> errored { e with e_secondary = e.e_secondary @ [ rx ] }
          | outcome ->
              let wall = now_ns () - t_start in
              (* the report counts whole-program events, as inline does *)
              complete ~secondary:[ e.e_exn ] outcome ~events:!total
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
    (* The helper: drain the channel through the worker.  The cutoff
       advances at batch ends, so a degraded run resumes after the last
       fully processed batch. *)
    let f, after_batch =
      match lf with
      | None -> (w.transfer, fun ~last_step -> cutoff := last_step)
      | Some lf ->
          (* publish per event (after processing), advance the epoch
             per batch: the filter's soundness relies on exactly this
             order *)
          let sh = E.shadow w.eng in
          let live l = tainted (E.Sh.get sh l) in
          (* generation reset: republish the live taint *)
          let repopulate () =
            E.Sh.fold
              (fun loc d () -> if tainted d then Livefilter.publish_loc lf loc)
              sh ()
          in
          let transfer = w.transfer in
          ( (fun v ->
              transfer v;
              Livefilter.publish lf ~tainted:live v),
            fun ~last_step ->
              cutoff := last_step;
              Livefilter.advance ~repopulate lf ~slot:0 ~step:last_step )
    in
    let body () =
      try
        Probe.drain h (fun ~around_batch ->
            Channel.drain ~around_batch ~after_batch chan ~f)
      with ex ->
        (* unblock the application before dying, so the failure
           surfaces at the join instead of wedging *)
        Channel.abort chan;
        Probe.crash h ex;
        raise ex
    in
    match Probe.spawn h body with
    | exception ex ->
        Channel.abort chan;
        finish_err
          { e_leg = `Spawn; e_exn = ex; e_secondary = []; e_partial = partial () }
    | d -> (
        let feed =
          match lf with
          | None -> Channel.add_view chan
          | Some lf ->
              fun v ->
                if Livefilter.admit_view lf v then Channel.add_view chan v
        in
        let m = Machine.create ?config program ~input in
        Probe.app probe m;
        Machine.attach m
          (Tool.make ~dispatch_cost:0 ~on_view:feed "parallel-dift-forwarder");
        let t0 = now_ns () in
        (* What the helper died of, if anything.  Every path joins it
           exactly once: no domain leaks. *)
        let join () =
          match Probe.join h d with () -> None | exception ex -> Some ex
        in
        (* A failure on this side: join the helper, keeping what it
           died of as a secondary failure. *)
        let app_failed ex e_partial =
          finish_err
            { e_leg = `App; e_exn = ex; e_secondary = Option.to_list (join ());
              e_partial }
        in
        (* An injected failure during the trailing flush must not leak
           the domain: close the channel anyway (the raising flush
           already emptied its batch, so the retry is a quiet no-op
           flush and ring close), then re-raise. *)
        let close () =
          try Channel.close chan
          with ex ->
            (try Channel.close chan with _ -> Channel.abort chan);
            raise ex
        in
        match Probe.app_run probe (fun () -> Machine.run m) with
        | exception ex ->
            Channel.abort chan;
            (* the books as the crash left them, before the close
               flushes the open batch into the aborted ring *)
            let p = partial () in
            (try close () with _ -> ());
            app_failed ex p
        | outcome -> (
            match close () with
            | exception ex -> app_failed ex (partial ())
            | () -> (
                let main_wall_ns = now_ns () - t0 in
                match join () with
                | Some ex ->
                    finish_err
                      { e_leg = `Helper; e_exn = ex; e_secondary = [];
                        e_partial = partial () }
                | None -> (
                    let total_wall_ns = now_ns () - t0 in
                    (* a cascade can leave every leg terminating
                       cleanly: the watchdog verdict outranks the
                       ordinary one *)
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
                        complete outcome
                          ~events:((E.stats w.eng).Engine.events + filtered ())
                          ~degraded:None ~main_wall_ns ~total_wall_ns
                          ~done_b:p.p_batches))))

  let run_result ?config ?obs ?trace ?flight ?chaos ?watchdog ?degrade
      ?(queue_capacity = Channel.default_queue_capacity)
      ?(batch_size = Channel.default_batch_size) ?(wire = `Coded)
      ?(forward_filter = false) ?policy ?on_sink program ~input =
    supervise ?config
      ~probe:(Probe.make ?obs ?trace ?flight ?chaos ?watchdog ())
      ?degrade ~queue_capacity ~batch_size ~wire ~forward_filter ?policy
      ?on_sink program ~input ~report:(fun k r ->
        {
          result = r.r_result;
          queue_capacity;
          batch_size;
          wire;
          filtered_events = r.r_filtered;
          batches = k.Probe.batches;
          dropped_batches = k.Probe.dropped_batches;
          dropped_events = k.Probe.dropped_events;
          producer_stalls = k.Probe.producer_stalls;
          consumer_waits = k.Probe.consumer_waits;
          main_wall_ns = r.r_main_wall_ns;
          total_wall_ns = r.r_total_wall_ns;
          degraded = r.r_degraded;
        })

  (* The worker on the calling domain: the machine drives its engine
     directly, the client callback streams, and the result is the
     worker's, as in a degraded completion. *)
  let run_inline ?config ?obs ?trace ?flight ?policy ?on_sink program ~input =
    let probe = Probe.make ?obs ?trace ?flight () in
    let w = worker ?policy ~probe ~record_sinks:false program in
    Option.iter (E.on_sink w.eng) on_sink;
    let m = Machine.create ?config program ~input in
    Probe.app probe m;
    Machine.attach m
      (Tool.make ~dispatch_cost:0 ~on_view:w.transfer "inline-dift");
    let t0 = now_ns () in
    let outcome = Probe.app_run probe (fun () -> Machine.run m) in
    let i_wall_ns = now_ns () - t0 in
    {
      i_result = result w outcome ~events:(E.stats w.eng).Engine.events;
      i_wall_ns;
    }
end

include Make (Taint.Bool)
module Bool_engine = E

(* -- the benchmark ledger's entry point --------------------------------- *)

type sharded_report = {
  s_result : result;
  s_queue_capacity : int;
  s_batch_size : int;
  s_wire : Channel.wire;
  s_filtered_events : int;
      (** events the producer-side liveness filter dropped (0 with the
          filter off); [s_result.events] already adds them back *)
  s_helper : Probe.counts;
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
    ?on_sink program ~input ~report:(fun k r ->
      {
        s_result = r.r_result;
        s_queue_capacity = queue_capacity;
        s_batch_size = batch_size;
        s_wire = wire;
        s_filtered_events = r.r_filtered;
        s_helper = k;
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
