(* diftc — run the bundled workloads under the DIFT tools.

   Examples:
     diftc list
     diftc run crc --size 50
     diftc trace matmul --size 8 --capacity 65536
     diftc taint qsort --size 20
     diftc slice sieve --size 100
     diftc attack stack-smash
     diftc lineage moving-avg --size 24 --robdd *)

open Cmdliner

open Dift_vm
open Dift_core
open Dift_workloads

let find_workload name =
  match List.find_opt (fun w -> w.Workload.name = name) Spec_like.all with
  | Some w -> Ok w
  | None ->
      Error
        (Fmt.str "unknown workload %s (available: %s)" name
           (String.concat ", "
              (List.map (fun w -> w.Workload.name) Spec_like.all)))

let size_arg =
  Arg.(value & opt int 20 & info [ "size" ] ~doc:"Workload size parameter.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Input/scheduler seed.")

let name_arg kind =
  Arg.(required & pos 0 (some string) None & info [] ~docv:kind)

(* [--stats] / [--stats=FILE]: attach the observability registry to
   the run and dump a JSON snapshot afterwards ("-" = stdout). *)
let stats_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Instrument the run through the metrics registry and write a \
           JSON snapshot to $(docv) (\"-\", the default, means stdout).")

let emit_stats dest reg =
  match dest with
  | None -> ()
  | Some file -> Dift_obs.Registry.(write_json file (snapshot reg))

(* [--chrome-trace] / [--chrome-trace=FILE]: record the run on an
   execution timeline and export it in Chrome trace-event JSON
   (loadable in Perfetto / chrome://tracing). *)
let chrome_trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "trace.json") (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Record an execution timeline and write it as Chrome \
           trace-event JSON to $(docv) (default \"trace.json\"; \"-\" \
           means stdout).  Open the file in Perfetto or \
           chrome://tracing.")

let trace_capacity_arg =
  Arg.(
    value & opt int 65_536
    & info [ "trace-capacity" ] ~docv:"EVENTS"
        ~doc:
          "Per-domain timeline buffer capacity, in events (with \
           --chrome-trace).  Events beyond the cap are dropped and \
           counted, never silently truncated.")

(* A tracer when [--chrome-trace] was given; its drop/buffer accounting
   joins the [--stats] registry when both are on. *)
let make_tracer chrome capacity obs =
  Option.map
    (fun _ ->
      let tr = Dift_obs.Trace.create ~capacity () in
      Option.iter (Dift_obs.Trace.register_obs tr) obs;
      tr)
    chrome

let emit_trace chrome tr =
  match chrome with
  | None -> ()
  | Some file ->
      Dift_obs.Trace.write tr file;
      if file <> "-" then
        Fmt.epr "chrome trace: %d events -> %s (%d dropped)@."
          (Dift_obs.Trace.buffered tr)
          file
          (Dift_obs.Trace.dropped tr)

(* -- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Fmt.pr "kernels:@.";
    List.iter (fun w -> Fmt.pr "  %a@." Workload.pp w) Spec_like.all;
    Fmt.pr "attack cases:@.";
    List.iter
      (fun (c : Vulnerable.case) ->
        Fmt.pr "  %s: %s@." c.Vulnerable.name c.Vulnerable.description)
      Vulnerable.all;
    Fmt.pr "lineage pipelines:@.";
    List.iter
      (fun (p : Scientific.pipeline) ->
        Fmt.pr "  %s: %s@." p.Scientific.name p.Scientific.description)
      Scientific.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List bundled workloads.")
    Term.(const run $ const ())

(* -- run ------------------------------------------------------------------- *)

let run_cmd =
  let run name size seed stats chrome trace_capacity =
    match find_workload name with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok w ->
        let input = w.Workload.input ~size ~seed in
        let config = { Machine.default_config with seed } in
        let m = Machine.create ~config w.Workload.program ~input in
        let obs = Option.map (fun _ -> Dift_obs.Registry.create ()) stats in
        Option.iter (fun reg -> Obs_tool.attach reg m) obs;
        let tracer = make_tracer chrome trace_capacity obs in
        Option.iter (fun tr -> Obs_tool.attach_trace tr m) tracer;
        let outcome =
          match tracer with
          | Some tr ->
              Dift_obs.Trace.span tr ~cat:"vm" "run" (fun () ->
                  Machine.run m)
          | None -> Machine.run m
        in
        Fmt.pr "outcome: %a@." Event.pp_outcome outcome;
        Fmt.pr "output:  %a@."
          Fmt.(list ~sep:sp int)
          (Machine.output_values m);
        Fmt.pr "steps:   %d, cycles: %d@." (Machine.steps m)
          (Machine.cycles m);
        Option.iter (fun reg -> emit_stats stats reg) obs;
        Option.iter (fun tr -> emit_trace chrome tr) tracer;
        0
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a kernel natively.")
    Term.(
      const run $ name_arg "KERNEL" $ size_arg $ seed_arg $ stats_arg
      $ chrome_trace_arg $ trace_capacity_arg)

(* -- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let capacity_arg =
    Arg.(
      value
      & opt int (16 * 1024 * 1024)
      & info [ "capacity" ] ~doc:"Trace buffer capacity in bytes.")
  in
  let run name size seed capacity stats chrome trace_capacity =
    match find_workload name with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok w ->
        let input = w.Workload.input ~size ~seed in
        let m = Machine.create w.Workload.program ~input in
        let opts = { Ontrac.default_opts with capacity } in
        let tracer = Ontrac.create ~opts w.Workload.program in
        Ontrac.attach tracer m;
        let obs = Option.map (fun _ -> Dift_obs.Registry.create ()) stats in
        Option.iter (fun reg -> Obs_tool.attach reg m) obs;
        let timeline = make_tracer chrome trace_capacity obs in
        Option.iter
          (fun tr ->
            Ontrac.set_trace tracer tr;
            Obs_tool.attach_trace tr m)
          timeline;
        (match timeline with
        | Some tr ->
            Dift_obs.Trace.span tr ~cat:"vm" "ontrac.run" (fun () ->
                ignore (Machine.run m))
        | None -> ignore (Machine.run m));
        Fmt.pr "%a@." Ontrac.pp_stats (Ontrac.stats tracer);
        Fmt.pr "%a@." Trace_buffer.pp (Ontrac.buffer tracer);
        Fmt.pr "bytes/instr: %.3f@." (Ontrac.bytes_per_instr tracer);
        Fmt.pr "window: %d instructions@." (Ontrac.window_length tracer);
        Option.iter
          (fun reg ->
            Ontrac.register_obs tracer reg;
            emit_stats stats reg)
          obs;
        Option.iter (fun tr -> emit_trace chrome tr) timeline;
        0
  in
  Cmd.v (Cmd.info "trace" ~doc:"Run a kernel under ONTRAC.")
    Term.(
      const run $ name_arg "KERNEL" $ size_arg $ seed_arg $ capacity_arg
      $ stats_arg $ chrome_trace_arg $ trace_capacity_arg)

(* -- taint ------------------------------------------------------------------- *)

let taint_cmd =
  let parallel_arg =
    Arg.(
      value & flag
      & info [ "parallel" ]
          ~doc:
            "Track on a helper OCaml domain connected by the bounded \
             forwarding channel (the real two-domain runtime) instead \
             of inline in the interpreter's domain.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Dift_parallel.Channel.default_queue_capacity
      & info [ "queue-capacity" ]
          ~doc:"Forwarding-ring capacity, in batches (with --parallel).")
  in
  let batch_arg =
    Arg.(
      value
      & opt int Dift_parallel.Channel.default_batch_size
      & info [ "batch-size" ]
          ~doc:"Events per forwarded batch (with --parallel).")
  in
  let wire_arg =
    let wire = Arg.enum [ ("coded", `Coded); ("boxed", `Boxed) ] in
    Arg.(
      value
      & opt wire `Coded
      & info [ "wire" ] ~docv:"WIRE"
          ~doc:
            "Forwarding wire format (with --parallel): $(b,coded) \
             (flat struct-of-arrays batches over interned sites, the \
             default) or $(b,boxed) (one allocated event record per \
             event, the legacy plane).")
  in
  let forward_filter_arg =
    Arg.(
      value & flag
      & info [ "forward-filter" ]
          ~doc:
            "Enable the producer-side taint-liveness filter (with \
             --parallel): events whose locations cannot intersect live \
             taint and introduce none are dropped before encoding.  \
             Results are bit-identical; only forwarding traffic \
             shrinks.")
  in
  (* The kernel can be named either positionally or with [--workload]
     (convenient in scripted invocations where the options come
     first). *)
  let pos_name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"KERNEL")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"KERNEL"
          ~doc:"Kernel to run (alternative to the positional argument).")
  in
  let fault_plan_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-plan" ] ~docv:"PLAN"
          ~doc:
            "Inject a deterministic fault plan into the parallel runtime \
             (with --parallel).  Grammar: [WHERE/]OP@N=FAULT, \
             ';'-separated, where OP is push, pop or spawn, FAULT is \
             $(b,stall:)NS or $(b,crash), WHERE is a prefix of \
             the ring's namespace, parallel, and a spawn rule is \
             $(b,spawn@1) (a run spawns one helper) — e.g. \
             $(b,push@3=crash;parallel/pop@2=stall:2000000).  A crash \
             fails the run on the side it hits.  The run exits 0 \
             when it terminates cleanly with only injected failures.")
  in
  let fault_seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-seed" ] ~docv:"SEED"
          ~doc:
            "Derive a reproducible pseudo-random fault plan from SEED \
             (with --parallel; the plan is printed to stderr, so any \
             failing seed is a one-flag repro).  Mutually exclusive \
             with --fault-plan.")
  in
  let flight_record_arg =
    Arg.(
      value
      & opt ~vopt:(Some 512) (some int) None
      & info [ "flight-record" ] ~docv:"CAP"
          ~doc:
            "Turn on the always-on flight recorder: each domain keeps \
             its last $(docv) structured events (default 512) in a \
             bounded ring — channel ops, chaos injections, engine \
             milestones.  Recording never blocks; \
             overflow overwrites the oldest events and is counted.  \
             Implied by --crash-dump.")
  in
  let crash_dump_arg =
    Arg.(
      value
      & opt ~vopt:(Some "crash-bundle.json") (some string) None
      & info [ "crash-dump" ] ~docv:"FILE"
          ~doc:
            "When the run fails, write a post-mortem crash bundle to \
             $(docv) (default \"crash-bundle.json\"): the structured \
             error, runtime geometry, fault plan, final metrics, \
             per-domain flight-recorder tails and trace accounting, in \
             one atomically-written JSON document ($(b,diftc inspect) \
             renders it).  Requires --parallel; implies \
             --flight-record.")
  in
  let heartbeat_arg =
    Arg.(
      value
      & opt ~vopt:(Some "heartbeat.jsonl") (some string) None
      & info [ "heartbeat" ] ~docv:"FILE"
          ~doc:
            "Sample the metrics registry periodically into $(docv) \
             (default \"heartbeat.jsonl\"), one compact JSON object per \
             line — a liveness record that survives a crash.")
  in
  let heartbeat_interval_arg =
    Arg.(
      value & opt int 200
      & info [ "heartbeat-interval-ms" ] ~docv:"MS"
          ~doc:"Milliseconds between heartbeat samples (with --heartbeat).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "deadline-ms" ] ~docv:"SPEC"
          ~doc:
            "Supervise the parallel run with watchdog deadlines (with \
             --parallel).  Grammar: DEFAULT_MS[;SEAM_PREFIX=MS...], e.g. \
             $(b,500) or $(b,500;parallel.pop=200;join.helper=2000); \
             SEAM_PREFIX must be a prefix of parallel.push, \
             parallel.pop, spawn.helper or join.helper.  A seam that \
             stays blocked past its deadline while the whole run is \
             frozen triggers the timeout-and-cascade shutdown and a \
             structured deadline error (rendered by $(b,diftc inspect)).")
  in
  let degrade_arg =
    Arg.(
      value
      & opt (some (enum [ ("inline", `Inline) ])) None
      & info [ "degrade" ] ~docv:"MODE"
          ~doc:
            "Degraded-mode completion (with --parallel): when the helper \
             dies or misses its deadline, finish the tracking \
             with the $(b,inline) sequential engine on the application \
             domain and report a complete (flagged) result instead of \
             an error.")
  in
  let on_sink sink taint (e : Event.exec) =
    if taint && sink = Engine.Sink_output then
      Fmt.pr "tainted output %d at step %d@." e.Event.value e.Event.step
  in
  let run pos_name workload size seed parallel queue_capacity
      batch_size wire forward_filter fault_plan fault_seed flight_record
      crash_dump heartbeat heartbeat_interval deadline degrade stats chrome
      trace_capacity =
    let named =
      match (pos_name, workload) with
      | Some p, Some w when p <> w ->
          Error (Fmt.str "both KERNEL %s and --workload %s given" p w)
      | Some n, _ | None, Some n -> Ok n
      | None, None -> Error "no kernel named (positional or --workload)"
    in
    (* each spec is parsed once; a bad one is reported after the
       flag-combination checks *)
    let parse of_string = function
      | None -> Ok None
      | Some spec -> Result.map Option.some (of_string spec)
    in
    match
      ( Result.bind named find_workload,
        parse Dift_parallel.Watchdog.deadlines_of_string deadline,
        parse Dift_parallel.Chaos.plan_of_string fault_plan )
    with
    | Error e, _, _ ->
        Fmt.epr "%s@." e;
        1
    | Ok _, _, _ when parallel && (queue_capacity < 1 || batch_size < 1) ->
        Fmt.epr "--queue-capacity and --batch-size must be at least 1@.";
        1
    | Ok _, _, _ when forward_filter && not parallel ->
        Fmt.epr "--forward-filter requires --parallel@.";
        1
    | Ok _, _, _
      when (fault_plan <> None || fault_seed <> None) && not parallel ->
        Fmt.epr "--fault-plan/--fault-seed require --parallel@.";
        1
    | Ok _, _, _ when crash_dump <> None && not parallel ->
        Fmt.epr "--crash-dump requires --parallel@.";
        1
    | Ok _, _, _
      when match flight_record with Some c -> c < 1 | None -> false ->
        Fmt.epr "--flight-record capacity must be at least 1@.";
        1
    | Ok _, _, _ when heartbeat <> None && heartbeat_interval < 1 ->
        Fmt.epr "--heartbeat-interval-ms must be at least 1@.";
        1
    | Ok _, _, _ when fault_plan <> None && fault_seed <> None ->
        Fmt.epr "--fault-plan and --fault-seed are mutually exclusive@.";
        1
    | Ok _, _, _ when (deadline <> None || degrade <> None) && not parallel ->
        Fmt.epr "--deadline-ms/--degrade require --parallel@.";
        1
    | Ok _, Error e, _ ->
        Fmt.epr "bad --deadline-ms: %s@." e;
        1
    | Ok _, _, Error e ->
        Fmt.epr "bad --fault-plan: %s@." e;
        1
    | Ok w, Ok deadlines, Ok plan ->
        let input = w.Workload.input ~size ~seed in
        (* The registry backs [--stats] directly, and is also what the
           heartbeat samples and the crash bundle snapshots — any of
           the three turns it on. *)
        let obs =
          if stats <> None || heartbeat <> None || crash_dump <> None then
            Some (Dift_obs.Registry.create ())
          else None
        in
        let tracer = make_tracer chrome trace_capacity obs in
        (* --crash-dump implies the flight recorder: a bundle without
           per-domain tails would be an error report, not a flight. *)
        let flight =
          match (flight_record, crash_dump) with
          | Some cap, _ -> Some (Dift_obs.Flight.create ~capacity:cap ())
          | None, Some _ -> Some (Dift_obs.Flight.create ())
          | None, None -> None
        in
        (match (flight, obs) with
        | Some fl, Some reg -> Dift_obs.Flight.register_obs fl reg
        | _ -> ());
        (* One sampler domain serves every periodic job of the run:
           heartbeat beats and watchdog deadline checks share it.  It
           exists whenever either job does. *)
        let sampler =
          if heartbeat <> None || deadline <> None then
            Some (Dift_obs.Sampler.create ())
          else None
        in
        let hb =
          Option.map
            (fun file ->
              Dift_obs.Heartbeat.start ~interval_ms:heartbeat_interval
                ~sampler:(Option.get sampler) (Option.get obs) ~file)
            heartbeat
        in
        let wd =
          Option.map
            (fun d ->
              Dift_parallel.Watchdog.create ?obs ?flight
                ~sampler:(Option.get sampler) d)
            deadlines
        in
        let plan =
          match plan with
          | Some _ -> plan
          | None -> Option.map Dift_parallel.Chaos.plan_of_seed fault_seed
        in
        (match plan with
        | Some pl ->
            Fmt.epr "fault plan: %a@." Dift_parallel.Chaos.pp_plan pl
        | None -> ());
        let chaos = Option.map Dift_parallel.Chaos.create plan in
        (* A fault-injected run is green when it terminated cleanly and
           the primary failure is the injected one; anything else is a
           real failure. *)
        let expected_failure ex =
          match ex with
          | Dift_parallel.Chaos.Injected _ -> chaos <> None
          (* a deadline miss under active supervision is the watchdog
             doing its job, not a runtime defect *)
          | Dift_parallel.Watchdog.Deadline_exceeded _ -> wd <> None
          | _ -> false
        in
        let rc = ref 0 in
        let failed : Dift_parallel.Parallel.error option ref = ref None in
        let print_result (r : Dift_parallel.Parallel.result) =
          Fmt.pr "events: %d, sources: %d, tainted sinks: %d@." r.events
            r.sources r.sink_hits;
          Fmt.pr "shadow: %d locations, %d words@." r.tainted_locations
            r.shadow_words
        in
        (if not parallel then
           print_result
             (Dift_parallel.Parallel.run_inline ?obs ?trace:tracer ?flight
                ~on_sink w.Workload.program ~input)
               .i_result
         else
           let open Dift_parallel.Parallel in
           match
             run_result ?obs ?trace:tracer ?flight ?chaos ?watchdog:wd
               ?degrade ~wire ~forward_filter ~queue_capacity ~batch_size
               ~on_sink w.Workload.program ~input
           with
           | Error e ->
               Fmt.epr "parallel run failed: %a@." pp_error e;
               failed := Some e;
               rc := if expected_failure e.e_exn then 0 else 1
           | Ok r ->
               Option.iter (Fmt.pr "%a@." pp_degraded) r.degraded;
               print_result r.result;
               Fmt.pr
                 "channel: %d batches (ring %d x %d), %d producer stalls, %d \
                  helper waits@."
                 r.batches r.queue_capacity r.batch_size r.producer_stalls
                 r.consumer_waits;
               if r.dropped_batches > 0 then
                 Fmt.pr "dropped: %d batches / %d events@." r.dropped_batches
                   r.dropped_events;
               Fmt.pr "wall: main %.2f ms, total %.2f ms@."
                 (float_of_int r.main_wall_ns /. 1e6)
                 (float_of_int r.total_wall_ns /. 1e6));
        (match chaos with
        | Some c ->
            Fmt.epr "faults fired: %d@." (Dift_parallel.Chaos.fired c)
        | None -> ());
        (* Stop the periodic jobs before bundling — the heartbeat file
           is closed with its final beat reflecting the post-mortem
           state, and no watchdog check is in flight — then park the
           shared sampler domain. *)
        (match (hb, heartbeat) with
        | Some h, Some file ->
            let n = Dift_obs.Heartbeat.stop h in
            Fmt.epr "heartbeat: %d beats -> %s@." n file
        | _ -> ());
        Option.iter Dift_parallel.Watchdog.stop wd;
        Option.iter Dift_obs.Sampler.stop sampler;
        (match (!failed, crash_dump) with
        | Some e, Some file ->
            let geometry =
              {
                Dift_parallel.Postmortem.g_runtime = "parallel";
                g_queue_capacity = queue_capacity;
                g_batch_size = batch_size;
                g_wire = wire;
                g_forward_filter = forward_filter;
                g_deadline =
                  Option.map
                    (fun w ->
                      Dift_parallel.Watchdog.(
                        deadlines_to_string (deadline_spec w)))
                    wd;
                g_degrade = degrade <> None;
              }
            in
            let extra =
              [
                ("workload", Dift_obs.Json.String w.Workload.name);
                ("size", Dift_obs.Json.Int size);
                ("seed", Dift_obs.Json.Int seed);
              ]
            in
            let bundle =
              Dift_parallel.Postmortem.bundle ?obs ?flight ?chaos
                ?trace:tracer
                ?first_heartbeat:(Option.map Dift_obs.Heartbeat.first hb)
                ~extra ~error:e geometry
            in
            Dift_parallel.Postmortem.write ~file bundle;
            Fmt.epr "crash bundle: %s@." file
        | _ -> ());
        Option.iter (fun reg -> emit_stats stats reg) obs;
        Option.iter (fun tr -> emit_trace chrome tr) tracer;
        !rc
  in
  Cmd.v
    (Cmd.info "taint"
       ~doc:
         "Run a kernel under boolean taint DIFT, inline or on a helper \
          domain (--parallel), optionally under an injected fault plan \
          (--fault-plan/--fault-seed).")
    Term.(
      const run $ pos_name_arg $ workload_arg $ size_arg $ seed_arg
      $ parallel_arg $ queue_arg $ batch_arg $ wire_arg
      $ forward_filter_arg $ fault_plan_arg $ fault_seed_arg
      $ flight_record_arg $ crash_dump_arg $ heartbeat_arg
      $ heartbeat_interval_arg $ deadline_arg $ degrade_arg $ stats_arg
      $ chrome_trace_arg $ trace_capacity_arg)

(* -- inspect ------------------------------------------------------------------ *)

(* Pretty-print (and thereby validate) a crash bundle written by
   [taint --crash-dump].  Exits 1 on anything malformed — CI uses it
   as the bundle checker after the fault sweep. *)
let inspect_cmd =
  let module J = Dift_obs.Json in
  let bundle_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE" ~doc:"Crash-bundle JSON file to render.")
  in
  let last_arg =
    Arg.(
      value & opt int 8
      & info [ "last" ] ~docv:"N"
          ~doc:"Flight events shown per domain (the most recent N).")
  in
  let str j name =
    match J.member name j with Some (J.String s) -> Some s | _ -> None
  in
  let int_f j name =
    match J.member name j with Some (J.Int n) -> Some n | _ -> None
  in
  let num name j = Option.value ~default:0 (int_f j name) in
  let print_error err =
    Fmt.pr "error:    leg %s@."
      (Option.value ~default:"?" (str err "leg"));
    Fmt.pr "          %s@." (Option.value ~default:"?" (str err "exn"));
    (match J.member "secondary" err with
    | Some (J.List (_ :: _ as xs)) ->
        Fmt.pr "          then, shutting down:@.";
        List.iter
          (function
            | J.String s -> Fmt.pr "            %s@." s | _ -> ())
          xs
    | _ -> ());
    (match J.member "deadline" err with
    | Some d ->
        Fmt.pr
          "deadline: seam %s blocked %.1f ms (deadline %.1f ms, epoch \
           %d)@."
          (Option.value ~default:"?" (str d "seam"))
          (float_of_int (num "blocked_ns" d) /. 1e6)
          (float_of_int (num "deadline_ns" d) /. 1e6)
          (num "epoch" d);
        (match J.member "armed" d with
        | Some (J.List (_ :: _ as xs)) ->
            Fmt.pr "          armed at detection:@.";
            List.iter
              (fun a ->
                Fmt.pr "            %s (epoch %d)@."
                  (Option.value ~default:"?" (str a "seam"))
                  (num "epoch" a))
              xs
        | _ -> ())
    | None -> ());
    match J.member "partial" err with
    | Some p ->
        Fmt.pr
          "partial:  %d events fed, %d batches delivered, %d batches / \
           %d events dropped, wall %.2f ms@."
          (num "events" p) (num "batches" p)
          (num "dropped_batches" p)
          (num "dropped_events" p)
          (float_of_int (num "wall_ns" p) /. 1e6)
    | None -> ()
  in
  let print_geometry g =
    Fmt.pr "geometry: %s runtime, ring %d x %d%s%s%s%s@."
      (Option.value ~default:"?" (str g "runtime"))
      (num "queue_capacity" g) (num "batch_size" g)
      (match str g "wire" with
      | Some w -> Fmt.str ", %s wire" w
      | None -> "")
      (match J.member "forward_filter" g with
      | Some (J.Bool true) -> ", forward filter"
      | _ -> "")
      (match str g "deadline_ms" with
      | Some d -> Fmt.str ", deadline %s ms" d
      | None -> "")
      (match J.member "degrade" g with
      | Some (J.Bool true) -> ", degrade inline"
      | _ -> "")
  in
  let print_fault_plan fp =
    Fmt.pr "faults:   plan %s (%d fired)@."
      (Option.value ~default:"?" (str fp "plan"))
      (num "fired" fp)
  in
  let print_flight last fl =
    Fmt.pr "flight:   %d events recorded, %d overwritten (ring of %d \
            per domain)@."
      (num "recorded" fl) (num "overwritten" fl) (num "capacity" fl);
    match J.member "domains" fl with
    | Some (J.List doms) ->
        List.iter
          (fun d ->
            let evs =
              match J.member "events" d with
              | Some (J.List evs) -> evs
              | _ -> []
            in
            let n = List.length evs in
            Fmt.pr "  [%s] domain %d: %d recorded, last %d:@."
              (Option.value ~default:"?" (str d "name"))
              (num "tid" d) (num "recorded" d) (min last n);
            let rec drop k = function
              | l when k <= 0 -> l
              | [] -> []
              | _ :: tl -> drop (k - 1) tl
            in
            List.iter
              (fun e ->
                Fmt.pr "    +%.3fms %s/%s a=%d b=%d%s@."
                  (float_of_int (num "ts_ns" e) /. 1e6)
                  (Option.value ~default:"?" (str e "cat"))
                  (Option.value ~default:"?" (str e "name"))
                  (num "a" e) (num "b" e)
                  (match str e "detail" with
                  | Some d -> " " ^ d
                  | None -> ""))
              (drop (n - last) evs))
          doms
    | _ -> ()
  in
  (* Counter/gauge movement between the run's first heartbeat and the
     final post-mortem snapshot: how far the run got after beat 0. *)
  let print_deltas ~first ~final =
    let metric_value m =
      match str m "kind" with
      | Some ("counter" | "gauge") -> int_f m "value"
      | _ -> None
    in
    let deltas =
      match final with
      | J.Obj groups ->
          List.concat_map
            (fun (g, members) ->
              match members with
              | J.Obj ms ->
                  List.filter_map
                    (fun (name, m) ->
                      match metric_value m with
                      | None -> None
                      | Some v ->
                          let v0 =
                            match
                              Option.bind (J.member g first)
                                (J.member name)
                            with
                            | Some m0 -> Option.value ~default:0 (metric_value m0)
                            | None -> 0
                          in
                          if v <> v0 then Some (g ^ "." ^ name, v0, v)
                          else None)
                    ms
              | _ -> [])
            groups
      | _ -> []
    in
    if deltas <> [] then begin
      Fmt.pr "metric movement since first heartbeat:@.";
      List.iter
        (fun (name, v0, v) ->
          Fmt.pr "  %-40s %d -> %d (%+d)@." name v0 v (v - v0))
        deltas
    end
  in
  let run file last =
    match
      try Ok (In_channel.with_open_bin file In_channel.input_all)
      with Sys_error e -> Error e
    with
    | Error e ->
        Fmt.epr "cannot read %s: %s@." file e;
        1
    | Ok text -> (
        match J.of_string text with
        | Error e ->
            Fmt.epr "%s: not valid JSON: %s@." file e;
            1
        | Ok j -> (
            match
              (str j "schema", J.member "error" j, J.member "geometry" j)
            with
            | Some s, _, _ when s <> Dift_parallel.Postmortem.schema ->
                Fmt.epr "%s: unknown schema %s (expected %s)@." file s
                  Dift_parallel.Postmortem.schema;
                1
            | None, _, _ ->
                Fmt.epr "%s: missing schema tag — not a crash bundle@." file;
                1
            | _, None, _ | _, _, None ->
                Fmt.epr "%s: missing error/geometry — not a crash bundle@."
                  file;
                1
            | Some _, Some err, Some geo when str err "leg" = None ->
                ignore geo;
                Fmt.epr "%s: error object has no failing leg@." file;
                1
            | Some schema, Some err, Some geo ->
                Fmt.pr "bundle:   %s (%s)@." file schema;
                (match (str j "workload", int_f j "size", int_f j "seed") with
                | Some w, Some sz, Some sd ->
                    Fmt.pr "run:      %s --size %d --seed %d@." w sz sd
                | _ -> ());
                print_error err;
                print_geometry geo;
                Option.iter print_fault_plan (J.member "fault_plan" j);
                Option.iter (print_flight last) (J.member "flight" j);
                (match (J.member "first_heartbeat" j, J.member "metrics" j)
                 with
                | Some first, Some final -> print_deltas ~first ~final
                | _ -> ());
                (match J.member "trace" j with
                | Some tr ->
                    Fmt.pr
                      "trace:    %d events buffered, %d dropped (capacity \
                       %d)@."
                      (num "buffered" tr) (num "dropped" tr)
                      (num "capacity" tr)
                | None -> ());
                0))
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Pretty-print a crash bundle written by $(b,taint --crash-dump): \
          the error chain, runtime geometry, fault plan, each domain's \
          last flight-recorder events and the metric movement since the \
          run's first heartbeat.  Exits 1 if the bundle is malformed.")
    Term.(const run $ bundle_arg $ last_arg)

(* -- stats ------------------------------------------------------------------- *)

let stats_cmd =
  let workload_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload" ] ~docv:"KERNEL"
          ~doc:"Kernel to run fully instrumented.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Dift_parallel.Channel.default_queue_capacity
      & info [ "queue-capacity" ] ~doc:"Forwarding-ring capacity, in batches.")
  in
  let batch_arg =
    Arg.(
      value
      & opt int Dift_parallel.Channel.default_batch_size
      & info [ "batch-size" ] ~doc:"Events per forwarded batch.")
  in
  let out_arg =
    Arg.(
      value & opt string "-"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the snapshot (\"-\" means stdout).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("json", `Json); ("prometheus", `Prometheus) ]) `Json
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Snapshot encoding: $(b,json) (the structured snapshot) or \
             $(b,prometheus) (text exposition format, one metric per \
             line, ready for a scrape endpoint).")
  in
  let run name size seed queue_capacity batch_size out format =
    match find_workload name with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok _ when queue_capacity < 1 || batch_size < 1 ->
        Fmt.epr "--queue-capacity and --batch-size must be at least 1@.";
        1
    | Ok w ->
        let input = w.Workload.input ~size ~seed in
        let config = { Machine.default_config with seed } in
        let reg = Dift_obs.Registry.create () in
        (* Phase 1: the two-domain runtime fills [vm.*],
           [core.engine.*], [core.shadow.*] and [parallel.*]. *)
        match
          Dift_parallel.Parallel.run_result ~config ~obs:reg ~queue_capacity
            ~batch_size w.Workload.program ~input
        with
        | Error e ->
            Fmt.epr "parallel run failed: %a@." Dift_parallel.Parallel.pp_error
              e;
            1
        | Ok _ ->
            (* Phase 2: an ONTRAC pass over the same deterministic
               execution fills [core.ontrac.*] and [core.trace_buffer.*]
               (no [Obs_tool] here, so the vm counters are not
               doubled). *)
            let m = Machine.create ~config w.Workload.program ~input in
            let tracer = Ontrac.create w.Workload.program in
            Ontrac.attach tracer m;
            ignore (Machine.run m);
            Ontrac.register_obs tracer reg;
            (match format with
            | `Json -> Dift_obs.Registry.(write_json out (snapshot reg))
            | `Prometheus ->
                Dift_obs.Registry.(write_prometheus out (snapshot reg)));
            0
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a kernel under the full observability stack (two-domain \
          taint run plus an ONTRAC pass) and print the metrics snapshot \
          as JSON or Prometheus text.")
    Term.(
      const run $ workload_arg $ size_arg $ seed_arg $ queue_arg $ batch_arg
      $ out_arg $ format_arg)

(* -- slice ------------------------------------------------------------------- *)

let slice_cmd =
  let run name size seed =
    match find_workload name with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok w ->
        let input = w.Workload.input ~size ~seed in
        let m = Machine.create w.Workload.program ~input in
        let tracer = Ontrac.create w.Workload.program in
        Ontrac.attach tracer m;
        ignore (Machine.run m);
        let g, ws = Ontrac.final_graph tracer in
        (match Slicing.last_output g with
        | None ->
            Fmt.pr "no output to slice from@.";
            1
        | Some out ->
            let s = Slicing.backward ~window_start:ws g ~criterion:[ out ] in
            Fmt.pr "%a@." Slicing.pp s;
            Fmt.pr "sites:@.";
            List.iter
              (fun (f, pc) -> Fmt.pr "  %s:%d@." f pc)
              (Slicing.sites s);
            0)
  in
  Cmd.v
    (Cmd.info "slice" ~doc:"Backward dynamic slice from the last output.")
    Term.(const run $ name_arg "KERNEL" $ size_arg $ seed_arg)

(* -- attack ------------------------------------------------------------------- *)

let attack_cmd =
  let run name =
    match
      List.find_opt
        (fun (c : Vulnerable.case) -> c.Vulnerable.name = name)
        Vulnerable.all
    with
    | None ->
        Fmt.epr "unknown attack case %s@." name;
        1
    | Some c ->
        let row = Dift_attack.Detector.evaluate c in
        Fmt.pr "%a@." Dift_attack.Detector.pp_eval row;
        0
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Evaluate the detector on a vulnerable case.")
    Term.(const run $ name_arg "CASE")

(* -- lineage ----------------------------------------------------------------- *)

let lineage_cmd =
  let robdd_arg =
    Arg.(value & flag & info [ "robdd" ] ~doc:"Use the roBDD representation.")
  in
  let run name size seed robdd =
    match
      List.find_opt
        (fun (p : Scientific.pipeline) -> p.Scientific.name = name)
        Scientific.all
    with
    | None ->
        Fmt.epr "unknown pipeline %s@." name;
        1
    | Some pl ->
        let r =
          if robdd then Dift_lineage.Tracer.run_robdd pl ~size ~seed
          else Dift_lineage.Tracer.run_naive pl ~size ~seed
        in
        List.iter
          (fun (v, lineage) ->
            Fmt.pr "output %d <- inputs {%a}@." v
              Fmt.(list ~sep:comma int)
              lineage)
          r.Dift_lineage.Tracer.outputs;
        Fmt.pr "slowdown: %.1fx, memory overhead: %.0f%%@."
          (Dift_lineage.Tracer.slowdown r)
          (100. *. Dift_lineage.Tracer.memory_overhead r);
        0
  in
  Cmd.v (Cmd.info "lineage" ~doc:"Trace lineage through a pipeline.")
    Term.(const run $ name_arg "PIPELINE" $ size_arg $ seed_arg $ robdd_arg)

(* -- profile ------------------------------------------------------------------ *)

let profile_cmd =
  let run name size seed =
    match find_workload name with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok w ->
        let input = w.Workload.input ~size ~seed in
        let m = Machine.create w.Workload.program ~input in
        let prof = Adaptive.create w.Workload.program in
        Adaptive.attach prof m;
        ignore (Machine.run m);
        let suggestions = Adaptive.suggestions prof in
        Fmt.pr "%d events profiled, %d suggestion(s):@."
          (Adaptive.events prof)
          (List.length suggestions);
        List.iter
          (fun sg -> Fmt.pr "  %a@." Adaptive.pp_suggestion sg)
          suggestions;
        0
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a kernel for adaptive-optimization opportunities.")
    Term.(const run $ name_arg "KERNEL" $ size_arg $ seed_arg)

(* -- reduce ------------------------------------------------------------------- *)

let reduce_cmd =
  let requests_arg =
    Arg.(value & opt int 120 & info [ "requests" ] ~doc:"Request count.")
  in
  let run requests seed =
    let p = Dift_workloads.Server_sim.program () in
    let batch =
      Dift_workloads.Server_sim.generate ~requests ~seed ~faulty:true ()
    in
    let config = { Machine.default_config with seed } in
    let report =
      Dift_replay.Rerun.run ~config
        ~checkpoint_every:(max 2_000 (requests * 15))
        p ~input:batch.Dift_workloads.Server_sim.input
    in
    Fmt.pr "%a@." Dift_replay.Rerun.pp_report report;
    0
  in
  Cmd.v
    (Cmd.info "reduce"
       ~doc:"Run the execution-reduction pipeline on the failing server.")
    Term.(const run $ requests_arg $ seed_arg)

(* -- avoid -------------------------------------------------------------------- *)

let avoid_cmd =
  let run name =
    let open Dift_avoidance in
    let report =
      match name with
      | "heap-overflow" ->
          let c = Dift_workloads.Vulnerable.heap_overflow in
          let config = { Machine.default_config with check_bounds = true } in
          Some
            (Framework.avoid ~config c.Dift_workloads.Vulnerable.program
               ~input:c.Dift_workloads.Vulnerable.attack_input)
      | "malformed-request" ->
          let p = Dift_workloads.Server_sim.program () in
          let batch =
            Dift_workloads.Server_sim.generate ~requests:60 ~seed:11
              ~faulty:true ()
          in
          Some
            (Framework.avoid p
               ~input:batch.Dift_workloads.Server_sim.input
               ~request_input_index:(fun r -> 1 + (3 * r)))
      | _ -> None
    in
    match report with
    | None ->
        Fmt.epr
          "unknown scenario %s (try heap-overflow, malformed-request)@."
          name;
        1
    | Some r ->
        (match r.Framework.original_fault with
        | Some f -> Fmt.pr "fault: %a@." Event.pp_fault f
        | None -> Fmt.pr "no fault@.");
        List.iter
          (fun (a : Framework.attempt) ->
            Fmt.pr "tried: %s -> %s@."
              (Env_patch.to_string a.Framework.patch)
              (if a.Framework.avoided then "avoided" else "still fails"))
          r.Framework.attempts;
        (match r.Framework.patch_file with
        | Some line -> Fmt.pr "patch file: %s@." line
        | None -> ());
        Fmt.pr "future runs pass: %b@." r.Framework.rerun_ok;
        0
  in
  Cmd.v
    (Cmd.info "avoid"
       ~doc:"Capture an environment fault and search for a patch.")
    Term.(const run $ name_arg "SCENARIO")

(* -- dump --------------------------------------------------------------------- *)

let dump_cmd =
  let run name =
    match find_workload name with
    | Error e ->
        Fmt.epr "%s@." e;
        1
    | Ok w ->
        Fmt.pr "%a@." Dift_isa.Program.pp w.Workload.program;
        List.iter
          (fun f ->
            let cfg = Dift_isa.Cfg.build f in
            Fmt.pr "%a@." Dift_isa.Cfg.pp cfg)
          (Dift_isa.Program.functions w.Workload.program);
        0
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Disassemble a kernel and print its CFGs.")
    Term.(const run $ name_arg "KERNEL")

let main =
  let doc = "dynamic information flow tracking playground" in
  Cmd.group (Cmd.info "diftc" ~doc)
    [ list_cmd; run_cmd; trace_cmd; taint_cmd; inspect_cmd; stats_cmd;
      slice_cmd; attack_cmd; lineage_cmd; profile_cmd; reduce_cmd;
      avoid_cmd; dump_cmd ]

let () = exit (Cmd.eval' main)
