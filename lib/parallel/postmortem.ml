module Json = Dift_obs.Json

let schema = "dift-crash-bundle/1"

type geometry = {
  g_runtime : string;
  g_shards : int;
  g_queue_capacity : int;
  g_batch_size : int;
  g_wire : Channel.wire;
  g_forward_filter : bool;
  g_deadline : string option;
  g_degrade : bool;
}

let geometry_json g =
  Json.obj
    ([
       ("runtime", Json.String g.g_runtime);
       ("shards", Json.Int g.g_shards);
       ("queue_capacity", Json.Int g.g_queue_capacity);
       ("batch_size", Json.Int g.g_batch_size);
       ("wire", Json.String (Fmt.str "%a" Channel.pp_wire g.g_wire));
       ("forward_filter", Json.Bool g.g_forward_filter);
       ("degrade", Json.Bool g.g_degrade);
     ]
    @
    match g.g_deadline with
    | None -> []
    | Some d -> [ ("deadline_ms", Json.String d) ])

let error_json (e : Parallel.error) =
  let p = e.e_partial in
  Json.obj
    ([
       ("leg", Json.String (Parallel.leg_to_string e.e_leg));
       ("exn", Json.String (Printexc.to_string e.e_exn));
       ( "secondary",
         Json.List
           (List.map
              (fun x -> Json.String (Printexc.to_string x))
              e.e_secondary) );
       ( "partial",
         Json.obj
           [
             ("events", Json.Int p.p_events);
             ("batches", Json.Int p.p_batches);
             ("dropped_batches", Json.Int p.p_dropped_batches);
             ("dropped_events", Json.Int p.p_dropped_events);
             ("wall_ns", Json.Int p.p_wall_ns);
           ] );
     ]
    @
    (* a deadline miss carries the stalled-seam portrait: surface it
       structurally so [inspect] can render it without re-parsing the
       exception string *)
    match e.e_exn with
    | Watchdog.Deadline_exceeded m ->
        [
          ( "deadline",
            Json.obj
              [
                ("seam", Json.String m.Watchdog.m_seam);
                ("epoch", Json.Int m.Watchdog.m_epoch);
                ("blocked_ns", Json.Int m.Watchdog.m_blocked_ns);
                ("deadline_ns", Json.Int m.Watchdog.m_deadline_ns);
                ( "armed",
                  Json.List
                    (List.map
                       (fun (seam, ep) ->
                         Json.obj
                           [
                             ("seam", Json.String seam);
                             ("epoch", Json.Int ep);
                           ])
                       m.Watchdog.m_armed) );
              ] );
        ]
    | _ -> [])

let bundle ?obs ?flight ?chaos ?trace ?first_heartbeat ?(extra = []) ~error
    geometry =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.obj
    ([ ("schema", Json.String schema) ]
    @ [ ("error", error_json error); ("geometry", geometry_json geometry) ]
    @ opt "fault_plan"
        (fun c ->
          Json.obj
            [
              ("plan", Json.String (Chaos.plan_to_string (Chaos.plan c)));
              ("fired", Json.Int (Chaos.fired c));
            ])
        chaos
    @ opt "metrics"
        (fun reg -> Dift_obs.Registry.(to_json (snapshot reg)))
        obs
    @ opt "first_heartbeat" Fun.id first_heartbeat
    @ opt "trace"
        (fun tr ->
          Json.obj
            [
              ("buffered", Json.Int (Dift_obs.Trace.buffered tr));
              ("dropped", Json.Int (Dift_obs.Trace.dropped tr));
              ("capacity", Json.Int (Dift_obs.Trace.capacity tr));
            ])
        trace
    @ opt "flight" Dift_obs.Flight.to_json flight
    @ extra)

let write ~file j =
  let tmp = file ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string j);
      flush oc);
  Sys.rename tmp file
