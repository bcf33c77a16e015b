(** One run's instruments and the seam handles derived from them; see
    the interface for the seam catalogue. *)

open Dift_obs

type t = {
  obs : Registry.t option;
  trace : Trace.t option;
  flight : Flight.t option;
  chaos : Chaos.t option;
  watchdog : Watchdog.t option;
}

let off =
  { obs = None; trace = None; flight = None; chaos = None; watchdog = None }

let make ?obs ?trace ?flight ?chaos ?watchdog () =
  { obs; trace; flight; chaos; watchdog }

let leg t name =
  Option.map (fun w -> Progress.leg (Watchdog.progress w) name) t.watchdog

let enter = function Some l -> Progress.enter l | None -> ()
let leave = function Some l -> Progress.leave l | None -> ()
let tick = function Some l -> Progress.tick l | None -> ()

(* -- feed rings --------------------------------------------------------- *)

type counts = {
  events : int;
  batches : int;
  dropped_batches : int;
  dropped_events : int;
  discarded_batches : int;
  discarded_events : int;
  consumed_batches : int;
  consumed_events : int;
  producer_stalls : int;
  consumer_waits : int;
  in_flight_batches : int;
}

type feed = {
  run : t;
  ns : string;  (** metric namespace, doubles as the flight category *)
  chaos : Chaos.inst option;
  push_leg : Progress.leg option;
  pop_leg : Progress.leg option;
  mutable occupancy : Registry.histogram option;
}

let feed run ~ns =
  {
    run;
    ns;
    chaos = Option.map (fun c -> Chaos.instance c ~ns) run.chaos;
    push_leg = leg run (ns ^ ".push");
    pop_leg = leg run (ns ^ ".pop");
    occupancy = None;
  }

let ring f ~capacity =
  Spsc.create ?push_leg:f.push_leg ?pop_leg:f.pop_leg ~capacity ()

(* Power-of-two occupancy buckets up to the batch size: a full batch
   lands in the last real bucket, so the overflow bucket staying at
   zero is itself an invariant check. *)
let occupancy_buckets batch_size =
  let rec up acc b = if b >= batch_size then List.rev (batch_size :: acc)
    else up (b :: acc) (b * 2)
  in
  up [] 1

let publish f ring ~batch_size counts =
  match f.run.obs with
  | None -> ()
  | Some reg ->
      let gauge suffix help read =
        Registry.gauge_fn reg (f.ns ^ suffix) ~help read
      in
      let books suffix help read =
        gauge suffix help (fun () -> read (counts ()))
      in
      gauge ".ring.capacity_batches" "ring slots" (fun () ->
          Spsc.capacity ring);
      gauge ".ring.stalls" "producer blocked on a full ring" (fun () ->
          Spsc.producer_stalls ring);
      gauge ".ring.waits" "consumer blocked on an empty ring" (fun () ->
          Spsc.consumer_waits ring);
      gauge ".ring.drops" "batches dropped after abort" (fun () ->
          Spsc.dropped ring);
      f.occupancy <-
        Some
          (Registry.histogram reg (f.ns ^ ".forwarder.batch_occupancy")
             ~help:"events per pushed batch"
             ~buckets:(occupancy_buckets batch_size));
      books ".forwarder.events" "events forwarded" (fun c -> c.events);
      books ".forwarder.batches" "batches delivered to the ring" (fun c ->
          c.batches);
      books ".forwarder.dropped_batches"
        "batches lost on the producer side (abort/injected)" (fun c ->
          c.dropped_batches);
      books ".forwarder.dropped_events"
        "events lost on the producer side (abort/injected)" (fun c ->
          c.dropped_events);
      books ".forwarder.discarded_batches"
        "batches popped but not processed (injected pop failure)" (fun c ->
          c.discarded_batches);
      books ".forwarder.discarded_events"
        "events popped but not processed (injected pop failure)" (fun c ->
          c.discarded_events);
      books ".forwarder.consumed_batches"
        "batches fully processed by the consumer" (fun c -> c.consumed_batches);
      books ".forwarder.consumed_events"
        "events fully processed by the consumer" (fun c -> c.consumed_events);
      gauge ".ring.in_flight_batches" "batches delivered but not yet popped"
        (fun () -> Spsc.length ring)

(* One bounded flight event on the acting domain's ring. *)
let note f name ~a ~b =
  match f.run.flight with
  | None -> ()
  | Some fl -> Flight.record fl ~a ~b ~cat:f.ns name

(* One ring transfer on the acting domain's track: a span named [slow]
   when the transfer parked (counted by [parks]) and [fast] otherwise,
   then a sample of the ring occupancy. *)
let transfer tr ring ~parks ~fast ~slow op =
  let parks0 = parks ring in
  let t0 = Trace.now_ns tr in
  let r = op () in
  let dur_ns = Trace.now_ns tr - t0 in
  Trace.complete_ns tr ~cat:"parallel"
    (if parks ring > parks0 then slow else fast)
    ~start_ns:t0 ~dur_ns;
  Trace.counter tr ~cat:"parallel" "ring.occupancy" (Spsc.length ring);
  r

let abort f ring = if Spsc.abort_first ring then note f "ring.abort" ~a:0 ~b:0

(* Only the producer increments [Spsc.dropped], so the delta around the
   push tells whether the batch landed or fell to a post-abort drop. *)
let deliver f ring x ~events =
  let dropped0 = Spsc.dropped ring in
  (match f.run.trace with
  | None -> Spsc.push ring x
  | Some tr ->
      transfer tr ring ~parks:Spsc.producer_stalls ~fast:"ring.enqueue"
        ~slow:"ring.stall" (fun () -> Spsc.push ring x));
  let landed = Spsc.dropped ring = dropped0 in
  if landed then begin
    tick f.push_leg;
    note f "ring.push" ~a:events ~b:(Spsc.length ring)
  end;
  landed

let push f ring x ~events =
  (match f.occupancy with Some h -> Registry.observe h events | None -> ());
  Option.iter raise (Option.bind f.chaos Chaos.on_push);
  deliver f ring x ~events

let pop f ring =
  let got =
    match f.run.trace with
    | None -> Spsc.pop ring
    | Some tr ->
        transfer tr ring ~parks:Spsc.consumer_waits ~fast:"ring.dequeue"
          ~slow:"ring.wait" (fun () -> Spsc.pop ring)
  in
  Option.map (fun x -> (x, Option.bind f.chaos Chaos.on_pop)) got

let consumed f ring ~events =
  tick f.pop_leg;
  note f "ring.pop" ~a:events ~b:(Spsc.length ring)

let dropped f ~events ~total = note f "ring.drop" ~a:events ~b:total
let discarded f ~events ~total = note f "ring.discard" ~a:events ~b:total
let swept f ~batches ~events = note f "ring.sweep" ~a:batches ~b:events
let closed f ~events ~batches = note f "ring.close" ~a:events ~b:batches

(* -- exchange rings ----------------------------------------------------- *)

type exchange = {
  x_run : t;
  src : int;
  dst : int;
  x_chaos : Chaos.inst option;
  x_push_leg : Progress.leg option;
  x_pop_leg : Progress.leg option;
}

let exchange x_run ~src ~dst =
  let ns = Fmt.str "xchg.%d.%d" src dst in
  {
    x_run;
    src;
    dst;
    x_chaos = Option.map (fun c -> Chaos.instance c ~ns) x_run.chaos;
    (* one leg per blocking side, so a stalled exchange names its
       exact edge *)
    x_push_leg = leg x_run (ns ^ ".push");
    x_pop_leg = leg x_run (ns ^ ".pop");
  }

let exchange_ring x ~capacity =
  Spsc.create ?push_leg:x.x_push_leg ?pop_leg:x.x_pop_leg ~capacity ()

let x_note x name =
  match x.x_run.flight with
  | None -> ()
  | Some fl -> Flight.record fl ~cat:"xchg" name ~a:x.src ~b:x.dst

(* An injected fault crashes the intercepting shard, whose handler
   aborts the mesh so that its peers cascade. *)
let exchange_push x mesh m =
  Option.iter raise (Option.bind x.x_chaos Chaos.on_push);
  x_note x "xchg.push";
  Spsc.push mesh.(x.src).(x.dst) m

let exchange_pop x mesh =
  Option.iter raise (Option.bind x.x_chaos Chaos.on_pop);
  let m = Spsc.pop mesh.(x.src).(x.dst) in
  x_note x (if Option.is_none m then "xchg.dead" else "xchg.pop");
  m

(* -- helper lifecycle --------------------------------------------------- *)

type helper = {
  h_run : t;
  shard : int;
  solo : bool;  (** the one helper of the two-domain runtime *)
  spawn_leg : Progress.leg option;
  join_leg : Progress.leg option;
  work_leg : Progress.leg option;
  mutable busy_ns : int;
  mutable wall_ns : int;
  on_busy : int -> unit;  (** registry hook, per timed batch *)
  on_wall : int -> unit;  (** registry hook, at drain end *)
}

let helpers h_run ~shards ~sent ~cross =
  let solo = shards = 1 in
  let legs prefix =
    Array.init shards (fun s ->
        leg h_run
          (if solo then prefix ^ ".helper" else Fmt.str "%s.shard%d" prefix s))
  in
  let work =
    Array.init shards (fun s ->
        if solo then None else leg h_run (Fmt.str "work.shard%d" s))
  in
  let spawn = legs "spawn" and join = legs "join" in
  let make ?(on_busy = ignore) ?(on_wall = ignore) s =
    {
      h_run;
      shard = s;
      solo;
      spawn_leg = spawn.(s);
      join_leg = join.(s);
      work_leg = work.(s);
      busy_ns = 0;
      wall_ns = 0;
      on_busy;
      on_wall;
    }
  in
  match h_run.obs with
  | None -> Array.init shards (fun s -> make s)
  | Some reg when solo ->
      (* utilization: busy time around whole batches against wall
         time; the same per-batch measurement feeds the span *)
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
      [|
        make 0
          ~on_busy:(fun dt ->
            Registry.add busy dt;
            Registry.record_ns batch_span dt)
          ~on_wall:(Registry.add wall);
      |]
  | Some reg ->
      let hs = Array.init shards (fun s -> make s) in
      Array.iter
        (fun h ->
          let gauge suffix help read =
            Registry.gauge_fn reg
              (Fmt.str "parallel.shard%d.%s" h.shard suffix)
              ~help read
          in
          gauge "busy_ns" "shard time spent processing batches" (fun () ->
              h.busy_ns);
          gauge "wall_ns" "shard wall time, spawn to drain end" (fun () ->
              h.wall_ns);
          gauge "utilization_pct" "busy / wall, percent" (fun () ->
              h.busy_ns * 100 / max 1 h.wall_ns);
          gauge "exchange_sent" "cross-shard taint vectors pushed" (fun () ->
              sent h.shard))
        hs;
      Registry.gauge_fn reg "parallel.router.cross_events"
        ~help:"events spanning more than one shard" cross;
      hs

(* The wrapper runs before the engine counts the event, so [n] is the
   count before this one: [n land 255 = 0] holds on the first
   processed event and every 256th after it. *)
let engine t ~owner ~(stats : Dift_core.Engine.stats) ~shadow_footprint
    process =
  (match t.obs with
  | Some reg when owner ->
      let g name help f = Registry.gauge_fn reg name ~help f in
      g "core.engine.events" "events the engine processed" (fun () ->
          stats.events);
      g "core.engine.sources" "taint injections at input reads" (fun () ->
          stats.sources);
      g "core.engine.sink_hits" "sinks reached by non-bottom taint"
        (fun () -> stats.sink_hits);
      g "core.shadow.tainted_locations" "locations with non-bottom taint"
        (fun () -> fst (shadow_footprint ()));
      g "core.shadow.words" "shadow footprint, machine words" (fun () ->
          snd (shadow_footprint ()))
  | _ -> ());
  match ((if owner then t.trace else None), t.flight) with
  | None, None -> process
  | trace, flight ->
      fun v ->
        let n = stats.events in
        (match trace with
        | Some tr when n land 255 = 0 ->
            let locations, words = shadow_footprint () in
            Trace.counter tr ~cat:"core" "shadow.words" words;
            Trace.counter tr ~cat:"core" "shadow.tainted_locations" locations
        | _ -> ());
        (match flight with
        | Some fl when n land 4095 = 0 ->
            Flight.record fl ~cat:"core" "engine.progress" ~a:(n + 1)
              ~b:stats.sink_hits
        | _ -> ());
        process v

let name h = if h.solo then "helper" else Fmt.str "shard-%d" h.shard
let role h = if h.solo then "helper" else "shard"

let spawn h body =
  (* armed from here until the body's first instruction: a domain
     that never gets scheduled is a watchable seam *)
  enter h.spawn_leg;
  match
    Option.iter raise (Option.bind h.h_run.chaos Chaos.on_spawn);
    Domain.spawn (fun () ->
        leave h.spawn_leg;
        Option.iter (fun tr -> Trace.name_track tr (name h)) h.h_run.trace;
        (match h.h_run.flight with
        | Some fl ->
            Flight.name_domain fl (name h);
            Flight.record fl ~cat:"run" (role h ^ ".start") ~a:h.shard
        | None -> ());
        let t0 = Clock.now_ns () in
        Fun.protect body ~finally:(fun () ->
            h.wall_ns <- Clock.now_ns () - t0;
            h.on_wall h.wall_ns))
  with
  | d -> d
  | exception ex ->
      (* the body never ran, so it cannot disarm the leg *)
      leave h.spawn_leg;
      raise ex

let drain h k =
  let trace = h.h_run.trace in
  let around_batch body =
    let t0 = Clock.now_ns () in
    (match trace with
    | Some tr -> Trace.span tr ~cat:"core" "engine.batch" body
    | None -> body ());
    let dt = Clock.now_ns () - t0 in
    h.busy_ns <- h.busy_ns + dt;
    h.on_busy dt
  in
  match trace with
  | Some tr ->
      Trace.span tr ~cat:"parallel" "helper.drain" (fun () -> k ~around_batch)
  | None -> k ~around_batch

let crash h ex =
  match h.h_run.flight with
  | Some fl ->
      Flight.record fl ~cat:"run" (role h ^ ".crash") ~a:h.shard
        ~detail:(Printexc.to_string ex)
  | None -> ()

let join h d =
  enter h.join_leg;
  Fun.protect ~finally:(fun () -> leave h.join_leg) (fun () -> Domain.join d)

let work h = tick h.work_leg
let busy_ns h = h.busy_ns
let wall_ns h = h.wall_ns

(* -- run markers -------------------------------------------------------- *)

let app t m =
  Option.iter (fun tr -> Trace.name_track tr "app") t.trace;
  Option.iter (fun fl -> Flight.name_domain fl "app") t.flight;
  Option.iter (fun reg -> Dift_vm.Obs_tool.attach reg m) t.obs

let app_run t run =
  match t.trace with
  | Some tr -> Trace.span tr ~cat:"vm" "app.run" run
  | None -> run ()

let mark t ?a ?b ?detail name =
  match t.flight with
  | None -> ()
  | Some fl -> Flight.record fl ?a ?b ?detail ~cat:"run" name

let run_start t ~shards ~queue_capacity =
  Option.iter (fun fl -> Flight.name_domain fl "app") t.flight;
  mark t "run.start" ~a:shards ~b:queue_capacity
    ~detail:(if shards = 1 then "two-domain" else "sharded")

let run_done t ~events ~batches = mark t "run.done" ~a:events ~b:batches
let run_error t ~leg = mark t "run.error" ~detail:leg
let run_degrade t ~cut ~leg = mark t "run.degrade" ~a:cut ~detail:leg

let on_miss t ~name f =
  Option.iter (fun w -> Watchdog.on_miss w ~name f) t.watchdog

let missed t = Option.bind t.watchdog Watchdog.fired
