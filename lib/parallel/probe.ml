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

(* Serve the [n]-th occurrence of [op] at the seam named [what]: each
   fault the plan fires here is recorded as [chaos.fire] on the acting
   domain's flight ring, its stall slept out, and a crash returned as
   the {!Chaos.Injected} the seam raises after its accounting. *)
let inject t c op ~what n =
  match Chaos.fire c op n with
  | [] -> None
  | faults ->
      let crash =
        List.fold_left
          (fun crash fault ->
            (match t.flight with
            | Some fl ->
                Flight.record fl ~cat:"chaos" "chaos.fire" ~a:n
                  ~detail:(Fmt.str "%s=%s" what (Chaos.fault_to_string fault))
            | None -> ());
            match fault with
            | Chaos.Stall ns ->
                Chaos.stall c ns;
                crash
            | Chaos.Crash -> true)
          false faults
      in
      if crash then
        Some (Chaos.Injected (Fmt.str "injected crash at %s #%d" what n))
      else None

(* -- feed rings --------------------------------------------------------- *)

type counts = {
  events : int;
  words : int;
  created_batches : int;
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
  push_leg : Progress.leg option;
  pop_leg : Progress.leg option;
  mutable occupancy : Registry.histogram option;
  mutable pushes : int;
      (** pushes so far, for the plan's [Push] rules; only the
          producer touches it *)
  mutable pops : int;  (** pops so far; only the consumer touches it *)
}

(* The feed ring's namespace: its metric prefix, flight category,
   progress-leg prefix and fault namespace. *)
let ns = "parallel"
let push_seam = ns ^ "/push"
let pop_seam = ns ^ "/pop"

let feed run =
  {
    run;
    push_leg = leg run (ns ^ ".push");
    pop_leg = leg run (ns ^ ".pop");
    occupancy = None;
    pushes = 0;
    pops = 0;
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
        Registry.gauge_fn reg (ns ^ suffix) ~help read
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
          (Registry.histogram reg (ns ^ ".forwarder.batch_occupancy")
             ~help:"events per pushed batch"
             ~buckets:(occupancy_buckets batch_size));
      books ".forwarder.events" "events forwarded" (fun c -> c.events);
      books ".forwarder.words" "wire words shipped" (fun c -> c.words);
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
  | Some fl -> Flight.record fl ~a ~b ~cat:ns name

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
  (match f.run.chaos with
  | None -> ()
  | Some c ->
      f.pushes <- f.pushes + 1;
      Option.iter raise (inject f.run c Chaos.Push ~what:push_seam f.pushes));
  deliver f ring x ~events

let pop f ring =
  let got =
    match f.run.trace with
    | None -> Spsc.pop ring
    | Some tr ->
        transfer tr ring ~parks:Spsc.consumer_waits ~fast:"ring.dequeue"
          ~slow:"ring.wait" (fun () -> Spsc.pop ring)
  in
  Option.map
    (fun x ->
      ( x,
        match f.run.chaos with
        | None -> None
        | Some c ->
            f.pops <- f.pops + 1;
            inject f.run c Chaos.Pop ~what:pop_seam f.pops ))
    got

let consumed f ring ~events =
  tick f.pop_leg;
  note f "ring.pop" ~a:events ~b:(Spsc.length ring)

let dropped f ~events ~total = note f "ring.drop" ~a:events ~b:total
let discarded f ~events ~total = note f "ring.discard" ~a:events ~b:total
let swept f ~batches ~events = note f "ring.sweep" ~a:batches ~b:events
let closed f ~events ~batches = note f "ring.close" ~a:events ~b:batches

(* -- helper lifecycle --------------------------------------------------- *)

type helper = {
  h_run : t;
  spawn_leg : Progress.leg option;
  join_leg : Progress.leg option;
  mutable spawns : int;  (** spawns so far, for the plan's [Spawn] rules *)
  on_busy : int -> unit;  (** registry hook, per timed batch *)
  on_wall : int -> unit;  (** registry hook, at drain end *)
}

let helper h_run =
  let on_busy, on_wall =
    match h_run.obs with
    | None -> (ignore, ignore)
    | Some reg ->
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
        ( (fun dt ->
            Registry.add busy dt;
            Registry.record_ns batch_span dt),
          Registry.add wall )
  in
  {
    h_run;
    spawn_leg = leg h_run "spawn.helper";
    join_leg = leg h_run "join.helper";
    spawns = 0;
    on_busy;
    on_wall;
  }

(* The wrapper runs before the engine counts the event, so [n] is the
   count before this one: [n land 255 = 0] holds on the first
   processed event and every 256th after it. *)
let engine t ~(stats : Dift_core.Engine.stats) ~shadow_footprint process =
  (match t.obs with
  | Some reg ->
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
  match (t.trace, t.flight) with
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

let spawn h body =
  (* armed from here until the body's first instruction: a domain
     that never gets scheduled is a watchable seam *)
  enter h.spawn_leg;
  match
    (match h.h_run.chaos with
    | None -> ()
    | Some c ->
        h.spawns <- h.spawns + 1;
        Option.iter raise
          (inject h.h_run c Chaos.Spawn ~what:"spawn" h.spawns));
    Domain.spawn (fun () ->
        leave h.spawn_leg;
        Option.iter (fun tr -> Trace.name_track tr "helper") h.h_run.trace;
        (match h.h_run.flight with
        | Some fl ->
            Flight.name_domain fl "helper";
            Flight.record fl ~cat:"run" "helper.start"
        | None -> ());
        let t0 = Clock.now_ns () in
        Fun.protect body ~finally:(fun () -> h.on_wall (Clock.now_ns () - t0)))
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
    h.on_busy (Clock.now_ns () - t0)
  in
  match trace with
  | Some tr ->
      Trace.span tr ~cat:"parallel" "helper.drain" (fun () -> k ~around_batch)
  | None -> k ~around_batch

let crash h ex =
  match h.h_run.flight with
  | Some fl ->
      Flight.record fl ~cat:"run" "helper.crash"
        ~detail:(Printexc.to_string ex)
  | None -> ()

let join h d =
  enter h.join_leg;
  Fun.protect ~finally:(fun () -> leave h.join_leg) (fun () -> Domain.join d)

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

let run_start t ~queue_capacity =
  Option.iter (fun fl -> Flight.name_domain fl "app") t.flight;
  mark t "run.start" ~b:queue_capacity ~detail:"two-domain"

let run_done t ~events ~batches = mark t "run.done" ~a:events ~b:batches
let run_error t ~leg = mark t "run.error" ~detail:leg
let run_degrade t ~cut ~leg = mark t "run.degrade" ~a:cut ~detail:leg

let on_miss t ~name f =
  Option.iter (fun w -> Watchdog.on_miss w ~name f) t.watchdog

let missed t = Option.bind t.watchdog Watchdog.fired
