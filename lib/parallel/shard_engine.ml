(** Per-shard DIFT workers and the cross-shard exchange protocol; see
    the interface for the architecture and
    [docs/forwarding-protocol.md] for the protocol and its
    deadlock-freedom argument. *)

open Dift_vm
open Dift_core

type route = [ `Request_reply | `Broadcast ]

let pp_route ppf (r : route) =
  Fmt.string ppf
    (match r with
    | `Request_reply -> "request-reply"
    | `Broadcast -> "broadcast")

type shard_stat = {
  shard : int;
  fed : int;
  handled : int;
  batches : int;
  dropped_batches : int;
  dropped_events : int;
  discarded_batches : int;
  discarded_events : int;
  busy_ns : int;
  wall_ns : int;
  producer_stalls : int;
  consumer_waits : int;
  exchange_sent : int;
  exchange_received : int;
}

exception Shard_dead
exception Spawn_failure of exn

type failure = {
  f_primary : exn;
  f_shards : (int * exn) list;
}

let pp_failure ppf f =
  Fmt.pf ppf "primary %s; %d shard%s dead%a"
    (Printexc.to_string f.f_primary)
    (List.length f.f_shards)
    (if List.length f.f_shards = 1 then "" else "s")
    (fun ppf -> function
      | [] -> ()
      | l ->
          Fmt.pf ppf " (%a)"
            (Fmt.list ~sep:Fmt.comma (fun ppf (s, e) ->
                 Fmt.pf ppf "shard %d: %s" s (Printexc.to_string e)))
            l)
    f.f_shards

(* Monotonic: shard busy/wall intervals must never go negative even if
   the system clock steps mid-run. *)
let now_ns = Dift_obs.Clock.now_ns

(* The sink trace: one well-mixed integer per sink observation, folded
   by addition.  The sum is order-independent, so shards fold their own
   observations and the merge adds them up; the step inside each
   observation keeps the order information. *)
let sink_code : Engine.sink -> int = function
  | Engine.Sink_icall -> 0
  | Engine.Sink_output -> 1
  | Engine.Sink_check -> 2
  | Engine.Sink_store_address -> 3
  | Engine.Sink_load_address -> 4
  | Engine.Sink_branch -> 5

let sink_hash ~step sink tainted =
  let x = (step lsl 4) lor (sink_code sink lsl 1) lor Bool.to_int tainted in
  let h = (x lxor (x lsr 29)) * 0x100000001b3 in
  let h = (h lxor (h lsr 31)) * 0xbf58476d1ce4e5b in
  h lxor (h lsr 29)

module Make (D : Taint.DOMAIN) = struct
  module E = Engine.Make (D)

  (* [not (D.is_bottom t)], without a call through the functor
     parameter for the Bool domain: the sink hook and the filter's
     publication run it per event on the helpers. *)
  let tainted (t : D.t) : bool =
    match D.as_bool with Some Taint.Refl -> t | None -> not (D.is_bottom t)

  (* One exchange message: the step it belongs to (a protocol
     self-check — rings are FIFO, so a mismatch means a routing bug)
     plus taint values positional on the event's read or write list. *)
  type msg = int * D.t array

  type xchg = {
    rings : msg Spsc.t array array;  (** [rings.(src).(dst)] *)
    journals : msg list ref array array option;
        (** consumed messages per ring, newest first; written only by
            each ring's consumer domain *)
    x_chaos : Chaos.inst array array option;
        (** fault seams per ring, namespaced [xchg.<src>.<dst>] *)
  }

  let create_xchg ?(capacity = 256) ?(journal = false) ?chaos ?progress
      ~shards () =
    if capacity < 1 then
      invalid_arg "Shard_engine.create_xchg: capacity < 1";
    {
      rings =
        Array.init shards (fun src ->
            Array.init shards (fun dst ->
                (* one watchdog leg per blocking side of each mesh
                   ring, so a stalled exchange names its exact edge *)
                match progress with
                | None -> Spsc.create ~capacity ()
                | Some p ->
                    Spsc.create
                      ~push_leg:
                        (Dift_obs.Progress.leg p
                           (Fmt.str "xchg.%d.%d.push" src dst))
                      ~pop_leg:
                        (Dift_obs.Progress.leg p
                           (Fmt.str "xchg.%d.%d.pop" src dst))
                      ~capacity ()));
      journals =
        (if journal then
           Some
             (Array.init shards (fun _ ->
                  Array.init shards (fun _ -> ref [])))
         else None);
      x_chaos =
        Option.map
          (fun c ->
            Array.init shards (fun src ->
                Array.init shards (fun dst ->
                    Chaos.instance c ~ns:(Fmt.str "xchg.%d.%d" src dst))))
          chaos;
    }

  let abort_xchg x = Array.iter (Array.iter Spsc.abort) x.rings

  let journal x ~src ~dst =
    match x.journals with
    | None -> []
    | Some j -> List.rev !(j.(src).(dst))

  let prefill x ~src ~dst msgs =
    List.iter (Spsc.push x.rings.(src).(dst)) msgs

  type worker = {
    w_shard : int;
    router : Router.t;
    route : route;
    x : xchg;
    eng : E.t;
    w_flight : Dift_obs.Flight.t option;
        (** exchange legs record [xchg.push]/[xchg.pop] flight events *)
    w_scratch : Event.view;
        (** refilled per event on the boxed {!handle} path; coded
            drains hand their own scratch view to {!handle_view} *)
    mutable sink_hash : int;
        (** {!sink_hash} summed over this shard's sink observations *)
    mutable sinks : (int * Engine.sink * D.t * Event.exec option) list;
        (** newest first; kept only while [record_sinks] *)
    mutable record_sinks : bool;
    mutable sink_events : bool;
        (** with [record_sinks], keep each sink's event record too (for
            a client sink callback) *)
    mutable sent : int;
    mutable received : int;
    mutable w_prog : Dift_obs.Progress.leg option;
        (** [work.shard<i>]: ticked per handled view — the progress
            pulse that keeps legitimately parked peers from tripping
            the watchdog while this shard computes *)
  }

  let worker ?policy ?flight ~router ~route ~xchg ~record_sinks ~shard
      program =
    let policy = Option.value policy ~default:Policy.default in
    (match route with
    | `Request_reply
      when policy.Policy.propagate_control && Router.shards router > 1 ->
        invalid_arg
          "Shard_engine: propagate_control entangles every event through \
           per-thread control state and cannot be sharded exactly; use \
           ~route:`Broadcast"
    | _ -> ());
    let eng = E.create ~policy program in
    (* wall-clock runtime: modelled-cycle charging is meaningless here *)
    E.set_charge eng ignore;
    (* engine milestones land on whichever domain drains this shard *)
    (match flight with Some fl -> E.set_flight eng fl | None -> ());
    let f0 = List.hd (Dift_isa.Program.functions program) in
    let w =
      {
        w_shard = shard;
        router;
        route;
        x = xchg;
        eng;
        w_flight = flight;
        w_scratch =
          Event.view_create ~func:f0 ~instr:f0.Dift_isa.Func.body.(0);
        sink_hash = 0;
        sinks = [];
        record_sinks;
        sink_events = false;
        sent = 0;
        received = 0;
        w_prog = None;
      }
    in
    E.on_sink_view eng (fun sink taint v ->
        let step = v.Event.v_step in
        w.sink_hash <- w.sink_hash + sink_hash ~step sink (tainted taint);
        if w.record_sinks then
          let e = if w.sink_events then Some (Event.view_to_exec v) else None in
          w.sinks <- (step, sink, taint, e) :: w.sinks);
    w

  let engine w = w.eng
  let exchange_sent w = w.sent
  let exchange_received w = w.received

  (* Exchange messages are protocol legs, not payload: silently losing
     one would wedge the peer waiting for it.  An injected [Fail] on
     the mesh therefore escalates to a crash of the intercepting
     shard (which aborts the mesh and cascades cleanly), and
     [Abort_now] tears the whole mesh down. *)
  let x_chaos_act w ~src ~dst action =
    match action with
    | Chaos.Proceed -> ()
    | Chaos.Fail ->
        raise
          (Chaos.Injected
             (Fmt.str "injected exchange failure on ring %d->%d" src dst))
    | Chaos.Abort_now -> Array.iter (Array.iter Spsc.abort) w.x.rings
    | Chaos.Raise_now e -> raise e

  (* One bounded flight event for an exchange leg on the acting
     shard's ring ([a] = source shard, [b] = destination shard). *)
  let flight_x w name ~src ~dst =
    match w.w_flight with
    | None -> ()
    | Some fl -> Dift_obs.Flight.record fl ~cat:"xchg" name ~a:src ~b:dst

  let push_x w ~dst m =
    (match w.x.x_chaos with
    | None -> ()
    | Some insts ->
        x_chaos_act w ~src:w.w_shard ~dst
          (Chaos.on_push insts.(w.w_shard).(dst)));
    w.sent <- w.sent + 1;
    flight_x w "xchg.push" ~src:w.w_shard ~dst;
    Spsc.push w.x.rings.(w.w_shard).(dst) m

  let pop_x w ~src =
    (match w.x.x_chaos with
    | None -> ()
    | Some insts ->
        x_chaos_act w ~src ~dst:w.w_shard
          (Chaos.on_pop insts.(src).(w.w_shard)));
    match Spsc.pop w.x.rings.(src).(w.w_shard) with
    | None ->
        flight_x w "xchg.dead" ~src ~dst:w.w_shard;
        raise Shard_dead
    | Some m ->
        flight_x w "xchg.pop" ~src ~dst:w.w_shard;
        w.received <- w.received + 1;
        (match w.x.journals with
        | Some j ->
            let cell = j.(src).(w.w_shard) in
            cell := m :: !cell
        | None -> ());
        m

  let protocol_error w ~expect ~got =
    failwith
      (Fmt.str
         "Shard_engine: shard %d expected the exchange leg for step %d but \
          popped step %d — routing bug"
         w.w_shard expect got)

  (* Shards (other than this one) owning at least one of the first [n]
     locations of [arr]. *)
  let remote_mask w arr n =
    let m = ref 0 in
    for i = 0 to n - 1 do
      m := !m lor (1 lsl Router.shard_of_loc w.router arr.(i))
    done;
    !m land lnot (1 lsl w.w_shard)

  let exists_mine w arr n =
    let rec go i =
      i < n && (Router.owns w.router w.w_shard arr.(i) || go (i + 1))
    in
    go 0

  (* The home shard runs the *unmodified* sequential transfer function
     by windowing remote state through its own shadow: pull each
     provider's read-taint vector and [set] it in place, run
     {!E.process_view} (sinks, stats, policy handling and write
     stamping all behave exactly as in the sequential engine), then
     read the resulting taints of remote write locations back out of
     the shadow, ship them to their owners, and clear every remote
     location again.  The set/clear pairs cancel in the incremental
     footprint accounting, so per-shard footprints stay disjoint. *)
  let handle_home w (v : Event.view) =
    let sh = E.shadow w.eng in
    let mine l = Router.owns w.router w.w_shard l in
    let reads = v.Event.v_reads
    and nr = v.Event.v_nreads
    and writes = v.Event.v_writes
    and nw = v.Event.v_nwrites in
    Router.iter_shards (remote_mask w reads nr) (fun s ->
        let step, vec = pop_x w ~src:s in
        if step <> v.Event.v_step then
          protocol_error w ~expect:v.Event.v_step ~got:step;
        for i = 0 to nr - 1 do
          let l = reads.(i) in
          if Router.shard_of_loc w.router l = s then E.Sh.set sh l vec.(i)
        done);
    E.process_view w.eng v;
    let rmask = remote_mask w writes nw in
    if rmask <> 0 then begin
      let wv = Array.make nw D.bottom in
      for i = 0 to nw - 1 do
        let l = writes.(i) in
        if not (mine l) then wv.(i) <- E.Sh.get sh l
      done;
      Router.iter_shards rmask (fun s -> push_x w ~dst:s (v.Event.v_step, wv))
    end;
    for i = 0 to nr - 1 do
      let l = reads.(i) in
      if not (mine l) then E.Sh.clear sh l
    done;
    for i = 0 to nw - 1 do
      let l = writes.(i) in
      if not (mine l) then E.Sh.clear sh l
    done

  (* A non-home participant: provide the taints of its owned read
     locations (positional on the event's read list), then — if it
     owns write locations — await the home's write vector and store
     its share.  Provide-before-await is the leg order the
     deadlock-freedom argument relies on. *)
  let handle_assist w (v : Event.view) ~home =
    let sh = E.shadow w.eng in
    let mine l = Router.owns w.router w.w_shard l in
    let reads = v.Event.v_reads
    and nr = v.Event.v_nreads
    and writes = v.Event.v_writes
    and nw = v.Event.v_nwrites in
    if exists_mine w reads nr then begin
      let vec = Array.make nr D.bottom in
      for i = 0 to nr - 1 do
        let l = reads.(i) in
        if mine l then vec.(i) <- E.Sh.get sh l
      done;
      push_x w ~dst:home (v.Event.v_step, vec)
    end;
    if exists_mine w writes nw then begin
      let step, wv = pop_x w ~src:home in
      if step <> v.Event.v_step then
        protocol_error w ~expect:v.Event.v_step ~got:step;
      for i = 0 to nw - 1 do
        let l = writes.(i) in
        if mine l then E.Sh.set sh l wv.(i)
      done
    end

  let handle_view w (v : Event.view) =
    (match w.w_prog with
    | Some l -> Dift_obs.Progress.tick l
    | None -> ());
    match w.route with
    | `Broadcast -> E.process_view w.eng v
    | `Request_reply ->
        let mask = Router.participants_view w.router v in
        if Router.is_local mask then E.process_view w.eng v
        else begin
          let home = Router.home_of_view w.router v in
          if home = w.w_shard then handle_home w v
          else handle_assist w v ~home
        end

  let handle w (e : Event.exec) =
    Event.view_fill w.w_scratch e;
    handle_view w w.w_scratch

  (* -- deterministic merge --------------------------------------------- *)

  type merged = {
    m_events : int;
    m_sources : int;
    m_sink_hits : int;
    m_sink_hash : int;
    m_sinks : (int * Engine.sink * D.t * Event.exec option) list;
    m_tainted_locations : int;
    m_shadow_words : int;
    m_fingerprint : int;
  }

  (* Same recipe as the sequential fingerprint: every (loc, taint)
     entry, sorted, hashed.  Request/reply shards own disjoint
     location sets, so concatenating their folds enumerates exactly
     the sequential shadow. *)
  let fingerprint_of ws =
    Array.fold_left
      (fun acc w ->
        E.Sh.fold (fun loc d acc -> (loc, d) :: acc) (E.shadow w.eng) acc)
      [] ws
    |> List.sort compare |> Hashtbl.hash

  let merge ws =
    (* broadcast: full replication, shard 0 holds the whole answer;
       request/reply: every event has one home shard, so the disjoint
       shards add up *)
    let ws =
      match ws.(0).route with `Broadcast -> [| ws.(0) |] | `Request_reply -> ws
    in
    let sum f = Array.fold_left (fun acc w -> acc + f w) 0 ws in
    let stat f = sum (fun w -> f (E.stats w.eng)) in
    {
      m_events = stat (fun s -> s.Engine.events);
      m_sources = stat (fun s -> s.Engine.sources);
      m_sink_hits = stat (fun s -> s.Engine.sink_hits);
      m_sink_hash = sum (fun w -> w.sink_hash);
      (* each shard's list is already step-ascending (it processes its
         ring in forwarding order); a stable sort on the step is a
         k-way merge that keeps intra-step order (all entries of one
         step come from that event's home shard) *)
      m_sinks =
        Array.fold_left (fun acc w -> List.rev_append w.sinks acc) [] ws
        |> List.stable_sort (fun (a, _, _, _) (b, _, _, _) ->
               compare (a : int) b);
      m_tainted_locations = sum (fun w -> fst (E.shadow_footprint w.eng));
      m_shadow_words = sum (fun w -> snd (E.shadow_footprint w.eng));
      m_fingerprint = fingerprint_of ws;
    }

  (* One worker alone: a one-shard router and no mesh, so [handle]
     degenerates to [E.process_view] on every event. *)
  let solo ?policy ~record_sinks program =
    worker ?policy ~router:(Router.create ~shards:1 ()) ~route:`Broadcast
      ~xchg:(create_xchg ~shards:0 ()) ~record_sinks ~shard:0 program

  let sequential ?policy program events =
    let w = solo ?policy ~record_sinks:true program in
    List.iter (handle w) events;
    merge [| w |]

  (* -- a cluster: workers + inbound rings + helper domains ------------- *)

  type shard_clock = {
    mutable busy_ns : int;
    mutable wall_ns : int;
    on_busy : int -> unit;  (** registry hook, per timed batch *)
    on_wall : int -> unit;  (** registry hook, at drain end *)
  }

  type cluster = {
    c_route : route;
    c_xchg : xchg;
    workers : worker array;
    chans : Channel.t array;
    c_filter : Livefilter.t option;
    clocks : shard_clock array;
    c_trace : Dift_obs.Trace.t option;
    c_flight : Dift_obs.Flight.t option;
    c_chaos : Chaos.t option;
    c_spawn_legs : Dift_obs.Progress.leg option array;
        (** [spawn.helper] / [spawn.shard<i>]: armed from just before
            [Domain.spawn] until the body's first instruction *)
    c_join_legs : Dift_obs.Progress.leg option array;
        (** [join.helper] / [join.shard<i>]: armed around the joins *)
    c_solo : unit -> worker;  (** a fresh worker, for {!resume} *)
    mutable c_feed : Event.view -> unit;
    mutable c_cutoff : int;
        (** one shard: step of the last event of the last batch the
            helper fully processed ([-1] = none); written by the
            helper, read after the join *)
    mutable c_closed : bool;
    mutable domains : unit Domain.t array;
    mutable cross : int;
  }

  (* Deliver to, or flush, every shard of a participant mask, in
     ascending shard order as {!Router.iter_shards} does, without a
     closure per event. *)
  let rec add_mask chans v mask s =
    if mask <> 0 then begin
      if mask land 1 = 1 then Channel.add_view chans.(s) v;
      add_mask chans v (mask lsr 1) (s + 1)
    end

  let rec flush_mask chans mask s =
    if mask <> 0 then begin
      if mask land 1 = 1 then Channel.flush chans.(s);
      flush_mask chans (mask lsr 1) (s + 1)
    end

  (* Route one admitted event to several shards.  An event for several
     boxed channels gets its record built once, cached in the view, so
     that every channel ships the same one. *)
  let route_view c ~router ~boxed v =
    match c.c_route with
    | `Broadcast ->
        if boxed then ignore (Event.view_to_exec v : Event.exec);
        for s = 0 to Array.length c.chans - 1 do
          Channel.add_view c.chans.(s) v
        done
    | `Request_reply ->
        let mask = Router.participants_view router v in
        if Router.is_local mask then add_mask c.chans v mask 0
        else begin
          if boxed then ignore (Event.view_to_exec v : Event.exec);
          add_mask c.chans v mask 0;
          c.cross <- c.cross + 1;
          (* flush every participant: no copy of a cross-shard event
             may sit in an open batch while a peer shard blocks
             awaiting one of its exchange legs *)
          flush_mask c.chans mask 0
        end

  let cluster ?policy ?(route = `Request_reply) ?obs ?trace ?flight ?chaos
      ?watchdog ?(queue_capacity = 64) ?(batch_size = 64)
      ?(xchg_capacity = 256) ?(wire = `Coded) ?filter ~shards program =
    let router = Router.create ~shards () in
    (* One shard has nothing to route or exchange: no mesh, and the
       names of the two-domain runtime, since that is what it is. *)
    let one = shards = 1 in
    let progress = Option.map Watchdog.progress watchdog in
    let xchg =
      create_xchg ~capacity:xchg_capacity ?chaos ?progress
        ~shards:(if one then 0 else shards)
        ()
    in
    let workers =
      Array.init shards (fun s ->
          worker ?policy ?flight ~router ~route ~xchg ~record_sinks:false
            ~shard:s program)
    in
    let ns s = if one then "parallel" else Fmt.str "parallel.shard%d" s in
    let leg_array prefix =
      Array.init shards (fun s ->
          Option.map
            (fun p ->
              Dift_obs.Progress.leg p
                (if one then prefix ^ ".helper"
                 else Fmt.str "%s.shard%d" prefix s))
            progress)
    in
    (* one interned site table, shared by every coded shard channel *)
    let table = lazy (Site.of_program program) in
    let chans =
      (* request/reply shards coordinate on every cross-shard event, so
         a lost inbound batch would strand peers mid-exchange: escalate
         injected losses on these rings to clean shard crashes *)
      let escalate = route = `Request_reply && not one in
      Array.init shards (fun s ->
          Channel.create ?obs ?trace ?flight ?chaos ?progress ~escalate
            ~ns:(ns s) ~wire ~queue_capacity ~batch_size ~table ())
    in
    (match progress with
    | Some p when not one ->
        Array.iteri
          (fun s w ->
            w.w_prog <-
              Some (Dift_obs.Progress.leg p (Fmt.str "work.shard%d" s)))
          workers
    | _ -> ());
    let clock ?(on_busy = ignore) ?(on_wall = ignore) () =
      { busy_ns = 0; wall_ns = 0; on_busy; on_wall }
    in
    let clocks =
      match obs with
      | Some reg when one ->
          (* the helper's engine gauges, and its utilization: busy time
             around whole batches against its wall time; the same
             per-batch measurement feeds the [parallel.helper.batch]
             span *)
          let open Dift_obs in
          let eng = workers.(0).eng in
          E.register_obs eng reg;
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
            clock
              ~on_busy:(fun dt ->
                Registry.add busy dt;
                Registry.record_ns batch_span dt)
              ~on_wall:(Registry.add wall) ();
          |]
      | _ -> Array.init shards (fun _ -> clock ())
    in
    (* the helper's engine samples its shadow footprint on its track *)
    (match trace with
    | Some tr when one -> E.set_trace workers.(0).eng tr
    | _ -> ());
    let c =
      {
        c_route = route;
        c_xchg = xchg;
        workers;
        chans;
        c_filter = filter;
        clocks;
        c_trace = trace;
        c_flight = flight;
        c_chaos = chaos;
        c_spawn_legs = leg_array "spawn";
        c_join_legs = leg_array "join";
        c_solo = (fun () -> solo ?policy ~record_sinks:false program);
        c_feed = ignore;
        c_cutoff = -1;
        c_closed = false;
        domains = [||];
        cross = 0;
      }
    in
    let boxed = wire = `Boxed and ch = chans.(0) in
    c.c_feed <-
      (match filter with
      | None when one -> Channel.add_view ch
      | None -> route_view c ~router ~boxed
      | Some lf when one ->
          fun v -> if Livefilter.admit_view lf v then Channel.add_view ch v
      | Some lf ->
          fun v ->
            if Livefilter.admit_view lf v then route_view c ~router ~boxed v);
    (* cascade hooks, in dependency order: the feed rings first (their
       consumers unpark and terminate), then the exchange mesh (any
       shard parked mid-exchange gets [Shard_dead] and cascades) —
       the same teardown {!abort} runs on a feeder crash, and every
       piece is idempotent *)
    (match watchdog with
    | Some w ->
        Array.iteri
          (fun s ch ->
            Watchdog.on_miss w ~name:(ns s) (fun () -> Channel.abort ch))
          chans;
        if not one then
          Watchdog.on_miss w ~name:"xchg" (fun () -> abort_xchg xchg)
    | None -> ());
    (match obs with
    | Some reg when not one ->
        let open Dift_obs in
        Array.iteri
          (fun s (k : shard_clock) ->
            let n suffix = Fmt.str "parallel.shard%d.%s" s suffix in
            Registry.gauge_fn reg (n "busy_ns")
              ~help:"shard time spent processing batches" (fun () ->
                k.busy_ns);
            Registry.gauge_fn reg (n "wall_ns")
              ~help:"shard wall time, spawn to drain end" (fun () ->
                k.wall_ns);
            Registry.gauge_fn reg (n "utilization_pct")
              ~help:"busy / wall, percent" (fun () ->
                k.busy_ns * 100 / max 1 k.wall_ns);
            Registry.gauge_fn reg (n "exchange_sent")
              ~help:"cross-shard taint vectors pushed" (fun () ->
                c.workers.(s).sent))
          clocks;
        Registry.gauge_fn reg "parallel.router.cross_events"
          ~help:"events spanning more than one shard" (fun () -> c.cross)
    | _ -> ());
    c

  let cross_events c = c.cross

  let exchange_messages c =
    Array.fold_left (fun acc w -> acc + w.sent) 0 c.workers

  (* Under broadcast only shard 0 reports, so only it records. *)
  let record_sink_events c =
    Array.iteri
      (fun s w ->
        if s = 0 || c.c_route = `Request_reply then begin
          w.record_sinks <- true;
          w.sink_events <- true
        end)
      c.workers

  let feed_view c = c.c_feed

  let feed c e =
    let v = Event.view_blank () in
    Event.view_fill v e;
    c.c_feed v

  let spawn_one c s w =
    let one = Array.length c.workers = 1 in
    (* chaos [Spawn] interception: any non-Proceed action models
       [Domain.spawn] itself failing for this helper *)
    (match c.c_chaos with
    | None -> ()
    | Some ch -> (
        match Chaos.on_spawn ch with
        | Chaos.Proceed -> ()
        | Chaos.Raise_now e -> raise e
        | Chaos.Fail | Chaos.Abort_now ->
            raise
              (Chaos.Injected
                 (if one then "injected spawn failure, helper"
                  else Fmt.str "injected spawn failure, shard %d" s))));
    (* each helper's track and flight-ring name, and its lifecycle
       events' prefix *)
    let name = if one then "helper" else Fmt.str "shard-%d" s
    and role = if one then "helper" else "shard" in
    Domain.spawn (fun () ->
        (* disarm the spawn leg: the body is running, so the
           spawn-to-first-progress window is over *)
        (match c.c_spawn_legs.(s) with
        | Some l -> Dift_obs.Progress.leave l
        | None -> ());
        (match c.c_trace with
        | Some tr -> Dift_obs.Trace.name_track tr name
        | None -> ());
        (match c.c_flight with
        | Some fl ->
            Dift_obs.Flight.name_domain fl name;
            Dift_obs.Flight.record fl ~cat:"run" (role ^ ".start") ~a:s
        | None -> ());
        let k = c.clocks.(s) in
        let around_batch body =
          let t0 = now_ns () in
          (match c.c_trace with
          | Some tr -> Dift_obs.Trace.span tr ~cat:"core" "engine.batch" body
          | None -> body ());
          let dt = now_ns () - t0 in
          k.busy_ns <- k.busy_ns + dt;
          k.on_busy dt
        in
        let t0 = now_ns () in
        Fun.protect ~finally:(fun () ->
            k.wall_ns <- now_ns () - t0;
            k.on_wall k.wall_ns)
        @@ fun () ->
        (* one shard owns every location: no roles to play *)
        let f, advance =
          match c.c_filter with
          | None when one -> ((fun v -> E.process_view w.eng v), None)
          | None -> (handle_view w, None)
          | Some lf ->
              (* publish per event (after processing), advance the
                 shard's epoch per batch: the filter's soundness
                 relies on exactly this order *)
              let sh = E.shadow w.eng in
              let live l = tainted (E.Sh.get sh l) in
              (* generation reset: republish this shard's live taint
                 (shard shadows are disjoint under request/reply and
                 identical under broadcast, so the union over slots is
                 exactly the live taint) *)
              let repopulate () =
                E.Sh.fold
                  (fun loc d () ->
                    if tainted d then Livefilter.publish_loc lf loc)
                  sh ()
              in
              ( (fun v ->
                  if one then E.process_view w.eng v else handle_view w v;
                  Livefilter.publish lf ~tainted:live v),
                Some
                  (fun ~last_step ->
                    Livefilter.advance ~repopulate lf ~slot:s ~step:last_step)
              )
        in
        (* one shard resumes a degraded run after its last fully
           processed batch, so the cutoff advances at batch ends *)
        let after_batch =
          if not one then advance
          else
            Some
              (fun ~last_step ->
                c.c_cutoff <- last_step;
                match advance with Some g -> g ~last_step | None -> ())
        in
        let drain () =
          Channel.drain ~around_batch ?after_batch c.chans.(s) ~f
        in
        try
          match c.c_trace with
          | Some tr ->
              Dift_obs.Trace.span tr ~cat:"parallel" "helper.drain" drain
          | None -> drain ()
        with ex ->
          (* unblock the application and every peer shard before
             dying, so the failure cascades instead of wedging *)
          Channel.abort c.chans.(s);
          abort_xchg c.c_xchg;
          (match c.c_flight with
          | Some fl ->
              Dift_obs.Flight.record fl ~cat:"run" (role ^ ".crash") ~a:s
                ~detail:(Printexc.to_string ex)
          | None -> ());
          raise ex)

  let start c =
    let n = Array.length c.workers in
    let doms = Array.make n None in
    (try
       for s = 0 to n - 1 do
         (* armed from here until the body's first instruction: a
            domain that never gets scheduled is a watchable seam *)
         (match c.c_spawn_legs.(s) with
         | Some l -> Dift_obs.Progress.enter l
         | None -> ());
         match spawn_one c s c.workers.(s) with
         | d -> doms.(s) <- Some d
         | exception ex ->
             (* the body never ran, so it cannot disarm the leg *)
             (match c.c_spawn_legs.(s) with
             | Some l -> Dift_obs.Progress.leave l
             | None -> ());
             raise ex
       done
     with ex ->
       (* a later shard failed to spawn: tear the channels down so the
          shards already running terminate, join them, and surface one
          structured failure — no leaked domain, no partial cluster *)
       Array.iter Channel.abort c.chans;
       abort_xchg c.c_xchg;
       Array.iter
         (function
           | Some d -> ( try Domain.join d with _ -> ())
           | None -> ())
         doms;
       raise (Spawn_failure ex));
    c.domains <- Array.map Option.get doms

  (* An injected failure during a trailing flush must not leak
     domains: close every channel anyway (a second close of the one
     that raised is a quiet no-op flush + ring close, since the raising
     flush already detached its batch), then re-raise. *)
  let close_feed c =
    if not c.c_closed then begin
      c.c_closed <- true;
      match Array.iter Channel.close c.chans with
      | () -> ()
      | exception ex ->
          Array.iter
            (fun ch ->
              try Channel.close ch
              with _ -> ( try Channel.close ch with _ -> Channel.abort ch))
            c.chans;
          raise ex
    end

  (* Feeder crash mid-event: a cross-shard event may have reached only
     some of its participants, leaving the home shard parked against a
     provide leg that will never come.  Tear down the feed rings *and*
     the mesh so every shard terminates (normal drain end or a clean
     [Shard_dead] cascade) and the joins in {!finish_result} return. *)
  let abort c =
    Array.iter Channel.abort c.chans;
    abort_xchg c.c_xchg

  let finish_result c =
    let feed_exn =
      match close_feed c with () -> None | exception ex -> Some ex
    in
    let exns =
      Array.mapi
        (fun s d ->
          let join () =
            match c.c_join_legs.(s) with
            | None -> Domain.join d
            | Some l ->
                Dift_obs.Progress.enter l;
                Fun.protect
                  ~finally:(fun () -> Dift_obs.Progress.leave l)
                  (fun () -> Domain.join d)
          in
          match join () with
          | () -> None
          | exception ex -> Some (s, ex))
        c.domains
    in
    c.domains <- [||];
    let dead = List.filter_map Fun.id (Array.to_list exns) in
    match (dead, feed_exn) with
    | [], None -> Ok (merge c.workers)
    | _ ->
        (* prefer the original failure over the Shard_dead cascade it
           triggered in the other shards *)
        let primary =
          match List.find_opt (fun (_, e) -> e <> Shard_dead) dead with
          | Some (_, e) -> e
          | None -> (
              match feed_exn with Some ex -> ex | None -> Shard_dead)
        in
        Error { f_primary = primary; f_shards = dead }

  let resume c =
    if Array.length c.workers = 1 then (c.c_cutoff, c.workers.(0))
    else
      let w = c.c_solo () in
      let keep = c.workers.(0).record_sinks in
      w.record_sinks <- keep;
      w.sink_events <- keep;
      (-1, w)

  let shard_stats c =
    Array.mapi
      (fun s w ->
        let ch = c.chans.(s) in
        {
          shard = s;
          fed = Channel.events ch;
          handled = Channel.consumed_events ch;
          batches = Channel.batches ch;
          dropped_batches = Channel.dropped_batches ch;
          dropped_events = Channel.dropped_events ch;
          discarded_batches = Channel.discarded_batches ch;
          discarded_events = Channel.discarded_events ch;
          busy_ns = c.clocks.(s).busy_ns;
          wall_ns = c.clocks.(s).wall_ns;
          producer_stalls = Channel.producer_stalls ch;
          consumer_waits = Channel.consumer_waits ch;
          exchange_sent = w.sent;
          exchange_received = w.received;
        })
      c.workers

  (* A stream run records every sink, as {!sequential} does, so
     the two compare sink by sink. *)
  let run_stream ?policy ?route ?queue_capacity ?batch_size ?xchg_capacity
      ?wire ?filter ~shards program events =
    let c =
      cluster ?policy ?route ?queue_capacity ?batch_size ?xchg_capacity ?wire
        ?filter ~shards program
    in
    record_sink_events c;
    start c;
    List.iter (feed c) events;
    match finish_result c with Ok m -> m | Error f -> raise f.f_primary
end
