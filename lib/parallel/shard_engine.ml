(** Per-shard DIFT workers and the cross-shard exchange protocol; see
    the interface for the architecture and
    [docs/forwarding-protocol.md] for the protocol and its
    deadlock-freedom argument. *)

open Dift_vm
open Dift_core

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

let default_xchg_capacity = 256

(* The sink trace and the shadow fingerprint: one well-mixed integer
   per sink observation or shadow entry, folded by addition.  The sum
   is order-independent, so shards fold their own and the merge adds
   them up; the step inside each observation keeps the trace's order
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
    seams : Probe.exchange array array;  (** each ring's seam *)
    journals : msg list ref array array option;
        (** consumed messages per ring, newest first; written only by
            each ring's consumer domain *)
  }

  let create_xchg ?(capacity = default_xchg_capacity) ?(journal = false)
      ?(probe = Probe.off) ~shards () =
    if capacity < 1 then
      invalid_arg "Shard_engine.create_xchg: capacity < 1";
    let seams =
      Array.init shards (fun src ->
          Array.init shards (fun dst -> Probe.exchange probe ~src ~dst))
    in
    {
      rings = Array.map (Array.map (Probe.exchange_ring ~capacity)) seams;
      seams;
      journals =
        (if journal then
           Some
             (Array.init shards (fun _ ->
                  Array.init shards (fun _ -> ref [])))
         else None);
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
    x : xchg;
    eng : E.t;
    mutable transfer : Event.view -> unit;
        (** the engine's per-event function, behind the run's
            instruments once {!instrument} wired them *)
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
  }

  let worker ?policy ~router ~xchg ~record_sinks ~shard program =
    let policy = Option.value policy ~default:Policy.default in
    if policy.Policy.propagate_control && Router.shards router > 1 then
      invalid_arg
        "Shard_engine: propagate_control entangles every event through \
         per-thread control state and cannot be sharded exactly; run it \
         on one shard";
    let eng = E.create ~policy program in
    (* wall-clock runtime: modelled-cycle charging is meaningless here *)
    E.set_charge eng ignore;
    let w =
      {
        w_shard = shard;
        router;
        x = xchg;
        eng;
        transfer = E.process_view eng;
        sink_hash = 0;
        sinks = [];
        record_sinks;
        sink_events = false;
        sent = 0;
        received = 0;
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
  let transfer w = w.transfer

  let instrument probe ~owner w =
    w.transfer <-
      Probe.engine probe ~owner ~stats:(E.stats w.eng)
        ~shadow_footprint:(fun () -> E.shadow_footprint w.eng)
        (E.process_view w.eng)

  let exchange_sent w = w.sent
  let exchange_received w = w.received

  (* An injected fault on the mesh crashes this shard (see {!Probe});
     a pop that finds the mesh aborted is the [Shard_dead] cascade. *)
  let push_x w ~dst m =
    Probe.exchange_push w.x.seams.(w.w_shard).(dst) w.x.rings m;
    w.sent <- w.sent + 1

  let pop_x w ~src =
    match Probe.exchange_pop w.x.seams.(src).(w.w_shard) w.x.rings with
    | None -> raise Shard_dead
    | Some m ->
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
     provider's read-taint vector and [set] it in place, run the
     engine's transfer function (sinks, stats, policy handling and
     write stamping all behave exactly as in the sequential engine), then
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
    w.transfer v;
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
    let mask = Router.participants_view w.router v in
    if Router.is_local mask then w.transfer v
    else begin
      let home = Router.home_of_view w.router v in
      if home = w.w_shard then handle_home w v else handle_assist w v ~home
    end

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

  (* A taint as {!entry_hash}'s integer: itself for Bool. *)
  let taint_code : D.t -> int =
    match D.as_bool with
    | Some Taint.Refl -> Bool.to_int
    | None -> Hashtbl.hash

  (* {!entry_hash} summed over every (loc, taint) entry of every shard:
     shards own disjoint location sets, so the sum is the sequential
     shadow's whatever the partition and the fold order. *)
  let fingerprint_of ws =
    Array.fold_left
      (fun acc w ->
        E.Sh.fold
          (fun loc d acc -> acc + entry_hash loc (taint_code d))
          (E.shadow w.eng) acc)
      0 ws

  (* Every event has one home shard, so the disjoint shards add up. *)
  let merge ws =
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

  (* One worker alone: a one-shard router and no mesh, so every event
     is local and [handle_view] is [transfer]. *)
  let solo ?policy ~record_sinks program =
    worker ?policy ~router:(Router.create ~shards:1 ())
      ~xchg:(create_xchg ~shards:0 ()) ~record_sinks ~shard:0 program

  (* -- a cluster: workers + inbound rings + helper domains ------------- *)

  type cluster = {
    c_xchg : xchg;
    workers : worker array;
    chans : Channel.t array;
    c_filter : Livefilter.t option;
    helpers : Probe.helper array;
        (** each helper's lifecycle seam: spawn, drain, clocks, join *)
    c_solo : unit -> worker;  (** a fresh worker, for {!resume} *)
    mutable c_feed : Event.view -> unit;
    mutable c_cutoff : int;
        (** one shard: step of the last event of the last batch the
            helper fully processed ([-1] = none); written by the
            helper, read after the join *)
    mutable c_closed : bool;
    mutable domains : unit Domain.t array;
    cross : int ref;
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

  (* Route one admitted event to its participant shards.  A cross-shard
     event for several boxed channels gets its record built once,
     cached in the view, so that every channel ships the same one. *)
  let route_view c ~router ~boxed v =
    let mask = Router.participants_view router v in
    if Router.is_local mask then add_mask c.chans v mask 0
    else begin
      if boxed then ignore (Event.view_to_exec v : Event.exec);
      add_mask c.chans v mask 0;
      incr c.cross;
      (* flush every participant: no copy of a cross-shard event may
         sit in an open batch while a peer shard blocks awaiting one of
         its exchange legs *)
      flush_mask c.chans mask 0
    end

  let cluster ?policy ?(probe = Probe.off)
      ?(queue_capacity = Channel.default_queue_capacity)
      ?(batch_size = Channel.default_batch_size)
      ?(xchg_capacity = default_xchg_capacity)
      ?(wire = `Coded) ?filter ~shards program =
    let router = Router.create ~shards () in
    (* One shard has nothing to route or exchange: no mesh, and the
       names of the two-domain runtime, since that is what it is. *)
    let one = shards = 1 in
    let xchg =
      create_xchg ~capacity:xchg_capacity ~probe
        ~shards:(if one then 0 else shards)
        ()
    in
    let workers =
      Array.init shards (fun s ->
          worker ?policy ~router ~xchg ~record_sinks:false ~shard:s program)
    in
    let ns s = if one then "parallel" else Fmt.str "parallel.shard%d" s in
    (* one interned site table, shared by every coded shard channel *)
    let table = lazy (Site.of_program program) in
    let chans =
      Array.init shards (fun s ->
          Channel.create ~probe ~ns:(ns s) ~wire ~queue_capacity ~batch_size
            ~table ())
    in
    (* engine milestones land on whichever domain drains the shard; one
       helper's engine also owns the engine-level metrics and samples
       its shadow footprint on its track *)
    Array.iter (instrument probe ~owner:one) workers;
    let cross = ref 0 in
    let c =
      {
        c_xchg = xchg;
        workers;
        chans;
        c_filter = filter;
        helpers =
          Probe.helpers probe ~shards
            ~sent:(fun s -> workers.(s).sent)
            ~cross:(fun () -> !cross);
        c_solo = (fun () -> solo ?policy ~record_sinks:false program);
        c_feed = ignore;
        c_cutoff = -1;
        c_closed = false;
        domains = [||];
        cross;
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
    Array.iteri
      (fun s ch ->
        Probe.on_miss probe ~name:(ns s) (fun () -> Channel.abort ch))
      chans;
    if not one then
      Probe.on_miss probe ~name:"xchg" (fun () -> abort_xchg xchg);
    c

  let cross_events c = !(c.cross)

  let exchange_messages c =
    Array.fold_left (fun acc w -> acc + w.sent) 0 c.workers

  let record_sink_events c =
    Array.iter
      (fun w ->
        w.record_sinks <- true;
        w.sink_events <- true)
      c.workers

  let feed_view c = c.c_feed

  let spawn_one c s w =
    let one = Array.length c.workers = 1 and h = c.helpers.(s) in
    Probe.spawn h @@ fun () ->
    (* one shard owns every location: no roles to play.  N shards tick
       the work pulse per view, which keeps legitimately parked peers
       from tripping the watchdog while this shard computes *)
    let process =
      if one then w.transfer
      else fun v ->
        Probe.work h;
        handle_view w v
    in
    let f, advance =
      match c.c_filter with
      | None -> (process, None)
      | Some lf ->
          (* publish per event (after processing), advance the shard's
             epoch per batch: the filter's soundness relies on exactly
             this order *)
          let sh = E.shadow w.eng in
          let live l = tainted (E.Sh.get sh l) in
          (* generation reset: republish this shard's live taint (shard
             shadows are disjoint, so the union over slots is exactly
             the live taint) *)
          let repopulate () =
            E.Sh.fold
              (fun loc d () -> if tainted d then Livefilter.publish_loc lf loc)
              sh ()
          in
          ( (fun v ->
              process v;
              Livefilter.publish lf ~tainted:live v),
            Some
              (fun ~last_step ->
                Livefilter.advance ~repopulate lf ~slot:s ~step:last_step) )
    in
    (* one shard resumes a degraded run after its last fully processed
       batch, so the cutoff advances at batch ends *)
    let after_batch =
      if not one then advance
      else
        Some
          (fun ~last_step ->
            c.c_cutoff <- last_step;
            match advance with Some g -> g ~last_step | None -> ())
    in
    try
      Probe.drain h (fun ~around_batch ->
          Channel.drain ~around_batch ?after_batch c.chans.(s) ~f)
    with ex ->
      (* unblock the application and every peer shard before dying, so
         the failure cascades instead of wedging *)
      Channel.abort c.chans.(s);
      abort_xchg c.c_xchg;
      Probe.crash h ex;
      raise ex

  let start c =
    let n = Array.length c.workers in
    let doms = Array.make n None in
    (try
       for s = 0 to n - 1 do
         doms.(s) <- Some (spawn_one c s c.workers.(s))
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
          match Probe.join c.helpers.(s) d with
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
        let k = Channel.counts c.chans.(s) and h = c.helpers.(s) in
        {
          shard = s;
          fed = k.events;
          handled = k.consumed_events;
          batches = k.batches;
          dropped_batches = k.dropped_batches;
          dropped_events = k.dropped_events;
          discarded_batches = k.discarded_batches;
          discarded_events = k.discarded_events;
          busy_ns = Probe.busy_ns h;
          wall_ns = Probe.wall_ns h;
          producer_stalls = k.producer_stalls;
          consumer_waits = k.consumer_waits;
          exchange_sent = w.sent;
          exchange_received = w.received;
        })
      c.workers
end
