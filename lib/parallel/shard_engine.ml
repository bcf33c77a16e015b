(** The DIFT worker and the helper domain that runs it; see the
    interface for the architecture and [docs/forwarding-protocol.md]
    for the channel protocol. *)

open Dift_vm
open Dift_core

type shard_stat = {
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
}

exception Spawn_failure of exn

type failure = { f_primary : exn; f_helper : bool }

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

module Make (D : Taint.DOMAIN) = struct
  module E = Engine.Make (D)

  (* [not (D.is_bottom t)], without a call through the functor
     parameter for the Bool domain: the sink hook and the filter's
     publication run it per event on the helper. *)
  let tainted (t : D.t) : bool =
    match D.as_bool with Some Taint.Refl -> t | None -> not (D.is_bottom t)

  type worker = {
    eng : E.t;
    mutable transfer : Event.view -> unit;
        (** the engine's per-event function, behind the run's
            instruments once {!instrument} wired them *)
    mutable sink_hash : int;
        (** {!sink_hash} summed over the worker's sink observations *)
    mutable sinks : (int * Engine.sink * D.t * Event.exec option) list;
        (** newest first; kept only while [record_sinks] *)
    mutable record_sinks : bool;
    mutable sink_events : bool;
        (** with [record_sinks], keep each sink's event record too (for
            a client sink callback) *)
  }

  let solo ?policy ~record_sinks program =
    let policy = Option.value policy ~default:Policy.default in
    let eng = E.create ~policy program in
    (* wall-clock runtime: modelled-cycle charging is meaningless here *)
    E.set_charge eng ignore;
    let w =
      {
        eng;
        transfer = E.process_view eng;
        sink_hash = 0;
        sinks = [];
        record_sinks;
        sink_events = false;
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

  let instrument probe w =
    w.transfer <-
      Probe.engine probe ~stats:(E.stats w.eng)
        ~shadow_footprint:(fun () -> E.shadow_footprint w.eng)
        (E.process_view w.eng)

  (* -- results ---------------------------------------------------------- *)

  type summary = {
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

  let summary w =
    let s = E.stats w.eng and locations, words = E.shadow_footprint w.eng in
    {
      m_events = s.Engine.events;
      m_sources = s.Engine.sources;
      m_sink_hits = s.Engine.sink_hits;
      m_sink_hash = w.sink_hash;
      (* the worker processes events in step order *)
      m_sinks = List.rev w.sinks;
      m_tainted_locations = locations;
      m_shadow_words = words;
      m_fingerprint =
        E.Sh.fold
          (fun loc d acc -> acc + entry_hash loc (taint_code d))
          (E.shadow w.eng) 0;
    }

  (* -- the helper: a worker, its channel and its domain ----------------- *)

  type cluster = {
    worker : worker;
    chan : Channel.t;
    filter : Livefilter.t option;
    helper : Probe.helper;  (** spawn, drain, clocks, join *)
    feed : Event.view -> unit;
    mutable cutoff : int;
        (** step of the last event of the last batch the helper fully
            processed ([-1] = none); written by the helper, read after
            the join *)
    mutable closed : bool;
    mutable domain : unit Domain.t option;
  }

  let cluster ?policy ?(probe = Probe.off)
      ?(queue_capacity = Channel.default_queue_capacity)
      ?(batch_size = Channel.default_batch_size) ?(wire = `Coded) ?filter
      program =
    let chan =
      Channel.create ~probe ~wire ~queue_capacity ~batch_size
        ~table:(lazy (Site.of_program program))
        ()
    in
    let worker = solo ?policy ~record_sinks:false program in
    instrument probe worker;
    (* the cascade hook: aborting the channel unparks both sides *)
    Probe.on_miss probe ~name:"parallel" (fun () -> Channel.abort chan);
    {
      worker;
      chan;
      filter;
      helper = Probe.helper probe;
      feed =
        (match filter with
        | None -> Channel.add_view chan
        | Some lf ->
            fun v -> if Livefilter.admit_view lf v then Channel.add_view chan v);
      cutoff = -1;
      closed = false;
      domain = None;
    }

  let record_sink_events c =
    c.worker.record_sinks <- true;
    c.worker.sink_events <- true;
    Channel.forward_sink_values c.chan

  let feed_view c = c.feed

  let start c =
    let w = c.worker and h = c.helper in
    let transfer = w.transfer in
    (* the cutoff advances at batch ends, so a degraded run resumes
       after the last fully processed batch *)
    let f, after_batch =
      match c.filter with
      | None -> (transfer, fun ~last_step -> c.cutoff <- last_step)
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
          ( (fun v ->
              transfer v;
              Livefilter.publish lf ~tainted:live v),
            fun ~last_step ->
              c.cutoff <- last_step;
              Livefilter.advance ~repopulate lf ~slot:0 ~step:last_step )
    in
    let body () =
      try
        Probe.drain h (fun ~around_batch ->
            Channel.drain ~around_batch ~after_batch c.chan ~f)
      with ex ->
        (* unblock the application before dying, so the failure
           surfaces at the join instead of wedging *)
        Channel.abort c.chan;
        Probe.crash h ex;
        raise ex
    in
    match Probe.spawn h body with
    | d -> c.domain <- Some d
    | exception ex ->
        Channel.abort c.chan;
        raise (Spawn_failure ex)

  (* An injected failure during the trailing flush must not leak the
     domain: close the channel anyway (a second close is a quiet no-op
     flush + ring close, since the raising flush already emptied its
     batch), then re-raise. *)
  let close_feed c =
    if not c.closed then begin
      c.closed <- true;
      try Channel.close c.chan
      with ex ->
        (try Channel.close c.chan with _ -> Channel.abort c.chan);
        raise ex
    end

  let abort c = Channel.abort c.chan

  let finish_result c =
    let feed_exn =
      match close_feed c with () -> None | exception ex -> Some ex
    in
    let helper_exn =
      match c.domain with
      | None -> None
      | Some d -> (
          c.domain <- None;
          match Probe.join c.helper d with
          | () -> None
          | exception ex -> Some ex)
    in
    match (helper_exn, feed_exn) with
    | None, None -> Ok (summary c.worker)
    | Some ex, _ -> Error { f_primary = ex; f_helper = true }
    | None, Some ex -> Error { f_primary = ex; f_helper = false }

  let resume c = (c.cutoff, c.worker)

  let shard_stat c =
    let k = Channel.counts c.chan and h = c.helper in
    {
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
    }
end
