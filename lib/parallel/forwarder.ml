(** Batched event forwarding over the {!Spsc} ring (paper §2.1); see
    the interface for the protocol.

    A ring slot carries a [batch] record — a backing array plus a fill
    length — rather than a bare array, so a partial flush (the trailing
    batch at {!close}) hands the consumer its length instead of paying
    an [Array.sub] copy.  Drained batch records come back to the
    producer over a second, never-blocking {!Spsc} ring (the free
    list), so in steady state the forwarder allocates nothing per
    batch: the backing arrays cycle producer → consumer → producer.
    A recycled array keeps its element references until overwritten,
    bounded by [(queue_capacity + 2) * batch_size] elements.

    The channel is polymorphic in the element type: the boxed wire
    forwards {!Dift_vm.Event.exec} records, and the coded wire
    ({!Codec}) forwards encoded batches, one per slot. *)

type 'a batch = {
  mutable data : 'a array;  (** [[||]] until the first element *)
  mutable len : int;
  mutable weight : int;
      (** logical events carried: [len] for plain element streams,
          the sum of {!add_n} weights when each element is itself an
          encoded multi-event batch (the de-boxed codec) — all event
          accounting (drops, discards, consumption) is in weights *)
}

type 'a t = {
  ring : 'a batch Spsc.t;
  free : 'a batch Spsc.t;  (** drained records coming back for reuse *)
  batch_size : int;
  no_batch : 'a batch;
      (** the no-open-batch marker: physically unique per channel,
          never pushed *)
  mutable cur : 'a batch;  (** [no_batch] when no batch is open *)
  mutable events : int;
  mutable batches : int;  (** batches actually enqueued on the ring *)
  mutable dropped_batches : int;
      (** producer-side losses: post-abort pushes and injected push
          failures (written only by the producer domain) *)
  mutable dropped_events : int;
  mutable discarded_batches : int;
      (** consumer-side losses: batches popped but not processed
          (injected pop failures and the post-abort sweep; written
          only by the consumer) *)
  mutable discarded_events : int;
  mutable consumed_batches : int;
      (** batches fully processed by {!drain} (written only by the
          consumer) *)
  mutable consumed_events : int;
  chaos : Chaos.inst option;
      (** fault-injection seam; [None] is the direct Spsc path *)
  chaos_free : Chaos.inst option;
      (** fault-injection seam on the free-list ring (namespace
          [ring.free.<ns>], targeted rules only): recycling is
          load-bearing for the codec's preallocated batches, so its
          degradation legs are schedulable too.  Free-ring faults
          never lose events — a failed pop allocates fresh, a failed
          push lets the record fall to the GC. *)
  occupancy : Dift_obs.Registry.histogram option;
      (** elements per pushed batch, when observability is on *)
  trace : Dift_obs.Trace.t option;
      (** execution timeline: enqueue/stall and dequeue/wait spans
          plus the ring-occupancy counter track *)
  flight : Dift_obs.Flight.t option;
      (** flight recorder: one bounded event per channel op on the
          acting domain's ring *)
  f_ns : string;  (** metric namespace, doubles as the flight category *)
  push_prog : Dift_obs.Progress.leg option;
      (** [<ns>.push]: armed while parked on a full ring, ticked per
          delivered batch *)
  pop_prog : Dift_obs.Progress.leg option;
      (** [<ns>.pop]: armed while parked on an empty ring, ticked per
          consumed batch *)
}

(* Power-of-two occupancy buckets up to the batch size: a full batch
   lands in the last real bucket, so the overflow bucket staying at
   zero is itself an invariant check. *)
let occupancy_buckets batch_size =
  let rec up acc b = if b >= batch_size then List.rev (batch_size :: acc)
    else up (b :: acc) (b * 2)
  in
  up [] 1

let create ?obs ?trace ?flight ?chaos ?progress ?(escalate = false)
    ?(ns = "parallel") ~queue_capacity ~batch_size () =
  if queue_capacity < 1 then
    invalid_arg
      (Fmt.str "Forwarder.create: queue_capacity = %d < 1" queue_capacity);
  if batch_size < 1 then
    invalid_arg (Fmt.str "Forwarder.create: batch_size = %d < 1" batch_size);
  let push_prog, pop_prog =
    match progress with
    | None -> (None, None)
    | Some p ->
        ( Some (Dift_obs.Progress.leg p (ns ^ ".push")),
          Some (Dift_obs.Progress.leg p (ns ^ ".pop")) )
  in
  let ring =
    Spsc.create ?push_leg:push_prog ?pop_leg:pop_prog
      ~capacity:queue_capacity ()
  in
  (* + 2: room for the in-flight record on each side on top of the
     ring's worth, so recycling (almost) never falls through to GC.
     No progress legs: the free ring never blocks (try_pop/try_push
     only), so there is no seam to watch. *)
  let free = Spsc.create ~capacity:(queue_capacity + 2) () in
  let occupancy =
    Option.map
      (fun reg ->
        let open Dift_obs in
        let n suffix = ns ^ suffix in
        Registry.gauge_fn reg (n ".ring.capacity_batches")
          ~help:"ring slots" (fun () -> Spsc.capacity ring);
        Registry.gauge_fn reg (n ".ring.stalls")
          ~help:"producer blocked on a full ring" (fun () ->
            Spsc.producer_stalls ring);
        Registry.gauge_fn reg (n ".ring.waits")
          ~help:"consumer blocked on an empty ring" (fun () ->
            Spsc.consumer_waits ring);
        Registry.gauge_fn reg (n ".ring.drops")
          ~help:"batches dropped after abort" (fun () -> Spsc.dropped ring);
        Registry.histogram reg (n ".forwarder.batch_occupancy")
          ~help:"events per pushed batch"
          ~buckets:(occupancy_buckets batch_size))
      obs
  in
  let no_batch = { data = [||]; len = 0; weight = 0 } in
  let t =
    {
      ring;
      free;
      batch_size;
      no_batch;
      cur = no_batch;
      events = 0;
      batches = 0;
      dropped_batches = 0;
      dropped_events = 0;
      discarded_batches = 0;
      discarded_events = 0;
      consumed_batches = 0;
      consumed_events = 0;
      chaos = Option.map (fun c -> Chaos.instance ~escalate c ~ns) chaos;
      chaos_free =
        Option.map
          (fun c ->
            Chaos.instance ~targeted_only:true c ~ns:("ring.free." ^ ns))
          chaos;
      occupancy;
      trace;
      flight;
      f_ns = ns;
      push_prog;
      pop_prog;
    }
  in
  (match obs with
  | Some reg ->
      let open Dift_obs in
      Registry.gauge_fn reg (ns ^ ".forwarder.events")
        ~help:"events forwarded" (fun () -> t.events);
      Registry.gauge_fn reg (ns ^ ".forwarder.batches")
        ~help:"batches delivered to the ring" (fun () -> t.batches);
      Registry.gauge_fn reg (ns ^ ".forwarder.dropped_batches")
        ~help:"batches lost on the producer side (abort/injected)"
        (fun () -> t.dropped_batches);
      Registry.gauge_fn reg (ns ^ ".forwarder.dropped_events")
        ~help:"events lost on the producer side (abort/injected)"
        (fun () -> t.dropped_events);
      Registry.gauge_fn reg (ns ^ ".forwarder.discarded_batches")
        ~help:"batches popped but not processed (injected pop failure)"
        (fun () -> t.discarded_batches);
      Registry.gauge_fn reg (ns ^ ".forwarder.discarded_events")
        ~help:"events popped but not processed (injected pop failure)"
        (fun () -> t.discarded_events);
      Registry.gauge_fn reg (ns ^ ".forwarder.consumed_batches")
        ~help:"batches fully processed by the consumer" (fun () ->
          t.consumed_batches);
      Registry.gauge_fn reg (ns ^ ".forwarder.consumed_events")
        ~help:"events fully processed by the consumer" (fun () ->
          t.consumed_events);
      Registry.gauge_fn reg (ns ^ ".ring.in_flight_batches")
        ~help:"batches delivered but not yet popped" (fun () ->
          Spsc.length t.ring)
  | None -> ());
  t

let events t = t.events
let batches t = t.batches
let producer_stalls t = Spsc.producer_stalls t.ring
let consumer_waits t = Spsc.consumer_waits t.ring
let dropped t = t.dropped_batches
let dropped_batches t = t.dropped_batches
let dropped_events t = t.dropped_events
let discarded_batches t = t.discarded_batches
let discarded_events t = t.discarded_events
let consumed_batches t = t.consumed_batches
let consumed_events t = t.consumed_events
let in_flight_batches t = Spsc.length t.ring
let aborted t = Spsc.aborted t.ring

(* One bounded flight event on the acting domain's ring; free when the
   recorder is off (one branch). *)
let flight_ev t ?(a = 0) ?(b = 0) name =
  match t.flight with
  | None -> ()
  | Some fl -> Dift_obs.Flight.record fl ~a ~b ~cat:t.f_ns name

(* Push one batch, recording the producer's side of the timeline: a
   span named [ring.stall] when the push parked on a full ring (a
   backpressure wave) and [ring.enqueue] otherwise, then a sample of
   the ring occupancy. *)
let traced_push t batch =
  match t.trace with
  | None -> Spsc.push t.ring batch
  | Some tr ->
      let open Dift_obs in
      let stalls0 = Spsc.producer_stalls t.ring in
      let t0 = Trace.now_ns tr in
      Spsc.push t.ring batch;
      let dur_ns = Trace.now_ns tr - t0 in
      let name =
        if Spsc.producer_stalls t.ring > stalls0 then "ring.stall"
        else "ring.enqueue"
      in
      Trace.complete_ns tr ~cat:"parallel" name ~start_ns:t0 ~dur_ns;
      Trace.counter tr ~cat:"parallel" "ring.occupancy"
        (Spsc.length t.ring)

(* The producer lost this batch: its elements were accepted by {!add}
   but will never reach the consumer. *)
let account_drop t b =
  t.dropped_batches <- t.dropped_batches + 1;
  t.dropped_events <- t.dropped_events + b.weight;
  flight_ev t "ring.drop" ~a:b.weight ~b:t.dropped_batches

let flush t =
  let b = t.cur in
  if b.len > 0 then begin
    (match t.occupancy with
    | Some h -> Dift_obs.Registry.observe h b.len
    | None -> ());
    (* the consumer takes ownership of the record (and its length —
       no [Array.sub] for a partial batch); open a fresh one lazily *)
    t.cur <- t.no_batch;
    (* only the producer increments [Spsc.dropped], so the delta
       around the push tells exactly whether this batch landed on the
       ring or fell to a post-abort counted drop *)
    let deliver () =
      let d0 = Spsc.dropped t.ring in
      traced_push t b;
      if Spsc.dropped t.ring > d0 then account_drop t b
      else begin
        t.batches <- t.batches + 1;
        (match t.push_prog with
        | Some l -> Dift_obs.Progress.tick l
        | None -> ());
        flight_ev t "ring.push" ~a:b.weight ~b:(Spsc.length t.ring)
      end
    in
    match t.chaos with
    | None -> deliver ()
    | Some c -> (
        match Chaos.on_push c with
        | Chaos.Proceed -> deliver ()
        | Chaos.Fail -> account_drop t b
        | Chaos.Abort_now ->
            (* the consumer side dies under us: tear the ring down,
               then let the push become a counted drop *)
            Spsc.abort t.ring;
            deliver ()
        | Chaos.Raise_now e ->
            account_drop t b;
            raise e)
  end

(* An open batch to append to: the current one, a recycled one off the
   free list (steady state — no allocation), or a fresh record.  An
   injected [ring.free.<ns>/pop] fault degrades recycling (a [Drop]
   skips the free list for this batch, an [Abort] kills the free ring
   for good, a [Raise] crashes the producer) — it never loses
   events. *)
let open_batch t =
  if t.cur != t.no_batch then t.cur
  else begin
    let pop_free () =
      match Spsc.try_pop t.free with
      | Some b ->
          b.len <- 0;
          b.weight <- 0;
          b
      | None -> { data = [||]; len = 0; weight = 0 }
    in
    let b =
      match t.chaos_free with
      | None -> pop_free ()
      | Some c -> (
          match Chaos.on_pop c with
          | Chaos.Proceed -> pop_free ()
          | Chaos.Fail -> { data = [||]; len = 0; weight = 0 }
          | Chaos.Abort_now ->
              Spsc.abort t.free;
              { data = [||]; len = 0; weight = 0 }
          | Chaos.Raise_now e -> raise e)
    in
    t.cur <- b;
    b
  end

(* The element the open batch's next slot still holds from the
   record's previous trip round the ring: a recycled record keeps its
   elements until they are overwritten. *)
let reusable t =
  let b = open_batch t in
  if b.len < Array.length b.data then Some b.data.(b.len) else None

let add t e =
  let b = open_batch t in
  if b.data == [||] then b.data <- Array.make t.batch_size e;
  b.data.(b.len) <- e;
  b.len <- b.len + 1;
  b.weight <- b.weight + 1;
  t.events <- t.events + 1;
  if b.len = t.batch_size then flush t

(* Append one element standing for [n] logical events (an encoded
   multi-event batch): every event counter on this channel moves by
   [n], while ring occupancy still moves by one slot element. *)
let add_n t e n =
  let b = open_batch t in
  if b.data == [||] then b.data <- Array.make t.batch_size e;
  b.data.(b.len) <- e;
  b.len <- b.len + 1;
  b.weight <- b.weight + n;
  t.events <- t.events + n;
  if b.len = t.batch_size then flush t

let close t =
  flush t;
  Spsc.close t.ring;
  flight_ev t "ring.close" ~a:t.events ~b:t.batches

let abort t =
  Spsc.abort t.ring;
  flight_ev t "ring.abort"

(* Pop one batch, recording the consumer's side of the timeline: a
   span named [ring.wait] when the pop parked on an empty ring (a
   helper idle episode) and [ring.dequeue] otherwise, then a sample of
   the ring occupancy. *)
let traced_pop t =
  match t.trace with
  | None -> Spsc.pop t.ring
  | Some tr ->
      let open Dift_obs in
      let waits0 = Spsc.consumer_waits t.ring in
      let t0 = Trace.now_ns tr in
      let batch = Spsc.pop t.ring in
      let dur_ns = Trace.now_ns tr - t0 in
      let name =
        if Spsc.consumer_waits t.ring > waits0 then "ring.wait"
        else "ring.dequeue"
      in
      Trace.complete_ns tr ~cat:"parallel" name ~start_ns:t0 ~dur_ns;
      Trace.counter tr ~cat:"parallel" "ring.occupancy"
        (Spsc.length t.ring);
      batch

(* A batch popped but not processed — the consumer-side loss mirror of
   [account_drop]. *)
let account_discard t b =
  t.discarded_batches <- t.discarded_batches + 1;
  t.discarded_events <- t.discarded_events + b.weight;
  flight_ev t "ring.discard" ~a:b.weight ~b:t.discarded_batches

let drain ?(around_batch = fun k -> k ()) t ~f =
  let run_batch b () =
    for i = 0 to b.len - 1 do
      f (Array.unsafe_get b.data i)
    done
  in
  (* recycle the record; if the free list is momentarily full (or an
     injected [ring.free.<ns>/push] fault fires) the record just falls
     to the GC *)
  let recycle b =
    b.len <- 0;
    b.weight <- 0;
    match t.chaos_free with
    | None -> ignore (Spsc.try_push t.free b : bool)
    | Some c -> (
        match Chaos.on_push c with
        | Chaos.Proceed -> ignore (Spsc.try_push t.free b : bool)
        | Chaos.Fail -> ()
        | Chaos.Abort_now -> Spsc.abort t.free
        | Chaos.Raise_now e -> raise e)
  in
  (* Close the in-flight accounting gap: [Spsc.pop] honours the abort
     flag before buffered elements, so batches already delivered when
     an abort lands would otherwise vanish from the books ([batches]
     exceeding processed events by up to the queue capacity).  After
     any abort the producer can no longer publish, so sweeping the
     buffer into the discard counters makes
     [batches = consumed + discarded (+ racing in-flight)] reconcile. *)
  let sweep () =
    if Spsc.aborted t.ring then begin
      let nb = ref 0 and ne = ref 0 in
      let rec go () =
        match Spsc.pop_remaining t.ring with
        | Some b ->
            incr nb;
            ne := !ne + b.weight;
            account_discard t b;
            recycle b;
            go ()
        | None -> ()
      in
      go ();
      if !nb > 0 then flight_ev t "ring.sweep" ~a:!nb ~b:!ne
    end
  in
  (* [true] = the batch was fully processed; [false] = it became a
     counted discard.  An injected raise propagates un-accounted — the
     caller's handler books the batch. *)
  let consume b =
    match t.chaos with
    | None ->
        around_batch (run_batch b);
        true
    | Some c -> (
        match Chaos.on_pop c with
        | Chaos.Proceed ->
            around_batch (run_batch b);
            true
        | Chaos.Fail ->
            account_discard t b;
            false
        | Chaos.Abort_now ->
            (* consumer gives up: the next pop sees the abort, drain
               sweeps and terminates; this batch is a counted discard *)
            Spsc.abort t.ring;
            account_discard t b;
            false
        | Chaos.Raise_now e -> raise e)
  in
  let rec loop () =
    match traced_pop t with
    | None -> sweep ()
    | Some b ->
        let processed =
          try consume b
          with e ->
            (* the batch in hand is neither processed nor yet counted:
               book it before the exception escapes, or it would leave
               the accounting open *)
            account_discard t b;
            recycle b;
            raise e
        in
        if processed then begin
          t.consumed_batches <- t.consumed_batches + 1;
          t.consumed_events <- t.consumed_events + b.weight;
          (match t.pop_prog with
          | Some l -> Dift_obs.Progress.tick l
          | None -> ());
          flight_ev t "ring.pop" ~a:b.weight ~b:(Spsc.length t.ring)
        end;
        recycle b;
        loop ()
  in
  (* A consumer dying mid-drain must not leave the producer parked
     against a full ring: tear the channel down first, so the
     producer's outstanding and subsequent pushes become counted
     drops instead of a wedge — then sweep what was already delivered
     so it is counted too. *)
  try loop ()
  with e ->
    Spsc.abort t.ring;
    sweep ();
    raise e
