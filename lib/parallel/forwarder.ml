(** Batched event forwarding over the {!Spsc} ring (paper §2.1); see
    the interface for the protocol.

    A ring slot carries a [batch] record — a backing array plus a fill
    length — rather than a bare array, so a partial flush (the trailing
    batch at {!close}) hands the consumer its length instead of paying
    an [Array.sub] copy.  Drained batch records come back to the
    producer over a second, never-blocking {!Spsc} ring (the free
    list), so in steady state the forwarder allocates nothing per
    batch: the backing arrays cycle producer → consumer → producer.
    A recycled array keeps its element references until overwritten
    unless the channel has a [blank] to clear them with: the boxed
    wire's records would otherwise stay alive, up to
    [(queue_capacity + 2) * batch_size] of them, and be promoted.

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

type counts = Probe.counts = {
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

type 'a t = {
  ring : 'a batch Spsc.t;
  free : 'a batch Spsc.t;  (** drained records coming back for reuse *)
  probe : Probe.feed;  (** the feed ring's seam and its free ring's *)
  batch_size : int;
  blank : 'a option;  (** overwrites consumed slots *)
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
}

let counts t =
  {
    events = t.events;
    batches = t.batches;
    dropped_batches = t.dropped_batches;
    dropped_events = t.dropped_events;
    discarded_batches = t.discarded_batches;
    discarded_events = t.discarded_events;
    consumed_batches = t.consumed_batches;
    consumed_events = t.consumed_events;
    producer_stalls = Spsc.producer_stalls t.ring;
    consumer_waits = Spsc.consumer_waits t.ring;
    in_flight_batches = Spsc.length t.ring;
  }

let create ?(probe = Probe.off) ?(escalate = false) ?blank ?(ns = "parallel")
    ~queue_capacity ~batch_size () =
  if queue_capacity < 1 then
    invalid_arg
      (Fmt.str "Forwarder.create: queue_capacity = %d < 1" queue_capacity);
  if batch_size < 1 then
    invalid_arg (Fmt.str "Forwarder.create: batch_size = %d < 1" batch_size);
  let probe = Probe.feed probe ~escalate ~ns in
  let ring = Probe.ring probe ~capacity:queue_capacity in
  let no_batch = { data = [||]; len = 0; weight = 0 } in
  let t =
    {
      ring;
      (* + 2: room for the in-flight record on each side on top of the
         ring's worth, so recycling (almost) never falls through to
         GC.  No progress legs: the free ring never blocks. *)
      free = Spsc.create ~capacity:(queue_capacity + 2) ();
      probe;
      batch_size;
      blank;
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
    }
  in
  Probe.publish probe ring ~batch_size (fun () -> counts t);
  t

(* The producer lost this batch: its elements were accepted by {!add}
   but will never reach the consumer. *)
let account_drop t b =
  t.dropped_batches <- t.dropped_batches + 1;
  t.dropped_events <- t.dropped_events + b.weight;
  Probe.dropped t.probe ~weight:b.weight ~total:t.dropped_batches

let flush t =
  let b = t.cur in
  if b.len > 0 then begin
    (* the consumer takes ownership of the record (and its length —
       no [Array.sub] for a partial batch); open a fresh one lazily *)
    t.cur <- t.no_batch;
    match Probe.push t.probe t.ring b ~len:b.len ~weight:b.weight with
    | Probe.Proceed -> t.batches <- t.batches + 1
    | Probe.Fail | Probe.Abort_now -> account_drop t b
    | Probe.Raise_now e ->
        account_drop t b;
        raise e
  end

(* An open batch to append to: the current one, a recycled one off the
   free list (steady state — no allocation), or a fresh record.  An
   injected [ring.free.<ns>/pop] fault degrades recycling (see
   {!Probe}) — it never loses events. *)
let open_batch t =
  if t.cur != t.no_batch then t.cur
  else begin
    let b =
      match Probe.take_free t.probe t.free with
      | Some b ->
          b.len <- 0;
          b.weight <- 0;
          b
      | None -> { data = [||]; len = 0; weight = 0 }
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
  Probe.closed t.probe ~events:t.events ~batches:t.batches

let abort t = Probe.abort t.probe t.ring

(* A batch popped but not processed — the consumer-side loss mirror of
   [account_drop]. *)
let account_discard t b =
  t.discarded_batches <- t.discarded_batches + 1;
  t.discarded_events <- t.discarded_events + b.weight;
  Probe.discarded t.probe ~weight:b.weight ~total:t.discarded_batches

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
    (match t.blank with Some x -> Array.fill b.data 0 b.len x | None -> ());
    b.len <- 0;
    b.weight <- 0;
    Probe.give_free t.probe t.free b
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
      if !nb > 0 then Probe.swept t.probe ~batches:!nb ~events:!ne
    end
  in
  let rec loop () =
    match Probe.pop t.probe t.ring with
    | None -> sweep ()
    | Some (b, verdict) ->
        (match verdict with
        | Probe.Proceed ->
            (try around_batch (run_batch b)
             with e ->
               (* the batch in hand is neither processed nor yet
                  counted: book it before the exception escapes, or
                  it would leave the accounting open *)
               account_discard t b;
               recycle b;
               raise e);
            t.consumed_batches <- t.consumed_batches + 1;
            t.consumed_events <- t.consumed_events + b.weight;
            Probe.consumed t.probe t.ring ~weight:b.weight
        | Probe.Fail | Probe.Abort_now -> account_discard t b
        | Probe.Raise_now e ->
            account_discard t b;
            recycle b;
            raise e);
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
    abort t;
    sweep ();
    raise e
