(** The forwarding plane (paper §2.1): one feed ring per helper, over
    either wire; see the interface for the protocol.

    A ring slot carries one batch of the wire's own type: a
    {!Codec.batch} on the coded wire, a record batch (an
    {!Dift_vm.Event.exec} array plus a fill length) on the boxed one.
    The batch hands the consumer its length, so a partial batch (the
    trailing one at {!close}, or a {!flush}) costs no [Array.sub]
    copy.  The consumer empties each batch before its next pop, and
    the producer reopens its own shipped batches once the consumer is
    past them, so in steady state forwarding allocates no batch.
    Emptying a boxed batch overwrites its consumed slots, so it does
    not keep its records alive, and promoted, until they are
    refilled. *)

open Dift_vm

type wire = [ `Boxed | `Coded ]

let default_queue_capacity = 16
let default_batch_size = 256

let pp_wire ppf (w : wire) =
  Fmt.string ppf (match w with `Boxed -> "boxed" | `Coded -> "coded")

(* -- the feed ring, generic in the batch type -------------------------- *)

type 'b feed = {
  ring : 'b Spsc.t;
  shipped : 'b Queue.t;
      (** batches whose push landed and that are not yet reopened,
          oldest first (producer side) *)
  probe : Probe.feed;  (** the feed ring's seam *)
  batch_size : int;  (** events in a full batch *)
  length : 'b -> int;  (** events a batch carries *)
  fresh : unit -> 'b;  (** a new, empty batch *)
  clear : 'b -> unit;  (** empty a spent batch for reuse *)
  mutable cur : 'b option;  (** the open batch, producer side *)
  mutable events : int;
  mutable batches : int;  (** batches actually enqueued on the ring *)
  mutable dropped_batches : int;
      (** producer-side losses: post-abort pushes and the batch in
          hand at an injected push crash (written only by the producer
          domain) *)
  mutable dropped_events : int;
  mutable discarded_batches : int;
      (** consumer-side losses: batches popped but not processed
          (the batch in hand at a crash and the post-abort sweep; written
          only by the consumer) *)
  mutable discarded_events : int;
  mutable consumed_batches : int;
      (** batches fully processed by {!drain} (written only by the
          consumer) *)
  mutable consumed_events : int;
}

let feed_counts q : Probe.counts =
  {
    events = q.events;
    batches = q.batches;
    dropped_batches = q.dropped_batches;
    dropped_events = q.dropped_events;
    discarded_batches = q.discarded_batches;
    discarded_events = q.discarded_events;
    consumed_batches = q.consumed_batches;
    consumed_events = q.consumed_events;
    producer_stalls = Spsc.producer_stalls q.ring;
    consumer_waits = Spsc.consumer_waits q.ring;
    in_flight_batches = Spsc.length q.ring;
  }

let feed ~probe ~ns ~queue_capacity ~batch_size ~length ~fresh ~clear =
  let probe = Probe.feed probe ~ns in
  let ring = Probe.ring probe ~capacity:queue_capacity in
  let q =
    {
      ring;
      shipped = Queue.create ();
      probe;
      batch_size;
      length;
      fresh;
      clear;
      cur = None;
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
  Probe.publish probe ring ~batch_size (fun () -> feed_counts q);
  q

(* The batch to append to: the open one, the oldest shipped one once
   the consumer is done with it (steady state: no allocation), or a
   fresh one.  The oldest shipped batch is [j = batches - length
   shipped], and the consumer has popped [batches - length ring] of
   them.  [drain_feed] empties batch [j] before it pops [j + 1], so
   [j] is spent once [batches - length ring >= j + 2]; that [j] itself
   was popped is not enough, as the consumer may still be reading it.
   At most the ring's worth and the batch in the consumer's hand are
   in use, so [shipped] never holds more than [queue_capacity + 2]. *)
let open_batch q =
  match q.cur with
  | Some b -> b
  | None ->
      let b =
        if Queue.length q.shipped >= Spsc.length q.ring + 2 then
          Queue.pop q.shipped
        else q.fresh ()
      in
      q.cur <- Some b;
      b

(* The producer lost this batch: its events were shipped but will
   never reach the consumer. *)
let account_drop q n =
  q.dropped_batches <- q.dropped_batches + 1;
  q.dropped_events <- q.dropped_events + n;
  Probe.dropped q.probe ~events:n ~total:q.dropped_batches

(* Push the open batch, if it holds any event.  The consumer owns it
   until [open_batch] finds it spent; the next event opens another.  A
   batch whose push did not land is never reopened. *)
let ship q =
  match q.cur with
  | Some b when q.length b > 0 -> (
      q.cur <- None;
      let n = q.length b in
      q.events <- q.events + n;
      match Probe.push q.probe q.ring b ~events:n with
      | true ->
          q.batches <- q.batches + 1;
          Queue.push b q.shipped
      | false -> account_drop q n
      | exception e ->
          account_drop q n;
          raise e)
  | _ -> ()

let close_feed q =
  ship q;
  Spsc.close q.ring;
  Probe.closed q.probe ~events:q.events ~batches:q.batches

let abort_feed q = Probe.abort q.probe q.ring

(* A batch popped but not processed: the consumer-side mirror of
   [account_drop]. *)
let account_discard q b =
  let n = q.length b in
  q.discarded_batches <- q.discarded_batches + 1;
  q.discarded_events <- q.discarded_events + n;
  Probe.discarded q.probe ~events:n ~total:q.discarded_batches

(* Every popped batch, processed or discarded, is emptied before the
   next pop: the producer's [open_batch] reopens it on that. *)
let drain_feed ~around_batch q ~run =
  let discard b =
    account_discard q b;
    q.clear b
  in
  (* Close the in-flight accounting gap: [Spsc.pop] honours the abort
     flag before buffered elements, so batches already delivered when
     an abort lands would otherwise vanish from the books ([batches]
     exceeding processed events by up to the queue capacity).  After
     any abort the producer can no longer publish, so sweeping the
     buffer into the discard counters makes
     [batches = consumed + discarded (+ racing in-flight)] reconcile. *)
  let sweep () =
    if Spsc.aborted q.ring then begin
      let nb = ref 0 and ne = ref 0 in
      let rec go () =
        match Spsc.pop_remaining q.ring with
        | Some b ->
            incr nb;
            ne := !ne + q.length b;
            discard b;
            go ()
        | None -> ()
      in
      go ();
      if !nb > 0 then Probe.swept q.probe ~batches:!nb ~events:!ne
    end
  in
  let rec loop () =
    match Probe.pop q.probe q.ring with
    | None -> sweep ()
    | Some (b, crash) ->
        (try
           Option.iter raise crash;
           around_batch (fun () -> run b)
         with e ->
           (* the batch in hand is neither processed nor yet counted:
              book it before the exception escapes, or it would leave
              the accounting open *)
           discard b;
           raise e);
        let n = q.length b in
        q.consumed_batches <- q.consumed_batches + 1;
        q.consumed_events <- q.consumed_events + n;
        Probe.consumed q.probe q.ring ~events:n;
        q.clear b;
        loop ()
  in
  (* A consumer dying mid-drain must not leave the producer parked
     against a full ring: tear the ring down first, so the producer's
     outstanding and subsequent pushes become counted drops instead of
     a wedge, then sweep what was already delivered so it is counted
     too. *)
  try loop ()
  with e ->
    abort_feed q;
    sweep ();
    raise e

(* -- the two wires ------------------------------------------------------ *)

(* The boxed wire's batch: records, filled to [batch_size]. *)
type boxed = { data : Event.exec array; mutable len : int }

type t =
  | Boxed of boxed feed
  | Coded of { table : Site.table; enc : Codec.encoder; q : Codec.batch feed }

let wire = function Boxed _ -> `Boxed | Coded _ -> `Coded

(* What the boxed wire leaves in a consumed slot. *)
let no_exec = Event.view_to_exec (Event.view_blank ())

let create ?(probe = Probe.off) ?(ns = "parallel") ~wire
    ~queue_capacity ~batch_size ~table () =
  if queue_capacity < 1 then
    invalid_arg
      (Fmt.str "Channel.create: queue_capacity = %d < 1" queue_capacity);
  if batch_size < 1 then
    invalid_arg (Fmt.str "Channel.create: batch_size = %d < 1" batch_size);
  if wire = `Coded && batch_size > Codec.max_batch_size then
    Fmt.invalid_arg "Channel.create: coded batch_size = %d > %d" batch_size
      Codec.max_batch_size;
  match wire with
  | `Boxed ->
      Boxed
        (feed ~probe ~ns ~queue_capacity ~batch_size
           ~length:(fun b -> b.len)
           ~fresh:(fun () -> { data = Array.make batch_size no_exec; len = 0 })
           ~clear:(fun b ->
             Array.fill b.data 0 b.len no_exec;
             b.len <- 0))
  | `Coded ->
      let table = Lazy.force table in
      Coded
        {
          table;
          enc = Codec.encoder table;
          q =
            feed ~probe ~ns ~queue_capacity ~batch_size
              ~length:Codec.batch_length
              ~fresh:(fun () ->
                Codec.batch_create ~events_per_batch:batch_size)
              ~clear:Codec.batch_clear;
        }

let add t e =
  match t with
  | Boxed q ->
      let b = open_batch q in
      b.data.(b.len) <- e;
      b.len <- b.len + 1;
      if b.len = q.batch_size then ship q
  | Coded { enc; q; _ } ->
      let b = open_batch q in
      Codec.encode enc b e;
      if b.Codec.b_n = q.batch_size then ship q

(* The boxed wire ships the event's record: the cached one when a tool
   or a fan-out already built it, otherwise one built for this channel
   alone.  The coded wire encodes the view in place. *)
let add_view t v =
  match t with
  | Boxed _ -> add t (Event.view_record v)
  | Coded { enc; q; _ } ->
      let b = open_batch q in
      Codec.encode_view enc b v;
      if b.Codec.b_n = q.batch_size then ship q

let flush = function Boxed q -> ship q | Coded { q; _ } -> ship q
let close = function Boxed q -> close_feed q | Coded { q; _ } -> close_feed q
let abort = function Boxed q -> abort_feed q | Coded { q; _ } -> abort_feed q

let counts = function
  | Boxed q -> feed_counts q
  | Coded { q; _ } -> feed_counts q

(* Both wires refill one scratch view per event; after a batch it
   holds the batch's last event, which is where [after_batch] reads
   its step. *)
let drain ?(around_batch = fun k -> k ())
    ?(after_batch = fun ~last_step:_ -> ()) t ~f =
  let v = Event.view_blank () in
  match t with
  | Coded { table; q; _ } ->
      drain_feed ~around_batch q ~run:(fun b ->
          Codec.decode_batch table b v f;
          after_batch ~last_step:v.Event.v_step)
  | Boxed q ->
      drain_feed ~around_batch q ~run:(fun b ->
          for i = 0 to b.len - 1 do
            Event.view_fill v (Array.unsafe_get b.data i);
            f v
          done;
          after_batch ~last_step:v.Event.v_step)
