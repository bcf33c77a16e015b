(** The forwarding-plane switch: one producer/consumer surface over
    either wire, so the runtimes pick the encoding with a constructor
    and nothing downstream changes.  See the interface. *)

open Dift_vm

type wire = [ `Boxed | `Coded ]

let pp_wire ppf (w : wire) =
  Fmt.string ppf (match w with `Boxed -> "boxed" | `Coded -> "coded")

type t =
  | Boxed of Event.exec Forwarder.t
  | Coded of Codec.t

let wire = function Boxed _ -> `Boxed | Coded _ -> `Coded

(* The boxed wire ships the event's record: the cached one when a tool
   or a fan-out already built it, otherwise one built for this channel
   alone. *)
let add_view t v =
  match t with
  | Boxed f -> Forwarder.add f (Event.view_record v)
  | Coded c -> Codec.feed_view c v

let add t e =
  match t with Boxed f -> Forwarder.add f e | Coded c -> Codec.feed c e

let flush = function Boxed f -> Forwarder.flush f | Coded c -> Codec.flush c
let close = function Boxed f -> Forwarder.close f | Coded c -> Codec.close c
let abort = function Boxed f -> Forwarder.abort f | Coded c -> Codec.abort c

let aborted = function
  | Boxed f -> Forwarder.aborted f
  | Coded c -> Codec.aborted c

let drain ?around_batch ?after_batch t ~f =
  match t with
  | Coded c -> Codec.drain ?around_batch ?after_batch c ~f
  | Boxed fwd ->
      (* decode-free wire: refill one scratch view per event.  After a
         batch the view still holds the batch's last event, which is
         where [after_batch] reads its step. *)
      let v = Event.view_blank () in
      let around_batch =
        match after_batch with
        | None -> around_batch
        | Some g ->
            let around = Option.value around_batch ~default:(fun k -> k ()) in
            Some
              (fun k ->
                around k;
                g ~last_step:v.Event.v_step)
      in
      Forwarder.drain ?around_batch fwd ~f:(fun (e : Event.exec) ->
          Event.view_fill v e;
          f v)

let events = function
  | Boxed f -> Forwarder.events f
  | Coded c -> Codec.events c

let batches = function
  | Boxed f -> Forwarder.batches f
  | Coded c -> Codec.batches c

let dropped_batches = function
  | Boxed f -> Forwarder.dropped_batches f
  | Coded c -> Codec.dropped_batches c

let dropped_events = function
  | Boxed f -> Forwarder.dropped_events f
  | Coded c -> Codec.dropped_events c

let discarded_batches = function
  | Boxed f -> Forwarder.discarded_batches f
  | Coded c -> Codec.discarded_batches c

let discarded_events = function
  | Boxed f -> Forwarder.discarded_events f
  | Coded c -> Codec.discarded_events c

let consumed_batches = function
  | Boxed f -> Forwarder.consumed_batches f
  | Coded c -> Codec.consumed_batches c

let consumed_events = function
  | Boxed f -> Forwarder.consumed_events f
  | Coded c -> Codec.consumed_events c

let producer_stalls = function
  | Boxed f -> Forwarder.producer_stalls f
  | Coded c -> Codec.producer_stalls c

let consumer_waits = function
  | Boxed f -> Forwarder.consumer_waits f
  | Coded c -> Codec.consumer_waits c

let in_flight_batches = function
  | Boxed f -> Forwarder.in_flight_batches f
  | Coded c -> Codec.in_flight_batches c

(** Build a channel of the requested wire with shared geometry.  The
    coded wire's [events_per_batch] is the boxed wire's [batch_size],
    so both buffer [queue_capacity * batch_size] events. *)
let create ?obs ?trace ?flight ?chaos ?progress ?escalate ?ns ~wire
    ~queue_capacity ~batch_size ~table () =
  match wire with
  | `Boxed ->
      Boxed
        (Forwarder.create ?obs ?trace ?flight ?chaos ?progress ?escalate ?ns
           ~queue_capacity ~batch_size ())
  | `Coded ->
      Coded
        (Codec.create ?obs ?trace ?flight ?chaos ?progress ?escalate ?ns
           ~queue_capacity ~events_per_batch:batch_size
           ~table:(Lazy.force table) ())
