(** The forwarding-plane switch: one producer/consumer surface over
    either wire, so the runtimes pick the encoding with a constructor
    and nothing downstream changes.  See the interface. *)

open Dift_vm

type wire = [ `Boxed | `Coded ]

let default_queue_capacity = 16
let default_batch_size = 256

let pp_wire ppf (w : wire) =
  Fmt.string ppf (match w with `Boxed -> "boxed" | `Coded -> "coded")

(* The coded wire: {!Codec} batches over a forwarder. *)
type coded = {
  table : Site.table;
  enc : Codec.encoder;
  fwd : Codec.batch Forwarder.t;
      (** [batch_size = 1]: one ring slot per encoded batch, event
          accounting in {!Forwarder.add_n} weights; its free list
          brings decoded batches back for reuse *)
  events_per_batch : int;
  mutable cur : Codec.batch option;  (** producer side *)
}

type t =
  | Boxed of Event.exec Forwarder.t
  | Coded of coded

let wire = function Boxed _ -> `Boxed | Coded _ -> `Coded

(* What the boxed wire leaves in a consumed slot: a recycled batch
   must not keep its records alive (and promoted) until refilled. *)
let no_exec = Event.view_to_exec (Event.view_blank ())

(** Build a channel of the requested wire with shared geometry.  The
    coded wire's [events_per_batch] is the boxed wire's [batch_size],
    so both buffer [queue_capacity * batch_size] events. *)
let create ?probe ?escalate ?ns ~wire ~queue_capacity ~batch_size ~table () =
  match wire with
  | `Boxed ->
      Boxed
        (Forwarder.create ?probe ?escalate ~blank:no_exec ?ns ~queue_capacity
           ~batch_size ())
  | `Coded ->
      if batch_size < 1 then
        invalid_arg (Fmt.str "Channel.create: batch_size = %d < 1" batch_size);
      let table = Lazy.force table in
      Coded
        {
          table;
          enc = Codec.encoder table;
          fwd =
            Forwarder.create ?probe ?escalate ?ns ~queue_capacity
              ~batch_size:1 ();
          events_per_batch = batch_size;
          cur = None;
        }

(* The open batch: the current one, the lanes a recycled ring slot
   still holds (steady state — the lanes cycle, no allocation), or a
   fresh set of lanes.  The free list and its [ring.free.<ns>] chaos
   seam are the forwarder's own. *)
let open_cur c =
  match c.cur with
  | Some b -> b
  | None ->
      let b =
        match Forwarder.reusable c.fwd with
        | Some b ->
            Codec.batch_clear b;
            b
        | None -> Codec.batch_create ~events_per_batch:c.events_per_batch
      in
      c.cur <- Some b;
      b

(* batch_size = 1: the batch lands on the ring immediately, weighted
   by its event count *)
let ship c =
  match c.cur with
  | Some b when b.Codec.b_n > 0 ->
      c.cur <- None;
      Forwarder.add_n c.fwd b b.Codec.b_n
  | _ -> ()

let ship_full c b = if b.Codec.b_n = c.events_per_batch then ship c

(* The boxed wire ships the event's record: the cached one when a tool
   or a fan-out already built it, otherwise one built for this channel
   alone.  The coded wire encodes the view in place. *)
let add_view t v =
  match t with
  | Boxed f -> Forwarder.add f (Event.view_record v)
  | Coded c ->
      let b = open_cur c in
      Codec.encode_view c.enc b v;
      ship_full c b

let add t e =
  match t with
  | Boxed f -> Forwarder.add f e
  | Coded c ->
      let b = open_cur c in
      Codec.encode c.enc b e;
      ship_full c b

let flush = function Boxed f -> Forwarder.flush f | Coded c -> ship c

let close = function
  | Boxed f -> Forwarder.close f
  | Coded c ->
      ship c;
      Forwarder.close c.fwd

let abort = function
  | Boxed f -> Forwarder.abort f
  | Coded c -> Forwarder.abort c.fwd

let counts = function
  | Boxed f -> Forwarder.counts f
  | Coded c -> Forwarder.counts c.fwd

let drain ?around_batch ?(after_batch = fun ~last_step:_ -> ()) t ~f =
  match t with
  | Coded c ->
      let v = Event.view_blank () in
      Forwarder.drain ?around_batch c.fwd ~f:(fun b ->
          Codec.decode_batch c.table b v f;
          (* the view holds the batch's last event *)
          if b.Codec.b_n > 0 then after_batch ~last_step:v.Event.v_step)
  | Boxed fwd ->
      (* decode-free wire: refill one scratch view per event.  After a
         batch the view still holds the batch's last event, which is
         where [after_batch] reads its step. *)
      let v = Event.view_blank () in
      let around = Option.value around_batch ~default:(fun k -> k ()) in
      Forwarder.drain
        ~around_batch:(fun k ->
          around k;
          after_batch ~last_step:v.Event.v_step)
        fwd
        ~f:(fun (e : Event.exec) ->
          Event.view_fill v e;
          f v)
