(** A bounded single-producer/single-consumer channel — the software
    incarnation of the core-to-core forwarding queue of paper §2.1.

    Ring buffer with atomic head/tail.  Only the consumer writes
    [head]; only the producer writes [tail]; each side reads the
    other's index atomically, which is what publishes the slot
    contents (plain writes to [buf] happen-before the index bump that
    makes them visible).  The mutex guards nothing but the parking
    protocol: a side that must block sets its [*_waiting] flag and
    re-checks the full/empty condition while holding the lock, and the
    opposite side broadcasts under the same lock, so no wakeup can be
    lost between the re-check and the wait.

    Slots hold the element representation directly with a unique
    sentinel block marking "empty" — not ['a option] — so a push does
    not allocate a [Some] box per element.  [Obj.t] (rather than a
    ['a] array with a magicked sentinel) keeps the buffer a pointer
    array even when ['a] is [float], which would otherwise be flattened
    into a flat float array the sentinel cannot inhabit. *)

(* The empty-slot marker: physically unique, never escapes. *)
let empty_slot : Obj.t = Obj.repr (ref ())

type 'a t = {
  buf : Obj.t array;
  cap : int;
  head : int Atomic.t;  (** next slot to pop; written by the consumer *)
  tail : int Atomic.t;  (** next slot to push; written by the producer *)
  closed : bool Atomic.t;
  aborted : bool Atomic.t;
  lock : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  producer_waiting : bool Atomic.t;
  consumer_waiting : bool Atomic.t;
  stalls : int Atomic.t;  (** incremented by the producer *)
  drops : int Atomic.t;  (** incremented by the producer *)
  waits : int Atomic.t;  (** incremented by the consumer *)
  push_leg : Dift_obs.Progress.leg option;
      (** armed while the producer is parked on a full ring *)
  pop_leg : Dift_obs.Progress.leg option;
      (** armed while the consumer is parked on an empty ring *)
}

let create ?push_leg ?pop_leg ~capacity () =
  if capacity < 1 then invalid_arg "Spsc.create: capacity < 1";
  {
    buf = Array.make capacity empty_slot;
    cap = capacity;
    head = Atomic.make 0;
    tail = Atomic.make 0;
    closed = Atomic.make false;
    aborted = Atomic.make false;
    lock = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    producer_waiting = Atomic.make false;
    consumer_waiting = Atomic.make false;
    stalls = Atomic.make 0;
    drops = Atomic.make 0;
    waits = Atomic.make 0;
    push_leg;
    pop_leg;
  }

(* Arm [leg] for the duration of [f] — parity-balanced even if [f]
   raises, so a leg can never be left armed by a crashing side. *)
let armed leg f =
  match leg with
  | None -> f ()
  | Some l ->
      Dift_obs.Progress.enter l;
      Fun.protect ~finally:(fun () -> Dift_obs.Progress.leave l) f

let capacity t = t.cap
let length t = max 0 (Atomic.get t.tail - Atomic.get t.head)
let producer_stalls t = Atomic.get t.stalls
let consumer_waits t = Atomic.get t.waits
let dropped t = Atomic.get t.drops
let closed t = Atomic.get t.closed
let aborted t = Atomic.get t.aborted

let signal_locked t cond =
  Mutex.lock t.lock;
  Condition.broadcast cond;
  Mutex.unlock t.lock

(* How long a side spins before parking on the condition variable.
   When producer and consumer are rate-matched the ring oscillates
   around empty/full, and parking on every oscillation costs a wake
   syscall per batch; a short spin absorbs those oscillations so the
   slow path is reserved for genuinely lopsided rates.  On a machine
   without a second core to spin on (recommended_domain_count = 1),
   spinning only steals time from the domain we are waiting for, so
   both sides park immediately. *)
let spin_budget =
  if Domain.recommended_domain_count () > 1 then 2048 else 0

(* Spin while [cond] holds, up to the budget; true if it still holds
   (caller should park). *)
let spin_while cond =
  let i = ref 0 in
  while !i < spin_budget && cond () do
    Domain.cpu_relax ();
    incr i
  done;
  cond ()

(* Publish [x] at [tl] and wake the consumer if parked. *)
let store_and_publish t tl x =
  t.buf.(tl mod t.cap) <- Obj.repr x;
  Atomic.set t.tail (tl + 1);
  if Atomic.get t.consumer_waiting then signal_locked t t.not_empty

(* Park the producer until the ring has room or the consumer aborted.
   The progress leg is armed only here, on the park path, so the
   common non-blocking push pays nothing for the watchdog. *)
let wait_not_full t tl =
  armed t.push_leg @@ fun () ->
  Mutex.lock t.lock;
  Atomic.incr t.stalls;
  Atomic.set t.producer_waiting true;
  while
    (not (Atomic.get t.aborted)) && tl - Atomic.get t.head >= t.cap
  do
    Condition.wait t.not_full t.lock
  done;
  Atomic.set t.producer_waiting false;
  Mutex.unlock t.lock

let push t x =
  if Atomic.get t.closed then invalid_arg "Spsc.push: closed channel";
  if Atomic.get t.aborted then Atomic.incr t.drops
  else begin
    let tl = Atomic.get t.tail in
    if
      tl - Atomic.get t.head >= t.cap
      && spin_while (fun () ->
             (not (Atomic.get t.aborted))
             && tl - Atomic.get t.head >= t.cap)
    then wait_not_full t tl;
    if Atomic.get t.aborted then Atomic.incr t.drops
    else store_and_publish t tl x
  end

let close t =
  Atomic.set t.closed true;
  signal_locked t t.not_empty

let abort_first t =
  let first = not (Atomic.exchange t.aborted true) in
  signal_locked t t.not_full;
  signal_locked t t.not_empty;
  first

let abort t = ignore (abort_first t : bool)

(* Park the consumer until an element arrives or the channel closes.
   Progress leg armed on the park path only, as in [wait_not_full]. *)
let wait_not_empty t =
  armed t.pop_leg @@ fun () ->
  Mutex.lock t.lock;
  Atomic.incr t.waits;
  Atomic.set t.consumer_waiting true;
  while
    Atomic.get t.tail = Atomic.get t.head
    && (not (Atomic.get t.closed))
    && not (Atomic.get t.aborted)
  do
    Condition.wait t.not_empty t.lock
  done;
  Atomic.set t.consumer_waiting false;
  Mutex.unlock t.lock

(* Take the element at [h]; the slot is reset to the sentinel so the
   ring does not retain the element until the slot is overwritten. *)
let take t h =
  let slot = h mod t.cap in
  let x : 'a = Obj.obj t.buf.(slot) in
  t.buf.(slot) <- empty_slot;
  Atomic.set t.head (h + 1);
  if Atomic.get t.producer_waiting then signal_locked t t.not_full;
  x

let rec pop t =
  let h = Atomic.get t.head in
  if Atomic.get t.aborted then None
  else if Atomic.get t.tail - h > 0 then Some (take t h)
  else if Atomic.get t.closed then
    (* a final element may have landed between the emptiness check and
       the closed check *)
    if Atomic.get t.tail - h > 0 then pop t else None
  else begin
    if
      spin_while (fun () ->
          Atomic.get t.tail = Atomic.get t.head
          && (not (Atomic.get t.closed))
          && not (Atomic.get t.aborted))
    then wait_not_empty t;
    pop t
  end

(* Unlike [pop], ignores the aborted flag: after an abort
   the producer never publishes again (pushes turn into counted
   drops), so the elements still buffered are exactly the ones that
   were delivered but will never be consumed — the sweep that lets
   the forwarder books reconcile instead of losing up to [capacity]
   batches uncounted. *)
let pop_remaining t =
  let h = Atomic.get t.head in
  if Atomic.get t.tail - h > 0 then Some (take t h) else None
