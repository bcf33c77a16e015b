(** Producer-side taint-liveness filter (opt-in, [--forward-filter]):
    the application core drops events whose locations provably cannot
    intersect live taint and cannot introduce any, shrinking forwarded
    traffic on taint-sparse workloads without changing any analysis
    result.

    {b Protocol.}  Three shared arrays, all fixed-size, touched with
    plain loads/stores on the single-writer side and seq_cst atomics
    across domains:

    - [H] — a monotone {e ever-tainted} page-hash bitmap.  After
      processing an event, the consumer publishes a bit for every
      write location whose shadow is tainted (check-then-CAS-OR; bits
      are never cleared).
    - [stamps] — producer-private, per hash word: the step of the last
      forwarded event that may {e produce} taint hashing there (a
      source, or any event with live reads).
    - [epochs] — one slot per consumer: the step of the last event it
      has fully processed {e and published}, advanced after each
      batch ({!Channel.drain}'s [after_batch] hook).

    A location is {e possibly-live} iff its [H] bit is set, or its
    stamp exceeds the producer's cached minimum epoch.  An event is
    forwarded unless it is filterable (neither source nor sink, see
    {!Dift_vm.Site.filterable_instr}), has no possibly-live read, {e
    and} has no possibly-live write (an untainted write over a
    possibly-tainted location clears taint and must reach the
    helper).

    {b Soundness.}  Consumers publish [H] before advancing their
    epoch, and all cross-domain accesses are seq_cst, so when the
    producer sees [epoch >= s] every taint produced by events up to
    step [s] is visible in [H].  If a read's [H] bit is clear and its
    word's stamp is [<= min epoch], then every event that could have
    tainted it has been processed and produced no taint there — the
    read is definitely clean.  The cached minimum epoch is only ever
    {e behind} the true minimum (epochs are monotone), so staleness
    over-forwards, never over-filters.  Hash collisions likewise only
    over-forward.  Sources are always forwarded (and stamp their
    writes); sink-class events are always forwarded because the sink
    handler observes every one of them, tainted or not.  Control-plane
    taint escapes the read set, so the runtimes refuse to combine the
    filter with [propagate_control].

    {b Generation reset.}  [H] being monotone, a taint-dense phase
    saturates it for good: long after the taint is overwritten, every
    event still looks live and the filter earns nothing.  The producer
    therefore periodically {e resets} [H] at a quiescent point — every
    consumer's published epoch covers the last forwarded event, so no
    publish can be in flight and nothing fed is unprocessed.  It
    clears the bitmap, bumps a generation counter, and {e stands
    down}: until every consumer has republished the live taint of its
    shadow (the [?repopulate] callback of {!advance}, run at the next
    batch boundary) and acked the generation, {!admit} forwards
    everything and stamps every write.  Standdown only over-forwards
    and over-stamps, so soundness is untouched; after resume, pages
    whose taint has been overwritten are clean again.  A consumer that
    is never given [?repopulate] simply never acks and the filter
    stands down forever — sound, merely useless, so the runtimes
    always pass it when filtering is on.

    Filtered-vs-unfiltered runs are bit-identical in every analysis
    output; only the forwarded event count differs (reports add
    {!filtered} back so ledgers still reconcile). *)

open Dift_vm

type t

(** [create ~slots ()] — [slots] consumer epoch slots (1 for the
    two-domain runtime, one per shard for the sharded one).  The hash
    map is 1024 words of 63 page keys, one per bit of an OCaml int
    (64,512 keys), over pages of 64 locations of one plane.
    [reset_interval] (default 8192) is the number of {!admit} calls
    between generation-reset attempts; [0] disables resets (the
    pre-reset monotone behaviour).
    @raise Invalid_argument if [slots < 1] or [reset_interval < 0]. *)
val create : ?reset_interval:int -> slots:int -> unit -> t

(** {1 Producer side} *)

(** [admit_view t v] decides whether to forward the event in [v],
    updating stamps and the filtered count (site class from
    {!Dift_vm.Site.filterable_instr}).  Reads [v] in place: the
    runtimes call it on the machine's live view. *)
val admit_view : t -> Event.view -> bool

(** {!admit_view} over a boxed record (filled into a scratch view). *)
val admit : t -> Event.exec -> bool

(** Events dropped so far (producer-side counter). *)
val filtered : t -> int

(** Completed bitmap clears so far (producer-side counter). *)
val resets : t -> int

(** Whether the filter is currently standing down (bitmap cleared,
    waiting for every slot's repopulation ack).  Producer side. *)
val reset_pending : t -> bool

(** The current generation (atomic; readable from any domain).  Starts
    at [0]; bumped once per reset. *)
val generation : t -> int

(** {1 Consumer side} *)

(** Publish the ever-tainted bit of each of [v]'s write locations
    whose shadow is tainted ([tainted] is the consumer engine's shadow
    lookup).  Call after processing [v]. *)
val publish : t -> tainted:(Loc.t -> bool) -> Event.view -> unit

(** Publish one location's ever-tainted bit directly — the building
    block for a generation-reset repopulation dump (fold the shadow,
    publish every tainted location). *)
val publish_loc : t -> Loc.t -> unit

(** Advance consumer [slot]'s epoch to [step] (monotone; call after
    {!publish} for every event of the batch ending at [step]).

    [?repopulate], when given, serves the generation-reset protocol:
    if a reset has happened since this slot last acked, the callback
    must publish ({!publish} or equivalent) {e every} location
    currently tainted in this consumer's shadow; the slot then acks
    the generation.  It runs at most once per reset and only at this
    batch boundary, so the dump sees a consistent shadow. *)
val advance : ?repopulate:(unit -> unit) -> t -> slot:int -> step:int -> unit
