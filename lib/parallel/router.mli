(** A block-interleaved partition of the location space, kept for the
    benchmark ledger only ([ledger/ledger.ml] counts how many events
    of a stream would span two or four shards).  No runtime routes
    events: the one helper tracks every location.  The module goes
    when the ledger stops calling it.

    Location [l] belongs to shard [((l lsr 1) lsr 6) mod shards]: one
    64-location block is one register frame ([Dift_isa.Reg.count]), so
    successive call frames, and successive 64-word memory blocks,
    round-robin across shards. *)

open Dift_vm

type t

(** [create ~shards ()] describes a partition into [shards] shards.
    @raise Invalid_argument if [shards < 1] or [shards] exceeds the
    bits of a participant mask. *)
val create : shards:int -> unit -> t

(** [participants t e] is the bitmask of shards involved in [e]: the
    owners of every read and write location plus the home shard (the
    owner of the first write, else of the first read, else
    [step mod shards]). *)
val participants : t -> Event.exec -> int

(** [is_local mask] — does this participant mask name exactly one
    shard? *)
val is_local : int -> bool
