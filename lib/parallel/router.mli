(** Event routing for the sharded N-helper runtime
    ({!Parallel.run_sharded_result}).

    The shadow address space is partitioned across helper shards by
    {e block interleaving} the integer {!Dift_vm.Loc} encoding: location
    [l] belongs to shard
    [((l lsr 1) lsr default_block_bits) mod shards].  The block of
    [2{^6} = 64] locations matches
    [Dift_isa.Reg.count], so one register frame — one activation's
    registers — lives entirely on one shard, successive call frames
    round-robin across shards, and memory is striped in 64-word
    blocks.

    A router value is a pure description: [shard_of_loc], [home_of_view]
    and [participants] are arithmetic on the event alone, so the
    application domain (routing) and every helper domain (deciding its
    own role in a cross-shard event) evaluate the same function
    independently and always agree.  No state is shared; this is the
    "routing key" of [docs/forwarding-protocol.md]. *)

open Dift_vm

type t

(** Block size exponent: [6], i.e. 64-location blocks aligned with
    the register-frame size. *)
val default_block_bits : int

(** Largest supported shard count (participant sets are one-word
    bitmasks). *)
val max_shards : int

(** [create ~shards ()] describes a partition of the location space
    into [shards] interleaved shards of
    [2{^default_block_bits}]-location blocks.
    @raise Invalid_argument if [shards < 1] or [shards > max_shards]. *)
val create : shards:int -> unit -> t

(** Number of shards in the partition. *)
val shards : t -> int

(** [shard_of_loc t l] is the shard owning location [l]. *)
val shard_of_loc : t -> Loc.t -> int

(** [owns t s l] is [shard_of_loc t l = s]. *)
val owns : t -> int -> Loc.t -> bool

(** [participants t e] is the bitmask of shards involved in [e]: the
    owners of every read and write location plus the home shard.  A
    one-bit mask means the event is purely local to that shard. *)
val participants : t -> Event.exec -> int

(** [home_of_view t v] is the shard that executes the engine transfer
    function for the event in [v]: the owner of the first write when
    it writes (keeping stores local), else the owner of the first read
    (sink-only events evaluate where their operand taint lives), else
    [step mod shards].  The view is read in place — the machine's view
    on the feeding domain, a decoded one on a shard — so both agree on
    the verdict for the same event. *)
val home_of_view : t -> Event.view -> int

(** {!participants} over an {!Event.view}, read in place. *)
val participants_view : t -> Event.view -> int

(** [is_local mask] — does this participant mask name exactly one
    shard? *)
val is_local : int -> bool

(** [iter_shards mask f] applies [f] to each set bit of [mask] in
    ascending shard order — the canonical leg order of the cross-shard
    protocol. *)
val iter_shards : int -> (int -> unit) -> unit
