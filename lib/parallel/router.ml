(** Sharding topology for the N-helper runtime; see the interface.

    Everything here is pure arithmetic over the integer {!Loc}
    encoding, so the application domain and every helper domain can
    evaluate the same routing function on the same event and agree on
    the verdict without sharing any state. *)

open Dift_vm

type t = { shards : int }

(* 2^6 = 64 locations per block = exactly [Reg.count], so a whole
   register frame is one block and plain ALU traffic (reads and write
   inside one activation) stays on one shard; consecutive frames, and
   consecutive 64-word memory blocks, round-robin across shards. *)
let default_block_bits = 6

(* Participant sets are int bitmasks, one bit per shard. *)
let max_shards = Sys.int_size - 2

let create ~shards () =
  if shards < 1 then
    invalid_arg (Fmt.str "Router.create: shards = %d < 1" shards);
  if shards > max_shards then
    invalid_arg
      (Fmt.str "Router.create: shards = %d > %d" shards max_shards);
  { shards }

let shards t = t.shards

(* [Loc] packs the plane tag in bit 0 (mem: [a lsl 1]; reg:
   [idx lsl 1 lor 1]), so [loc lsr 1] recovers the per-plane index.
   Both planes share the block ring; a shard owns locations from both. *)
let shard_of_loc t loc = (loc lsr 1) lsr default_block_bits mod t.shards

let owns t shard loc = shard_of_loc t loc = shard

(* The home shard executes the engine transfer function for the event:
   the owner of the first write if any (it keeps most stores local),
   else the owner of the first read (sink-only events such as [Br] and
   [Sys Write] evaluate where their operand taint lives), else a
   step-round-robin shard for events touching no tracked location.
   Views are read in place, so the feeding domain (the machine's view)
   and a draining shard (its decoded view) reach the same verdict for
   the same event. *)
let home_of_view t (v : Event.view) =
  if v.Event.v_nwrites > 0 then shard_of_loc t v.Event.v_writes.(0)
  else if v.Event.v_nreads > 0 then shard_of_loc t v.Event.v_reads.(0)
  else v.Event.v_step mod t.shards

let mask_of_arr t arr n =
  let m = ref 0 in
  for i = 0 to n - 1 do
    m := !m lor (1 lsl shard_of_loc t arr.(i))
  done;
  !m

let participants_view t (v : Event.view) =
  (1 lsl home_of_view t v)
  lor mask_of_arr t v.Event.v_reads v.Event.v_nreads
  lor mask_of_arr t v.Event.v_writes v.Event.v_nwrites

(* The record form takes a fresh view rather than a scratch one: a
   router is a pure value that every domain of a run shares. *)
let participants t e = participants_view t (Event.view_of_exec e)

let is_local mask = mask land (mask - 1) = 0

(* Iterate the set bits of a participant mask in ascending shard
   order — the canonical leg order the deadlock-freedom argument in
   [docs/forwarding-protocol.md] relies on. *)
let iter_shards mask f =
  let m = ref mask in
  let s = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then f !s;
    incr s;
    m := !m lsr 1
  done
