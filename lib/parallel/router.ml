(** Block-interleaved partition of the location space; see the
    interface.  Pure arithmetic over the integer {!Loc} encoding. *)

open Dift_vm

type t = { shards : int }

(* 2^6 = 64 locations per block = exactly [Reg.count], so a whole
   register frame is one block; consecutive frames, and consecutive
   64-word memory blocks, round-robin across shards. *)
let block_bits = 6

(* Participant sets are int bitmasks, one bit per shard. *)
let max_shards = Sys.int_size - 2

let create ~shards () =
  if shards < 1 then
    invalid_arg (Fmt.str "Router.create: shards = %d < 1" shards);
  if shards > max_shards then
    invalid_arg
      (Fmt.str "Router.create: shards = %d > %d" shards max_shards);
  { shards }

(* [Loc] packs the plane tag in bit 0 (mem: [a lsl 1]; reg:
   [idx lsl 1 lor 1]), so [loc lsr 1] recovers the per-plane index.
   Both planes share the block ring. *)
let shard_of_loc t loc = (loc lsr 1) lsr block_bits mod t.shards

(* The home shard: the owner of the first write if any, else of the
   first read, else a step-round-robin shard. *)
let home t (v : Event.view) =
  if v.Event.v_nwrites > 0 then shard_of_loc t v.Event.v_writes.(0)
  else if v.Event.v_nreads > 0 then shard_of_loc t v.Event.v_reads.(0)
  else v.Event.v_step mod t.shards

let mask_of_arr t arr n =
  let m = ref 0 in
  for i = 0 to n - 1 do
    m := !m lor (1 lsl shard_of_loc t arr.(i))
  done;
  !m

let participants t e =
  let v = Event.view_of_exec e in
  (1 lsl home t v)
  lor mask_of_arr t v.Event.v_reads v.Event.v_nreads
  lor mask_of_arr t v.Event.v_writes v.Event.v_nwrites

let is_local mask = mask land (mask - 1) = 0
