(** Sparse word-addressed memory with a bump heap allocator.

    Addresses below {!heap_base} form the static/global region, freely
    usable by programs.  [Sys Alloc] hands out blocks from the heap
    region and remembers their extents, which lets applications reason
    about heap overflows and lets the avoidance framework pad
    allocations (an "environment patch" in the paper's sense). *)

type block = { base : int; size : int; mutable live : bool }

type t = {
  cells : (int, int) Hashtbl.t;
  blocks : (int, block) Hashtbl.t;  (** keyed by base address *)
  mutable next : int;  (** bump pointer *)
  padding : int;  (** extra slack appended to every allocation *)
}

(** First heap address; everything below is the global region. *)
let heap_base = 1_000_000

let create ?(padding = 0) () =
  { cells = Hashtbl.create 4096; blocks = Hashtbl.create 64;
    next = heap_base; padding }

(* [find] and a handler rather than [find_opt]: no option per read. *)
let read m addr =
  match Hashtbl.find m.cells addr with v -> v | exception Not_found -> 0

let write m addr v =
  if v = 0 then Hashtbl.remove m.cells addr else Hashtbl.replace m.cells addr v

let alloc m size =
  let size = max size 1 in
  let base = m.next in
  (* Padding is slack owned by the block: small overflows land in it
     harmlessly instead of in the neighbour — the avoidance
     framework's heap patch. *)
  let padded = size + m.padding in
  m.next <- m.next + padded + 1;
  Hashtbl.replace m.blocks base { base; size = padded; live = true };
  base

(** [free m base] releases a block; [Error] when [base] is not the
    base address of a live block. *)
let free m base =
  match Hashtbl.find_opt m.blocks base with
  | Some b when b.live ->
      b.live <- false;
      Ok ()
  | Some _ | None -> Error `Invalid_free

(** The live block containing [addr], if any. *)
let block_of m addr =
  (* Linear scan is fine: workloads allocate at most a few thousand
     blocks, and this is only used off the hot path (bounds checking,
     overflow diagnosis). *)
  Hashtbl.fold
    (fun _ b acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if b.live && addr >= b.base && addr < b.base + b.size then Some b
          else None)
    m.blocks None

let in_heap m addr = addr >= heap_base && addr < m.next

(** Number of addresses currently holding a non-zero value. *)
let footprint m = Hashtbl.length m.cells

(** Deep copy, for checkpointing. *)
let snapshot m =
  {
    cells = Hashtbl.copy m.cells;
    blocks =
      (let t = Hashtbl.create (Hashtbl.length m.blocks) in
       Hashtbl.iter (fun k b -> Hashtbl.replace t k { b with base = b.base })
         m.blocks;
       t);
    next = m.next;
    padding = m.padding;
  }
