(** The outcome wire; see the interface for the format.

    Layout notes.  A {!batch} is an outcome lane (a Load's or Store's
    address, a [Read]'s input index, and packed [Br] taken bits,
    interleaved in event order) and a growable cut area.  Both sides
    carry the same chain state from event to event: the implied site
    (the last site's successor), the last step, the tid and the
    current activation frame.  An event that agrees with the chain
    writes only its outcome; any other one writes a cut record of the
    fields that disagree.  The encoder checks every implied field
    against the live event, so decode is exact by construction, not by
    trust.  Neither side allocates per event. *)

open Dift_isa
open Dift_vm

(* -- the cut record ----------------------------------------------------- *)

(* A cut record is [(event index lsl mask_bits) lor mask; the fields
   the mask names, in bit order; then, under [o_sets], nreads,
   nwrites, reads.., writes..]. *)
let o_site = 1
let o_step = 2
let o_tid = 4
let o_frame = 8
let o_next = 16
let o_input = 32
let o_addr = 64
let o_value = 128
let o_sets = 256
let mask_bits = 9
let mask_of head = head land ((1 lsl mask_bits) - 1)

(* The number of fields a mask names below a field's bit: its offset
   past the record's mask. *)
let popcount =
  let rec count x = if x = 0 then 0 else (x land 1) + count (x lsr 1) in
  Bytes.init o_sets (fun m -> Char.chr (count m))

let[@inline] field ovf at mask bit default =
  if mask land bit = 0 then default
  else
    Array.unsafe_get ovf
      (at + Char.code (Bytes.unsafe_get popcount (mask land (bit - 1))))

(* Taken bits per outcome-lane word. *)
let bits_per_word = Sys.int_size

(* The header word: [b_n]. *)
let header_words = 1

(* -- batches ------------------------------------------------------------ *)

type cursor = {
  mutable c_i : int;  (** the next event to expand *)
  mutable c_site : int;  (** its implied site *)
  mutable c_step : int;  (** the last expanded event's step *)
  mutable c_tid : int;
  mutable c_frame : int;
  mutable c_lane : int;  (** the next outcome word *)
  mutable c_bits : int;  (** the lane index of the open taken-bit word *)
  mutable c_bit : int;  (** its next bit; [bits_per_word]: none open *)
  mutable c_cut : int;  (** the offset of the next cut record *)
}

type batch = {
  b_desc : int array;
  mutable b_ovf : int array;
  mutable b_n : int;
  mutable b_ovf_n : int;
  mutable b_lane_n : int;
  mutable b_cuts : int;
  mutable b_verbatim : int;
  b_get : cursor;
}

(* The chain state before a batch's first event: no site is implied,
   so that event is always a cut. *)
let restart c =
  c.c_i <- 0;
  c.c_site <- -1;
  c.c_step <- -1;
  c.c_tid <- 0;
  c.c_frame <- 0;
  c.c_lane <- 0;
  c.c_bits <- 0;
  c.c_bit <- bits_per_word;
  c.c_cut <- 0

let cursor () =
  let c =
    {
      c_i = 0;
      c_site = 0;
      c_step = 0;
      c_tid = 0;
      c_frame = 0;
      c_lane = 0;
      c_bits = 0;
      c_bit = 0;
      c_cut = 0;
    }
  in
  restart c;
  c

let batch_create ~events_per_batch =
  if events_per_batch < 1 then
    Fmt.invalid_arg "Codec.batch_create: events_per_batch = %d < 1"
      events_per_batch;
  {
    b_desc = Array.make events_per_batch 0;
    b_ovf = Array.make 64 0;
    b_n = 0;
    b_ovf_n = 0;
    b_lane_n = 0;
    b_cuts = 0;
    b_verbatim = 0;
    b_get = cursor ();
  }

let batch_length b = b.b_n
let batch_words b = header_words + b.b_lane_n + b.b_ovf_n

let batch_clear b =
  b.b_n <- 0;
  b.b_ovf_n <- 0;
  b.b_lane_n <- 0;
  b.b_cuts <- 0;
  b.b_verbatim <- 0;
  restart b.b_get

(* -- encoding ----------------------------------------------------------- *)

type encoder = {
  e_rows : Site.row array;  (** the table's rows, by site id *)
  e_table : Site.table;
  mutable e_func : Func.t;  (** last function seen (physical equality) *)
  mutable e_base : int;  (** its first site id, [-1] when foreign *)
  e_scratch : Event.view;  (** {!encode}'s adapter view *)
  e_flags : Bytes.t;  (** per site: [f_value], [f_regs], [f_bit] *)
  mutable e_batch : batch;  (** the batch the chain below belongs to *)
  mutable e_site : int;
  mutable e_step : int;
  mutable e_tid : int;
  mutable e_frame : int;
  mutable e_bits : int;
  mutable e_bit : int;
}

(* Per-site flags: the value travels, the row names a register, the
   site is a [Br] whose taken bit rides the lane. *)
let f_value = 1
let f_regs = 2
let f_bit = 4

let names_registers (row : Site.row) =
  Array.length row.Site.s_read_offs + Array.length row.Site.s_write_offs > 0

let has_bit (row : Site.row) = row.Site.s_taken_pc <> row.Site.s_next_pc

let site_flags (row : Site.row) =
  (match row.Site.s_instr with Instr.Sys (Instr.Spawn _) -> f_value | _ -> 0)
  lor (if names_registers row then f_regs else 0)
  lor if has_bit row then f_bit else 0

let encoder table =
  let rows = Site.rows table in
  let f = rows.(0).Site.s_func in
  {
    e_rows = rows;
    e_table = table;
    e_func = f;
    e_base = Site.base_of_func table f;
    e_scratch = Event.view_blank ();
    e_flags =
      Bytes.init (Array.length rows) (fun s -> Char.chr (site_flags rows.(s)));
    e_batch = batch_create ~events_per_batch:1;
    e_site = -1;
    e_step = -1;
    e_tid = 0;
    e_frame = 0;
    e_bits = 0;
    e_bit = bits_per_word;
  }

let forward_sink_values enc =
  Array.iteri
    (fun s (r : Site.row) ->
      if r.Site.s_sink then
        Bytes.set enc.e_flags s
          (Char.chr (Char.code (Bytes.get enc.e_flags s) lor f_value)))
    enc.e_rows

let frame_mask = Site.frame_stride - 1

(* Whether [n] locations of [locs] are [base + offs.(k)]: [0] when they
   all are.  Unrolled for the short sets of most sites. *)
let[@inline] off_frame locs offs n base =
  match n with
  | 0 -> 0
  | 1 -> Array.unsafe_get locs 0 lxor (base + Array.unsafe_get offs 0)
  | 2 ->
      Array.unsafe_get locs 0
      lxor (base + Array.unsafe_get offs 0)
      lor (Array.unsafe_get locs 1 lxor (base + Array.unsafe_get offs 1))
  | _ ->
      let acc = ref 0 in
      for k = 0 to n - 1 do
        acc :=
          !acc
          lor (Array.unsafe_get locs k lxor (base + Array.unsafe_get offs k))
      done;
      !acc

(* The set check, one pass over the facts {!Site.of_program} computed
   once per site: [0] exactly when the sets are frame-compact in the
   frame whose locations start at [base] (in any frame, for a row that
   names no register).  Their lengths are the row's, a Load's last
   read and a Store's write are the cell [addr lsl 1], and every
   register location is [base + off] for its static offset [off].
   Every comparison after the counts folds into one accumulator, so
   the check branches on the event's data only at its ends. *)
let[@inline] off_compact (row : Site.row) (v : Event.view) base =
  let nr = row.Site.s_nreads and nw = row.Site.s_nwrites in
  if v.Event.v_nreads <> nr || v.Event.v_nwrites <> nw then 1
  else
    let reads = v.Event.v_reads and writes = v.Event.v_writes in
    let roffs = row.Site.s_read_offs and woffs = row.Site.s_write_offs in
    let nro = Array.length roffs and nwo = Array.length woffs in
    let cell = v.Event.v_addr lsl 1 in
    (if nro < nr then Array.unsafe_get reads nro lxor cell else 0)
    lor (if nwo < nw then Array.unsafe_get writes nwo lxor cell else 0)
    lor off_frame reads roffs nro base
    lor off_frame writes woffs nwo base

(* The event's own frame, for a cut: the first register fixes the
   base, which must be non-negative and a multiple of the frame stride
   (a power of two: a mask).  The frame serial ([0] for a row that
   names no register), or [-1] when the sets are not frame-compact in
   any frame (then the cut carries them verbatim). *)
let compact_frame (row : Site.row) (v : Event.view) =
  let roffs = row.Site.s_read_offs and woffs = row.Site.s_write_offs in
  let base =
    if Array.length roffs > 0 && v.Event.v_nreads > 0 then
      v.Event.v_reads.(0) - roffs.(0)
    else if Array.length woffs > 0 && v.Event.v_nwrites > 0 then
      v.Event.v_writes.(0) - woffs.(0)
    else 0
  in
  if base land (min_int lor frame_mask) = 0 && off_compact row v base = 0
  then base lsr Site.frame_shift
  else -1

let grow_ovf b need =
  if Array.length b.b_ovf < need then begin
    let a = Array.make (max need (2 * Array.length b.b_ovf)) 0 in
    Array.blit b.b_ovf 0 a 0 b.b_ovf_n;
    b.b_ovf <- a
  end

(* One outcome word.  Every event writes at most one (its address or
   input index, or a [Br]'s fresh taken-bit word), so the lane never
   outgrows the batch's capacity. *)
let[@inline] put_word b x =
  let k = b.b_lane_n in
  Array.unsafe_set b.b_desc k x;
  b.b_lane_n <- k + 1

(* One taken bit ([0] or [1]), stored without a branch on it. *)
let put_bit enc b taken =
  if enc.e_bit = bits_per_word then begin
    enc.e_bits <- b.b_lane_n;
    enc.e_bit <- 0;
    put_word b 0
  end;
  let k = enc.e_bits in
  Array.unsafe_set b.b_desc k
    (Array.unsafe_get b.b_desc k lor (taken lsl enc.e_bit));
  enc.e_bit <- enc.e_bit + 1

(* Write [x] at [k] if [mask] names field [bit]; the next offset. *)
let[@inline] put_field ovf k mask bit x =
  if mask land bit = 0 then k
  else begin
    Array.unsafe_set ovf k x;
    k + 1
  end

(* The cut record of event [i], which disagrees with the chain (or
   carries its value, or sets that are not frame-compact): the mask
   of the disagreeing fields, their values, then the sets verbatim
   when they are not frame-compact.  Moves the chain's tid and
   frame. *)
let cut enc b i site (row : Site.row) (v : Event.view) ~flags =
  let frame = compact_frame row v in
  let step = v.Event.v_step and tid = v.Event.v_tid in
  let np = v.Event.v_next_pc in
  let addr = v.Event.v_addr and input = v.Event.v_input_index in
  let regs = flags land f_regs <> 0 in
  let mask = if site = enc.e_site then 0 else o_site in
  let mask = if step = enc.e_step + 1 then mask else mask lor o_step in
  let mask = if tid = enc.e_tid then mask else mask lor o_tid in
  let mask =
    if frame >= 0 && regs && frame <> enc.e_frame then mask lor o_frame
    else mask
  in
  let mask =
    if np = row.Site.s_next_pc || np = row.Site.s_taken_pc then mask
    else mask lor o_next
  in
  let mask =
    match row.Site.s_lane with
    | Site.Addr_lane -> if input = -1 then mask else mask lor o_input
    | Site.Input_lane -> if addr = -1 then mask else mask lor o_addr
    | Site.No_lane ->
        (if addr = -1 then mask else mask lor o_addr)
        lor if input = -1 then 0 else o_input
  in
  let mask = if flags land f_value = 0 then mask else mask lor o_value in
  let mask = if frame >= 0 then mask else mask lor o_sets in
  let nr = v.Event.v_nreads and nw = v.Event.v_nwrites in
  let off = b.b_ovf_n in
  grow_ovf b (off + 1 + 8 + if frame >= 0 then 0 else 2 + nr + nw);
  let ovf = b.b_ovf in
  ovf.(off) <- (i lsl mask_bits) lor mask;
  let k = off + 1 in
  let k = put_field ovf k mask o_site site in
  let k = put_field ovf k mask o_step step in
  let k = put_field ovf k mask o_tid tid in
  let k = put_field ovf k mask o_frame frame in
  let k = put_field ovf k mask o_next np in
  let k = put_field ovf k mask o_input input in
  let k = put_field ovf k mask o_addr addr in
  let k = put_field ovf k mask o_value v.Event.v_value in
  b.b_cuts <- b.b_cuts + 1;
  if frame >= 0 then b.b_ovf_n <- k
  else begin
    b.b_verbatim <- b.b_verbatim + 1;
    ovf.(k) <- nr;
    ovf.(k + 1) <- nw;
    (* plain loops: the sets are short, and [Array.blit] is a C call *)
    for j = 0 to nr - 1 do
      ovf.(k + 2 + j) <- v.Event.v_reads.(j)
    done;
    for j = 0 to nw - 1 do
      ovf.(k + 2 + nr + j) <- v.Event.v_writes.(j)
    done;
    b.b_ovf_n <- k + 2 + nr + nw
  end;
  enc.e_tid <- tid;
  if mask land o_frame <> 0 then enc.e_frame <- frame

(* An event that is not physically one of the table's sites. *)
let foreign (v : Event.view) =
  Fmt.invalid_arg "Codec.encode: %s:%d is not an interned site"
    v.Event.v_func.Func.name v.Event.v_pc

(** Append one event (the batch must not be full).  One condition
    covers every implied field: the site is the chain's successor, the
    step the last one's next and the tid the last one's, the sets are
    compact in the chain's frame (any frame, for a row that names no
    register), the lane value the row does not carry is [-1]
    ([addr land input = -1] iff both are), the next pc is one of the
    row's successors, and the site's value does not travel.  Only an
    event that fails it works out which fields disagree. *)
let encode_view enc b (v : Event.view) =
  let i = b.b_n in
  (* the lane has the batch's capacity, and an event writes at most
     one word of it, so one check covers the unchecked stores *)
  if i >= Array.length b.b_desc then invalid_arg "Codec.encode: batch full";
  if i = 0 then begin
    enc.e_batch <- b;
    enc.e_site <- -1;
    enc.e_step <- -1;
    enc.e_tid <- 0;
    enc.e_frame <- 0;
    enc.e_bit <- bits_per_word
  end
  else if b != enc.e_batch then
    invalid_arg "Codec.encode: the batch is another encoder's";
  (* Site resolution: the base is looked up only when the function
     changes.  A foreign function's base is [-1], and a pc outside the
     body lands off the table or on another function's row. *)
  let f = v.Event.v_func in
  if f != enc.e_func then begin
    enc.e_func <- f;
    enc.e_base <- Site.base_of_func enc.e_table f
  end;
  let site = enc.e_base + v.Event.v_pc in
  if site < 0 || site >= Array.length enc.e_rows then foreign v;
  let row = Array.unsafe_get enc.e_rows site in
  if row.Site.s_func != f || row.Site.s_instr != v.Event.v_instr then foreign v;
  let addr = v.Event.v_addr and input = v.Event.v_input_index in
  let other =
    match row.Site.s_lane with
    | Site.No_lane -> addr land input
    | Site.Addr_lane ->
        put_word b addr;
        input
    | Site.Input_lane ->
        put_word b input;
        addr
  in
  let np = v.Event.v_next_pc and step = v.Event.v_step in
  (* branch-free: a [Br]'s outcome is the program's data *)
  let fell = Bool.to_int (np = row.Site.s_next_pc) in
  let taken = Bool.to_int (np = row.Site.s_taken_pc) land (fell lxor 1) in
  let flags = Char.code (Bytes.unsafe_get enc.e_flags site) in
  if
    (site lxor enc.e_site)
    lor (step - enc.e_step - 1)
    lor (v.Event.v_tid lxor enc.e_tid)
    lor off_compact row v (enc.e_frame lsl Site.frame_shift)
    lor (other + 1)
    lor (flags land f_value)
    lor (fell lor taken lxor 1)
    <> 0
  then cut enc b i site row v ~flags;
  (* a [Br] whose next pc is one of its successors says which *)
  if flags land f_bit <> 0 && fell lor taken = 1 then put_bit enc b taken;
  enc.e_site <- site + np - row.Site.s_pc;
  enc.e_step <- step;
  b.b_n <- i + 1

let encode enc b e =
  Event.view_fill enc.e_scratch e;
  encode_view enc b enc.e_scratch

(* -- decoding ----------------------------------------------------------- *)

(* The view's scratch array when it holds [n] locations, else a larger
   one the caller must store back. *)
let ensure arr n =
  if Array.length arr >= n then arr
  else Array.make (max n ((2 * Array.length arr) + 4)) 0

(* The frame-compact sets of [row] in frame [frame]: the row's
   lengths, the register offsets, and past them a Load's memory read
   or a Store's memory write at [addr] (the encoder's check reads the
   same facts).  The view's array fields are written only when they
   grow. *)
let[@inline] compact_sets (row : Site.row) frame addr (v : Event.view) =
  let base = frame lsl Site.frame_shift in
  let offs = row.Site.s_read_offs in
  let nro = Array.length offs in
  let nr = row.Site.s_nreads in
  let ra = ensure v.Event.v_reads nr in
  for k = 0 to nro - 1 do
    Array.unsafe_set ra k (base + Array.unsafe_get offs k)
  done;
  if nro < nr then Array.unsafe_set ra nro (addr lsl 1);
  if ra != v.Event.v_reads then v.Event.v_reads <- ra;
  v.Event.v_nreads <- nr;
  let woffs = row.Site.s_write_offs in
  let nwo = Array.length woffs in
  let nw = row.Site.s_nwrites in
  let wa = ensure v.Event.v_writes nw in
  for k = 0 to nwo - 1 do
    Array.unsafe_set wa k (base + Array.unsafe_get woffs k)
  done;
  if nwo < nw then Array.unsafe_set wa nwo (addr lsl 1);
  if wa != v.Event.v_writes then v.Event.v_writes <- wa;
  v.Event.v_nwrites <- nw

(* The sets a cut carries verbatim, from offset [k]. *)
let verbatim_sets ovf k (v : Event.view) =
  let nr = ovf.(k) and nw = ovf.(k + 1) in
  let ra = ensure v.Event.v_reads nr in
  Array.blit ovf (k + 2) ra 0 nr;
  if ra != v.Event.v_reads then v.Event.v_reads <- ra;
  v.Event.v_nreads <- nr;
  let wa = ensure v.Event.v_writes nw in
  Array.blit ovf (k + 2 + nr) wa 0 nw;
  if wa != v.Event.v_writes then v.Event.v_writes <- wa;
  v.Event.v_nwrites <- nw;
  k + 2 + nr + nw

(* Take the taken bit of the cursor's next [Br]: a fresh lane word
   when the open one is spent. *)
let take_bit lane c =
  if c.c_bit = bits_per_word then begin
    c.c_bits <- c.c_lane;
    c.c_bit <- 0;
    c.c_lane <- c.c_lane + 1
  end;
  let bit = (Array.unsafe_get lane c.c_bits lsr c.c_bit) land 1 in
  c.c_bit <- c.c_bit + 1;
  bit

let[@inline] take_word lane c =
  let x = Array.unsafe_get lane c.c_lane in
  c.c_lane <- c.c_lane + 1;
  x

(* The static fields of [row]'s events.  Of the view's pointer fields
   only the instruction is written every event, as the machine does:
   the function when it changes, the cached record when there is one
   (the location arrays when they grow, in [compact_sets]). *)
let[@inline] fill_site (row : Site.row) (v : Event.view) =
  let f = row.Site.s_func in
  if v.Event.v_func != f then v.Event.v_func <- f;
  (match v.Event.v_exec with Some _ -> v.Event.v_exec <- None | None -> ());
  v.Event.v_instr <- row.Site.s_instr;
  v.Event.v_pc <- row.Site.s_pc

(* The successor a [Br]'s taken bit picks, without a branch on it. *)
let[@inline] next_pc lane (row : Site.row) c =
  if has_bit row then
    row.Site.s_next_pc
    + (take_bit lane c * (row.Site.s_taken_pc - row.Site.s_next_pc))
  else row.Site.s_next_pc

(* The event at the cut record at [c_cut]: the fields the mask names
   replace the chain's, then the rest as for an implied event. *)
let expand_cut rows lane ovf c (v : Event.view) =
  let mask = mask_of ovf.(c.c_cut) in
  (* the fields start past the record's head; the sets, if any, past
     the fields *)
  let at = c.c_cut + 1 in
  if at + 8 > Array.length ovf then invalid_arg "Codec.decode: torn cut";
  let site = field ovf at mask o_site c.c_site in
  let row : Site.row = rows.(site) in
  fill_site row v;
  let step = field ovf at mask o_step (c.c_step + 1) in
  v.Event.v_step <- step;
  c.c_step <- step;
  c.c_tid <- field ovf at mask o_tid c.c_tid;
  v.Event.v_tid <- c.c_tid;
  c.c_frame <- field ovf at mask o_frame c.c_frame;
  let input = field ovf at mask o_input (-1) in
  let addr = field ovf at mask o_addr (-1) in
  v.Event.v_value <- field ovf at mask o_value 0;
  (match row.Site.s_lane with
  | Site.Addr_lane ->
      v.Event.v_addr <- take_word lane c;
      v.Event.v_input_index <- input
  | Site.Input_lane ->
      v.Event.v_addr <- addr;
      v.Event.v_input_index <- take_word lane c
  | Site.No_lane ->
      v.Event.v_addr <- addr;
      v.Event.v_input_index <- input);
  let np =
    if mask land o_next <> 0 then field ovf at mask o_next (-1)
    else next_pc lane row c
  in
  v.Event.v_next_pc <- np;
  let k =
    at + Char.code (Bytes.unsafe_get popcount (mask land (o_sets - 1)))
  in
  if mask land o_sets = 0 then begin
    compact_sets row c.c_frame v.Event.v_addr v;
    c.c_cut <- k
  end
  else c.c_cut <- verbatim_sets ovf k v;
  c.c_site <- site + np - row.Site.s_pc

(* Expand the cursor's next event into [v] and step the chain: an
   implied event from the chain and the lane alone.  The batch's
   arrays come in as arguments, read once per batch: the consumer
   reads nothing per event from the batch record, which may share a
   cache line with the one the producer is filling. *)
let expand rows lane ovf ovf_n c (v : Event.view) =
  let i = c.c_i in
  if c.c_cut < ovf_n && Array.unsafe_get ovf c.c_cut lsr mask_bits = i then
    expand_cut rows lane ovf c v
  else begin
    let site = c.c_site in
    let row : Site.row = rows.(site) in
    fill_site row v;
    let step = c.c_step + 1 in
    v.Event.v_step <- step;
    c.c_step <- step;
    v.Event.v_tid <- c.c_tid;
    v.Event.v_value <- 0;
    (match row.Site.s_lane with
    | Site.Addr_lane ->
        v.Event.v_addr <- take_word lane c;
        v.Event.v_input_index <- -1
    | Site.Input_lane ->
        v.Event.v_addr <- -1;
        v.Event.v_input_index <- take_word lane c
    | Site.No_lane ->
        v.Event.v_addr <- -1;
        v.Event.v_input_index <- -1);
    let np = next_pc lane row c in
    v.Event.v_next_pc <- np;
    compact_sets row c.c_frame v.Event.v_addr v;
    c.c_site <- site + np - row.Site.s_pc
  end;
  c.c_i <- i + 1

(** Decode event [i] of [b] into the reused view: from the batch's
    cursor when [i] is the next event, else by expanding again from the
    batch's leading cut. *)
let decode_into table b i v =
  if i < 0 || i >= b.b_n then invalid_arg "Codec.decode_into: no such event";
  let rows = Site.rows table and c = b.b_get in
  let lane = b.b_desc and ovf = b.b_ovf and ovf_n = b.b_ovf_n in
  if i <> c.c_i then begin
    if i < c.c_i then restart c;
    while c.c_i < i do
      expand rows lane ovf ovf_n c v
    done
  end;
  expand rows lane ovf ovf_n c v

(* The consumer's loop keeps its chain in a cursor of its own, so it
   writes nothing per event that the producer's data may share a
   cache line with. *)
let decode_batch table b v f =
  let rows = Site.rows table and lane = b.b_desc and ovf = b.b_ovf in
  let ovf_n = b.b_ovf_n and c = cursor () in
  for _ = 1 to b.b_n do
    expand rows lane ovf ovf_n c v;
    f v
  done
