(** The minimal forwarding wire; see the interface for the format.

    Layout notes.  A {!batch} is a descriptor lane, a value lane, an
    address lane written only at the sites that carry one, a header
    (the step of event 0) and a shared growable overflow area.  The
    descriptor packs the Br taken bit, the thread id, the step gap,
    the site id and a payload that is either the activation-frame
    serial or an overflow offset.  Everything else the helper needs
    follows from the interned {!Site.row}; the encoder checks every
    implied field against the live event and writes the ones that
    disagree to the overflow area, so decode is exact by
    construction, not by trust.  Neither side allocates per event. *)

open Dift_isa
open Dift_vm

(* -- the descriptor word ------------------------------------------------ *)

(* bit 0: the read/write sets are frame-compact *)
let c_bit = 1

(* bit 1: the payload is an overflow offset *)
let x_bit = 2

(* bit 2: a Br went to its taken target *)
let t_bit = 4
let tid_shift = 3
let tid_bits = 6
let gap_shift = tid_shift + tid_bits
let gap_bits = 10
let site_shift = gap_shift + gap_bits
let site_bits = 22
let pay_shift = site_shift + site_bits

(* the payload's bits: what is left of a non-negative OCaml int *)
let pay_max = (1 lsl (Sys.int_size - 1 - pay_shift)) - 1
let tid_mask = (1 lsl tid_bits) - 1
let gap_mask = (1 lsl gap_bits) - 1
let site_mask = (1 lsl site_bits) - 1

(* An overflow record starts with a mask of the implied fields the
   live event disagreed with; field [j] is bit [1 lsl j], and their
   values follow in field order. *)
let o_step = 1
let o_tid = 2
let o_next = 4
let o_input = 8
let o_addr = 16
let o_fields = 5

let implied_field (v : Event.view) = function
  | 0 -> v.Event.v_step
  | 1 -> v.Event.v_tid
  | 2 -> v.Event.v_next_pc
  | 3 -> v.Event.v_input_index
  | _ -> v.Event.v_addr

let set_implied_field (v : Event.view) j x =
  match j with
  | 0 -> v.Event.v_step <- x
  | 1 -> v.Event.v_tid <- x
  | 2 -> v.Event.v_next_pc <- x
  | 3 -> v.Event.v_input_index <- x
  | _ -> v.Event.v_addr <- x

(* The descriptor lane's header words: [b_n] and [b_step0]. *)
let header_words = 2

(* The largest batch whose every overflow offset fits the payload: the
   longest record is the mask, every implied field, both set lengths
   and both sets at the machine's widest event (a call reads every
   argument register plus an indirect target, at most [Reg.count + 2]
   locations a set), and the last event's starts [n - 1] records in. *)
let max_batch_size =
  (pay_max / (1 + o_fields + 2 + (2 * (Reg.count + 2)))) + 1

(* -- batches ------------------------------------------------------------ *)

type batch = {
  b_desc : int array;
  b_value : int array;
  b_addr : int array;
  mutable b_ovf : int array;
  mutable b_n : int;
  mutable b_ovf_n : int;
  mutable b_addr_n : int;
  mutable b_step0 : int;
}

let batch_create ~events_per_batch =
  if events_per_batch < 1 || events_per_batch > max_batch_size then
    Fmt.invalid_arg "Codec.batch_create: events_per_batch = %d outside [1, %d]"
      events_per_batch max_batch_size;
  let z () = Array.make events_per_batch 0 in
  {
    b_desc = z ();
    b_value = z ();
    b_addr = z ();
    b_ovf = Array.make 64 0;
    b_n = 0;
    b_ovf_n = 0;
    b_addr_n = 0;
    b_step0 = 0;
  }

let batch_length b = b.b_n

let batch_words b = header_words + (2 * b.b_n) + b.b_addr_n + b.b_ovf_n

let batch_clear b =
  b.b_n <- 0;
  b.b_ovf_n <- 0;
  b.b_addr_n <- 0

(* -- encoding ----------------------------------------------------------- *)

type encoder = {
  e_rows : Site.row array;  (** the table's rows, by site id *)
  e_table : Site.table;
  mutable e_func : Func.t;  (** last function seen (physical equality) *)
  mutable e_base : int;  (** its first site id, [-1] when foreign *)
  e_scratch : Event.view;  (** {!encode}'s adapter view *)
}

let encoder table =
  if Site.size table > site_mask + 1 then
    Fmt.invalid_arg "Codec.encoder: %d sites > %d" (Site.size table)
      (site_mask + 1);
  let f = (Site.row table 0).Site.s_func in
  {
    e_rows = Site.rows table;
    e_table = table;
    e_func = f;
    e_base = Site.base_of_func table f;
    e_scratch = Event.view_blank ();
  }

let frame_mask = Site.frame_stride - 1

(* The compact-shape check, one pass over the facts {!Site.of_program}
   computed once per site.  The sets are frame-compact when their
   lengths are the row's, a Load's last read and a Store's write are
   the cell [addr lsl 1], and every register location [l] is
   [base + off] for its static offset [off].  The first register fixes
   [base], which must be non-negative and a multiple of the frame
   stride (a power of two: a mask).  Every comparison after the counts
   folds into one accumulator, so the check branches on the event's
   data only at its ends.  Returns the frame serial, or [-1] (then the
   overflow area carries the sets verbatim). *)
let compact_frame (row : Site.row) (v : Event.view) =
  let nr = row.Site.s_nreads and nw = row.Site.s_nwrites in
  if v.Event.v_nreads <> nr || v.Event.v_nwrites <> nw then -1
  else
    let reads = v.Event.v_reads and writes = v.Event.v_writes in
    let roffs = row.Site.s_read_offs and woffs = row.Site.s_write_offs in
    let nro = Array.length roffs and nwo = Array.length woffs in
    let cell = v.Event.v_addr lsl 1 in
    let acc =
      (if nro < nr then Array.unsafe_get reads nro lxor cell else 0)
      lor if nwo < nw then Array.unsafe_get writes nwo lxor cell else 0
    in
    let base =
      if nro > 0 then Array.unsafe_get reads 0 - Array.unsafe_get roffs 0
      else if nwo > 0 then Array.unsafe_get writes 0 - Array.unsafe_get woffs 0
      else 0
    in
    (* non-negative and stride-aligned: no sign bit, no low bits *)
    let acc = ref (acc lor (base land (min_int lor frame_mask))) in
    for k = 0 to nro - 1 do
      acc :=
        !acc
        lor (Array.unsafe_get reads k lxor (base + Array.unsafe_get roffs k))
    done;
    for k = 0 to nwo - 1 do
      acc :=
        !acc
        lor (Array.unsafe_get writes k lxor (base + Array.unsafe_get woffs k))
    done;
    if !acc = 0 then base lsr Site.frame_shift else -1

let grow_ovf b need =
  if Array.length b.b_ovf < need then begin
    let a = Array.make (max need (2 * Array.length b.b_ovf)) 0 in
    Array.blit b.b_ovf 0 a 0 b.b_ovf_n;
    b.b_ovf <- a
  end

(* The overflow record of an event some implied field or its set shape
   disagrees with: [mask], the disagreeing fields in mask order, then
   the frame serial when the sets are compact ([frame >= 0]), or
   [nreads, nwrites, reads.., writes..] verbatim when they are not.
   Returns the descriptor's flag and payload bits. *)
let overflow b (v : Event.view) mask frame =
  let nr = v.Event.v_nreads and nw = v.Event.v_nwrites in
  let off = b.b_ovf_n in
  (* unreachable from a machine stream in a batch of [max_batch_size] *)
  if off > pay_max then invalid_arg "Codec.encode: overflow past the payload";
  grow_ovf b (off + 1 + o_fields + if frame >= 0 then 1 else 2 + nr + nw);
  let ovf = b.b_ovf in
  ovf.(off) <- mask;
  let k = ref (off + 1) in
  for j = 0 to o_fields - 1 do
    if mask land (1 lsl j) <> 0 then begin
      ovf.(!k) <- implied_field v j;
      incr k
    end
  done;
  let k = !k in
  if frame >= 0 then begin
    ovf.(k) <- frame;
    b.b_ovf_n <- k + 1;
    (off lsl pay_shift) lor x_bit lor c_bit
  end
  else begin
    ovf.(k) <- nr;
    ovf.(k + 1) <- nw;
    (* plain loops: the sets are short, and [Array.blit] is a C call *)
    for j = 0 to nr - 1 do
      ovf.(k + 2 + j) <- v.Event.v_reads.(j)
    done;
    for j = 0 to nw - 1 do
      ovf.(k + 2 + nr + j) <- v.Event.v_writes.(j)
    done;
    b.b_ovf_n <- k + 2 + nr + nw;
    (off lsl pay_shift) lor x_bit
  end

(* The descriptor bits, all but site and taken, of an event that
   misses {!encode_site}'s fast path: it disagrees with some implied
   field (the mask says which) or its frame does not fit the payload,
   so it gets an overflow record. *)
let encode_slow b (row : Site.row) (v : Event.view) ~gap ~frame =
  let mask = if gap lsr gap_bits = 0 then 0 else o_step in
  let mask = if v.Event.v_tid lsr tid_bits = 0 then mask else mask lor o_tid in
  let np = v.Event.v_next_pc in
  let mask =
    if np = row.Site.s_next_pc || np = row.Site.s_taken_pc then mask
    else mask lor o_next
  in
  let addr = v.Event.v_addr and input = v.Event.v_input_index in
  let mask =
    match row.Site.s_lane with
    | Site.Addr_lane -> if input = -1 then mask else mask lor o_input
    | Site.Input_lane -> if addr = -1 then mask else mask lor o_addr
    | Site.No_lane ->
        (if addr = -1 then mask else mask lor o_addr)
        lor if input = -1 then 0 else o_input
  in
  overflow b v mask frame
  lor (if mask land o_step = 0 then gap lsl gap_shift else 0)
  lor if mask land o_tid = 0 then v.Event.v_tid lsl tid_shift else 0

(* A site event: value lane, address lane where the site carries one,
   and the descriptor.  One condition covers every implied field: the
   step gap and the tid fit their fields, the next pc is the row's
   (either successor), the address-lane value the site does not carry
   is [-1] ([addr land input = -1] iff both are), and the sets are
   compact in a frame the payload holds.  Only an event that fails it
   works out which fields disagree. *)
let encode_site b i site (row : Site.row) (v : Event.view) =
  Array.unsafe_set b.b_value i v.Event.v_value;
  let addr = v.Event.v_addr and input = v.Event.v_input_index in
  let implied =
    match row.Site.s_lane with
    | Site.No_lane -> addr land input
    | Site.Addr_lane ->
        Array.unsafe_set b.b_addr i addr;
        b.b_addr_n <- b.b_addr_n + 1;
        input
    | Site.Input_lane ->
        Array.unsafe_set b.b_addr i input;
        b.b_addr_n <- b.b_addr_n + 1;
        addr
  in
  let gap = v.Event.v_step - b.b_step0 - i and tid = v.Event.v_tid in
  let np = v.Event.v_next_pc in
  let fell = np = row.Site.s_next_pc in
  let taken = (not fell) && np = row.Site.s_taken_pc in
  let frame = compact_frame row v in
  let bits =
    if
      implied = -1
      && (fell || taken)
      && (gap lsr gap_bits) lor (tid lsr tid_bits) lor (frame land lnot pay_max)
         = 0
    then
      (frame lsl pay_shift) lor (gap lsl gap_shift) lor (tid lsl tid_shift)
      lor c_bit
    else encode_slow b row v ~gap ~frame
  in
  Array.unsafe_set b.b_desc i
    (bits lor (site lsl site_shift) lor if taken then t_bit else 0)

(* An event that is not physically one of the table's sites. *)
let foreign (v : Event.view) =
  Fmt.invalid_arg "Codec.encode: %s:%d is not an interned site"
    v.Event.v_func.Func.name v.Event.v_pc

(** Append one event (the batch must not be full). *)
let encode_view enc b (v : Event.view) =
  let i = b.b_n in
  (* every lane has the batch's capacity (they are created together
     and never replaced), so one check covers the unchecked stores *)
  if i >= Array.length b.b_desc then invalid_arg "Codec.encode: batch full";
  if i = 0 then b.b_step0 <- v.Event.v_step;
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
  encode_site b i site row v;
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
let compact_sets (row : Site.row) frame addr (v : Event.view) =
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

(* An event with an overflow record at [off]: the disagreeing fields
   replace the implied ones, then the sets. *)
let decode_overflow b d (row : Site.row) off (v : Event.view) =
  let ovf = b.b_ovf in
  let mask = ovf.(off) in
  let k = ref (off + 1) in
  for j = 0 to o_fields - 1 do
    if mask land (1 lsl j) <> 0 then begin
      set_implied_field v j ovf.(!k);
      incr k
    end
  done;
  let k = !k in
  if d land c_bit <> 0 then compact_sets row ovf.(k) v.Event.v_addr v
  else begin
    let nr = ovf.(k) and nw = ovf.(k + 1) in
    let ra = ensure v.Event.v_reads nr in
    Array.blit ovf (k + 2) ra 0 nr;
    if ra != v.Event.v_reads then v.Event.v_reads <- ra;
    v.Event.v_nreads <- nr;
    let wa = ensure v.Event.v_writes nw in
    Array.blit ovf (k + 2 + nr) wa 0 nw;
    if wa != v.Event.v_writes then v.Event.v_writes <- wa;
    v.Event.v_nwrites <- nw
  end

(* Event [i] of [b] into [v].  Of the view's pointer fields only the
   instruction is written every event, as the machine does: the
   function when it changes, the cached record when there is one, the
   location arrays when they grow. *)
let decode rows b i (v : Event.view) =
  let d = b.b_desc.(i) in
  let row : Site.row = rows.((d lsr site_shift) land site_mask) in
  let f = row.Site.s_func in
  if v.Event.v_func != f then v.Event.v_func <- f;
  (match v.Event.v_exec with Some _ -> v.Event.v_exec <- None | None -> ());
  v.Event.v_instr <- row.Site.s_instr;
  v.Event.v_pc <- row.Site.s_pc;
  v.Event.v_value <- Array.unsafe_get b.b_value i;
  v.Event.v_step <- b.b_step0 + i + ((d lsr gap_shift) land gap_mask);
  v.Event.v_tid <- (d lsr tid_shift) land tid_mask;
  v.Event.v_next_pc <-
    (if d land t_bit = 0 then row.Site.s_next_pc else row.Site.s_taken_pc);
  (match row.Site.s_lane with
  | Site.Addr_lane ->
      v.Event.v_addr <- Array.unsafe_get b.b_addr i;
      v.Event.v_input_index <- -1
  | Site.Input_lane ->
      v.Event.v_addr <- -1;
      v.Event.v_input_index <- Array.unsafe_get b.b_addr i
  | Site.No_lane ->
      v.Event.v_addr <- -1;
      v.Event.v_input_index <- -1);
  if d land x_bit = 0 then
    compact_sets row (d lsr pay_shift) v.Event.v_addr v
  else decode_overflow b d row (d lsr pay_shift) v

(** Decode event [i] of [b] into the reused view (no allocation once
    the view's scratch arrays have grown to the stream's maximum
    read/write fan). *)
let decode_into table b i v = decode (Site.rows table) b i v

let decode_batch table b v f =
  let rows = Site.rows table in
  for i = 0 to b.b_n - 1 do
    decode rows b i v;
    f v
  done
