(** The de-boxed forwarding wire; see the interface for the format.

    Layout notes.  A {!batch} is a struct-of-arrays of one lane per
    dynamic field plus a [desc] lane and a shared growable overflow
    area.  [desc] bit 0 selects the encoding: [1] is the frame-compact
    form ([desc lsr 1] is the activation-frame serial; the read/write
    sets reconstruct from the interned {!Site.row} as
    [(frame lsl Site.frame_shift) + off], with a Load's trailing memory
    read and a Store's memory write rebuilt from the [addr] lane), [0]
    is the explicit form ([desc lsr 1] indexes the overflow area:
    [nreads, nwrites, reads.., writes..] verbatim — call boundaries,
    faulting events, anything whose dynamic shape diverges from the
    static row).  The encoder verifies the compact shape element-wise
    per event, so decode is exact by construction, not by trust; the
    check allocates nothing.  The encoder reads the producer's view in
    place: the machine's own, on the runtimes' hot path. *)

open Dift_isa
open Dift_vm

type batch = {
  b_site : int array;
  b_step : int array;
  b_tid : int array;
  b_addr : int array;
  b_value : int array;
  b_next_pc : int array;
  b_input : int array;
  b_desc : int array;
  mutable b_ovf : int array;
  mutable b_esc : Event.exec array;
      (** escape hatch: events {e foreign} to the interned program
          (hand-built streams whose [(func, pc, instr)] is not a real
          site) ride boxed here, referenced by a negative [desc].
          Machine streams never take it, so the steady state stays
          flat. *)
  mutable b_n : int;
  mutable b_ovf_n : int;
  mutable b_esc_n : int;
}

let batch_create ~events_per_batch =
  if events_per_batch < 1 then
    invalid_arg
      (Fmt.str "Codec.batch_create: events_per_batch = %d < 1"
         events_per_batch);
  let z () = Array.make events_per_batch 0 in
  {
    b_site = z ();
    b_step = z ();
    b_tid = z ();
    b_addr = z ();
    b_value = z ();
    b_next_pc = z ();
    b_input = z ();
    b_desc = z ();
    b_ovf = Array.make 64 0;
    b_esc = [||];
    b_n = 0;
    b_ovf_n = 0;
    b_esc_n = 0;
  }

let batch_capacity b = Array.length b.b_site
let batch_length b = b.b_n

let batch_clear b =
  b.b_n <- 0;
  b.b_ovf_n <- 0;
  if b.b_esc_n > 0 then begin
    (* drop the boxed references so a recycled batch does not pin them *)
    b.b_esc <- [||];
    b.b_esc_n <- 0
  end

(* -- encoding ----------------------------------------------------------- *)

type encoder = {
  e_rows : Site.row array;  (** the table's rows, by site id *)
  e_table : Site.table;
  mutable e_func : Func.t;  (** last function seen (physical equality) *)
  mutable e_base : int;  (** its first site id, [-1] when foreign *)
  mutable e_len : int;  (** its body length *)
  e_scratch : Event.view;  (** {!encode}'s adapter view *)
}

let encoder table =
  let f = (Site.row table 0).Site.s_func in
  {
    e_rows = Site.rows table;
    e_table = table;
    e_func = f;
    e_base = Site.base_of_func table f;
    e_len = Array.length f.Func.body;
    e_scratch = Event.view_blank ();
  }

(* The compact-shape check.  A register location [l] matches static
   offset [off] in the frame whose first location is [base] iff
   [l = base + off].  The first register of an event fixes [base]: it
   must be [l - off], non-negative and a multiple of the frame stride
   (a power of two: a mask).  Memory locations (even) can never match
   a register offset (odd). *)
let frame_mask = Site.frame_stride - 1
let mismatch = -2

(* The memory location a row's read or write set must end with: [-1]
   when it has none, [min_int] (matches nothing) when one is due but
   the event carries no address. *)
let mem_loc expected addr =
  if not expected then -1 else if addr >= 0 then addr lsl 1 else min_int

(* Walks the valid prefix [0, n) of one location array against the
   row's offsets, threading the frame base ([-1] until a register
   fixes it); returns the base or [mismatch]. *)
let rec walk offs k (locs : Loc.t array) n base mem =
  if k < Array.length offs then
    if k >= n then mismatch
    else
      let l = Array.unsafe_get locs k in
      let off = Array.unsafe_get offs k in
      if base >= 0 then
        if l = base + off then walk offs (k + 1) locs n base mem else mismatch
      else
        let d = l - off in
        if d >= 0 && d land frame_mask = 0 then walk offs (k + 1) locs n d mem
        else mismatch
  else if n = k then if mem = -1 then base else mismatch
  else if n = k + 1 then
    if mem >= 0 && Array.unsafe_get locs k = mem then base else mismatch
  else mismatch

(* The common activation-frame serial of the event's locations, when
   its dynamic read/write sets match the row's static shape exactly;
   [-1] otherwise (then the explicit encoding carries the sets
   verbatim). *)
let compact_frame (row : Site.row) (v : Event.view) =
  let addr = v.Event.v_addr in
  let base =
    walk row.Site.s_read_offs 0 v.Event.v_reads v.Event.v_nreads (-1)
      (mem_loc row.Site.s_mem_read addr)
  in
  if base = mismatch then -1
  else
    let base =
      walk row.Site.s_write_offs 0 v.Event.v_writes v.Event.v_nwrites base
        (mem_loc row.Site.s_mem_write addr)
    in
    if base = mismatch then -1
    else if base = -1 then 0
    else base lsr Site.frame_shift

let grow_ovf b need =
  if Array.length b.b_ovf < need then begin
    let a = Array.make (max need (2 * Array.length b.b_ovf)) 0 in
    Array.blit b.b_ovf 0 a 0 b.b_ovf_n;
    b.b_ovf <- a
  end

(* Foreign event: carried boxed, desc = -(index + 1). *)
let escape b i (v : Event.view) =
  let e = Event.view_to_exec v in
  let n = b.b_esc_n in
  if Array.length b.b_esc <= n then begin
    let a = Array.make (max 4 (2 * Array.length b.b_esc)) e in
    Array.blit b.b_esc 0 a 0 n;
    b.b_esc <- a
  end;
  b.b_esc.(n) <- e;
  b.b_esc_n <- n + 1;
  b.b_site.(i) <- -1;
  b.b_desc.(i) <- -(n + 1)

(* Shape diverges from the row: the sets go verbatim to the overflow
   area as [nreads, nwrites, reads.., writes..]. *)
let explicit b i (v : Event.view) =
  let nr = v.Event.v_nreads and nw = v.Event.v_nwrites in
  let off = b.b_ovf_n in
  grow_ovf b (off + 2 + nr + nw);
  let ovf = b.b_ovf in
  ovf.(off) <- nr;
  ovf.(off + 1) <- nw;
  (* plain loops: the sets are short, and [Array.blit] is a C call *)
  for k = 0 to nr - 1 do
    ovf.(off + 2 + k) <- v.Event.v_reads.(k)
  done;
  for k = 0 to nw - 1 do
    ovf.(off + 2 + nr + k) <- v.Event.v_writes.(k)
  done;
  b.b_ovf_n <- off + 2 + nr + nw;
  b.b_desc.(i) <- off lsl 1

(** Append one event ([batch_length] must be under [batch_capacity]). *)
let encode_view enc b (v : Event.view) =
  let i = b.b_n in
  (* every lane has the batch's capacity (they are created together
     and never replaced), so one check covers the unchecked stores *)
  if i >= Array.length b.b_site then invalid_arg "Codec.encode: batch full";
  Array.unsafe_set b.b_step i v.Event.v_step;
  Array.unsafe_set b.b_tid i v.Event.v_tid;
  Array.unsafe_set b.b_addr i v.Event.v_addr;
  Array.unsafe_set b.b_value i v.Event.v_value;
  Array.unsafe_set b.b_next_pc i v.Event.v_next_pc;
  Array.unsafe_set b.b_input i v.Event.v_input_index;
  (* Site resolution: a function that is not physically one of the
     program's (hand-built test streams), a pc outside its body, or an
     instruction that is not physically the row's makes the event
     foreign.  The base is looked up ({!Site.base_of_func}) only when
     the function changes, so in the steady state this is a compare,
     an add and one row load. *)
  let f = v.Event.v_func in
  if f != enc.e_func then begin
    enc.e_func <- f;
    enc.e_base <- Site.base_of_func enc.e_table f;
    enc.e_len <- Array.length f.Func.body
  end;
  let pc = v.Event.v_pc in
  (if enc.e_base < 0 || pc < 0 || pc >= enc.e_len then escape b i v
   else
     let site = enc.e_base + pc in
     let row = Array.unsafe_get enc.e_rows site in
     if row.Site.s_instr != v.Event.v_instr then escape b i v
     else begin
       Array.unsafe_set b.b_site i site;
       let frame = compact_frame row v in
       if frame >= 0 then Array.unsafe_set b.b_desc i ((frame lsl 1) lor 1)
       else explicit b i v
     end);
  b.b_n <- i + 1

let encode enc b e =
  Event.view_fill enc.e_scratch e;
  encode_view enc b enc.e_scratch

(* -- decoding ----------------------------------------------------------- *)

let ensure arr n =
  if Array.length arr >= n then arr
  else Array.make (max n ((2 * Array.length arr) + 4)) 0

(** Decode event [i] of [b] into the reusable view (no allocation once
    the view's scratch arrays have grown to the stream's maximum
    read/write fan). *)
let decode_into table b i (v : Event.view) =
  let desc0 = b.b_desc.(i) in
  if desc0 < 0 then
    (* foreign event off the escape hatch: exact by construction *)
    Event.view_fill v b.b_esc.(-desc0 - 1)
  else begin
  let row = Site.row table b.b_site.(i) in
  v.Event.v_func <- row.Site.s_func;
  v.Event.v_pc <- row.Site.s_pc;
  v.Event.v_instr <- row.Site.s_instr;
  v.Event.v_step <- b.b_step.(i);
  v.Event.v_tid <- b.b_tid.(i);
  v.Event.v_addr <- b.b_addr.(i);
  v.Event.v_value <- b.b_value.(i);
  v.Event.v_next_pc <- b.b_next_pc.(i);
  v.Event.v_input_index <- b.b_input.(i);
  v.Event.v_exec <- None;
  let desc = b.b_desc.(i) in
  if desc land 1 = 1 then begin
    let frame = desc lsr 1 in
    let base = frame lsl Site.frame_shift in
    let offs = row.Site.s_read_offs in
    let nro = Array.length offs in
    let nr = nro + if row.Site.s_mem_read then 1 else 0 in
    let ra = ensure v.Event.v_reads nr in
    for k = 0 to nro - 1 do
      ra.(k) <- base + offs.(k)
    done;
    if row.Site.s_mem_read then ra.(nro) <- b.b_addr.(i) lsl 1;
    v.Event.v_reads <- ra;
    v.Event.v_nreads <- nr;
    let woffs = row.Site.s_write_offs in
    let nwo = Array.length woffs in
    let nw = nwo + if row.Site.s_mem_write then 1 else 0 in
    let wa = ensure v.Event.v_writes nw in
    for k = 0 to nwo - 1 do
      wa.(k) <- base + woffs.(k)
    done;
    if row.Site.s_mem_write then wa.(nwo) <- b.b_addr.(i) lsl 1;
    v.Event.v_writes <- wa;
    v.Event.v_nwrites <- nw
  end
  else begin
    let off = desc lsr 1 in
    let nr = b.b_ovf.(off) and nw = b.b_ovf.(off + 1) in
    let ra = ensure v.Event.v_reads nr in
    Array.blit b.b_ovf (off + 2) ra 0 nr;
    let wa = ensure v.Event.v_writes nw in
    Array.blit b.b_ovf (off + 2 + nr) wa 0 nw;
    v.Event.v_reads <- ra;
    v.Event.v_nreads <- nr;
    v.Event.v_writes <- wa;
    v.Event.v_nwrites <- nw
  end
  end

let decode_batch table b v f =
  for i = 0 to b.b_n - 1 do
    decode_into table b i v;
    f v
  done
