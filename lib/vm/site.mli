(** Static-site interning: a dense integer id for every [(function,
    pc)] site of a program, mapping to an immutable side-table row
    that carries everything {e static} about the site — the
    instruction, its register read/write shape pre-encoded as
    location offsets, and its source/sink class.

    The de-boxed forwarding plane ({!Dift_parallel.Codec}) builds one
    table per run at load time and shares it with every helper once;
    per-event wire traffic then shrinks to the dynamic-only fields
    plus a site id.  Ids are assigned in function-id order, [base
    (func) + pc], so the table is an array and lookup is one load.
    The base is found by the function's physical identity, never by
    its name. *)

open Dift_isa

(** What a site's address lane carries on the wire. *)
type lane =
  | No_lane  (** nothing: the event's address and input index are [-1] *)
  | Addr_lane  (** a Load's or Store's address; the input index is [-1] *)
  | Input_lane  (** a [Read]'s input index; the address is [-1] *)

type row = {
  s_func : Func.t;
  s_pc : int;
  s_instr : Instr.t;
  s_read_offs : int array;
      (** frame-relative location offsets of the registers
          {!Instr.uses} reads, in event order: register [r]'s location
          in frame [f] is [f * frame_stride + reg_off r] *)
  s_write_offs : int array;
      (** same, for the register {!Instr.def} writes (0 or 1 entry) *)
  s_mem_read : bool;  (** a Load: reads end with the memory cell *)
  s_mem_write : bool;  (** a Store: writes are the memory cell *)
  s_nreads : int;
      (** the length of a frame-compact read set: the register
          offsets, plus the memory cell of a Load *)
  s_nwrites : int;
      (** the length of a frame-compact write set: the register
          offset, or the memory cell of a Store *)
  s_lane : lane;
      (** [Addr_lane] exactly at Load and Store, [Input_lane]
          exactly at {!s_input} sites *)
  s_input : bool;  (** a taint source ([Sys Read]) *)
  s_sink : bool;
      (** the transfer function reports a sink for every event of this
          site (branch, load/store address, icall target, output,
          check) — tainted or not, so such events can never be
          filtered *)
  s_filterable : bool;  (** neither {!s_input} nor {!s_sink} *)
  s_next_pc : int;
      (** the event's [next_pc] when the site completes normally: the
          jump target of [Jmp], the fall-through of [Br], [-1] for the
          call forms, the site's own pc for [Ret], [Halt] and [Exit],
          and [pc + 1] otherwise.  Faults, and a [Barrier] that must
          wait, report their own pc instead. *)
  s_taken_pc : int;
      (** the taken target of [Br]; {!s_next_pc} at every other site *)
}

type table

(** Intern every site of the program (one row per static
    instruction). *)
val of_program : Program.t -> table

(** Total number of sites (= static instruction count). *)
val size : table -> int

(** First site id of a function of the program — its pc [p] site is
    [base + p] for [0 <= p < Func.length f] — or [-1] when [f] is not
    {e physically} one of the program's functions (a structurally
    equal copy is foreign).  A scan of the table's dense function
    index, built once by {!of_program}; the codec's fidelity check
    calls it on every function switch. *)
val base_of_func : table -> Func.t -> int

val row : table -> int -> row

(** Every row, indexed by site id — the table's own array, not a copy,
    for consumers that index it per event; never mutate it. *)
val rows : table -> row array

(** Distance between the same register in consecutive activation
    frames, in location units ([Reg.count lsl 1]), a power of two. *)
val frame_stride : int

(** [log2 frame_stride]: a register location [l] of frame [f] with
    offset [off] splits as [f = (l - off) lsr frame_shift]. *)
val frame_shift : int

(** Frame-relative location offset of a register. *)
val reg_off : Reg.t -> int

val is_input_instr : Instr.t -> bool
val is_sink_instr : Instr.t -> bool

(** Whether the producer-side liveness filter is allowed to drop
    events of this instruction when their locations cannot intersect
    live taint (see {!Dift_parallel.Livefilter}): true exactly when
    the instruction is neither a source nor a sink. *)
val filterable_instr : Instr.t -> bool
