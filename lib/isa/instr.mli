(** The instruction set.

    A small RISC-like ISA sufficient to express the paper's workloads:
    ALU operations, loads/stores, conditional branches with explicit
    taken/fallthrough targets (which makes CFG construction trivial),
    direct and indirect calls, and a family of "syscalls" covering
    input/output, threading, synchronisation and heap management — the
    same event surface a dynamic binary instrumentation tool observes
    on a real binary. *)

type alu_op =
  | Add
  | Sub
  | Mul
  | Div  (** traps on division by zero *)
  | Rem  (** traps on division by zero *)
  | And
  | Or
  | Xor
  | Shl
  | Shr

type cmp_op =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

(** System calls.  These are the boundary between the program and its
    environment; DIFT sources and several sinks live here. *)
type syscall =
  | Read of Reg.t
      (** [dst <- next input word]; yields [-1] when input is
          exhausted.  The canonical taint source. *)
  | Write of Operand.t  (** append a word to the program output *)
  | Spawn of Reg.t * string * Operand.t
      (** [tid_dst <- spawn f(arg)]: start a new thread running the
          named function with one argument in [r0]. *)
  | Join of Operand.t  (** block until the given thread terminates *)
  | Lock of Operand.t  (** acquire mutex (blocking) *)
  | Unlock of Operand.t  (** release mutex *)
  | Barrier_init of Operand.t * Operand.t
      (** [Barrier_init (id, parties)]: arm barrier [id] for [parties]
          participants. *)
  | Barrier of Operand.t  (** wait on barrier *)
  | Alloc of Reg.t * Operand.t
      (** [dst <- address of a fresh heap block of the given size] *)
  | Free of Operand.t  (** release a heap block by base address *)
  | Tid of Reg.t  (** [dst <- current thread id] *)
  | Check of Operand.t
      (** program-level assertion: raises a fault when the operand
          evaluates to zero.  Used to model observable failures. *)
  | Mark of int * Operand.t
      (** [Mark (channel, value)]: semantically a no-op, but visible
          to tools and to the event logger.  Workloads use it to
          announce request boundaries — the syscall-level information
          a checkpointing/logging system records cheaply. *)
  | Exit  (** terminate the current thread *)

type t =
  | Nop
  | Mov of Reg.t * Operand.t
  | Binop of alu_op * Reg.t * Operand.t * Operand.t
  | Cmp of cmp_op * Reg.t * Operand.t * Operand.t
      (** [dst <- 1] if the comparison holds, else [0] *)
  | Load of Reg.t * Operand.t * int
      (** [Load (dst, base, off)]: [dst <- mem\[base + off\]] *)
  | Store of Operand.t * Operand.t * int
      (** [Store (src, base, off)]: [mem\[base + off\] <- src] *)
  | Jmp of int  (** unconditional jump to instruction index *)
  | Br of Operand.t * int * int
      (** [Br (cond, taken, fallthrough)]: go to [taken] when [cond]
          is non-zero, else to [fallthrough]. *)
  | Call of string * Reg.t option
      (** direct call; arguments are in [r0..]; the optional register
          receives the callee's return value. *)
  | Icall of Operand.t * Reg.t option
      (** indirect call through a function id (see
          {!Program.func_id}); the canonical control-flow hijack
          sink. *)
  | Ret of Operand.t option
  | Sys of syscall
  | Halt  (** stop the whole machine *)

val alu_op_to_string : alu_op -> string
val cmp_op_to_string : cmp_op -> string

(** Evaluate an ALU operation on two words; [None] on division or
    remainder by zero (a machine fault). *)
val eval_alu : alu_op -> int -> int -> int option

(** Whether [op] with right operand [b] is a division or remainder by
    zero — exactly when {!eval_alu} returns [None]. *)
val alu_faults : alu_op -> int -> bool

(** {!eval_alu} without the option, for callers that checked
    {!alu_faults} first (an interpreter's hot path).
    @raise Division_by_zero when {!alu_faults} holds. *)
val alu : alu_op -> int -> int -> int

(** Evaluate a comparison: [1] when it holds, [0] otherwise. *)
val eval_cmp : cmp_op -> int -> int -> int

(** Registers read by an instruction (before execution). *)
val uses : t -> Reg.t list

(** Register defined (written) by an instruction, if any. *)
val def : t -> Reg.t option

(** True for instructions that terminate a basic block. *)
val is_terminator : t -> bool

val pp_syscall : syscall Fmt.t
val pp : t Fmt.t
val to_string : t -> string
