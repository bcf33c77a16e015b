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

(** System calls. These are the boundary between the program and its
    environment; DIFT sources and several sinks live here. *)
type syscall =
  | Read of Reg.t
      (** [dst <- next input word]; yields [-1] when input is exhausted.
          This is the canonical taint source. *)
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
      (** [Mark (channel, value)]: semantically a no-op, but visible to
          tools and to the event logger.  Workloads use it to announce
          request boundaries and coarse resource accesses — the
          syscall-level information a checkpointing/logging system
          records cheaply. *)
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
      (** indirect call through a function id (see {!Program.func_id});
          the canonical control-flow hijack sink. *)
  | Ret of Operand.t option
  | Sys of syscall
  | Halt  (** stop the whole machine *)

let alu_op_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmp_op_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

(* Division and remainder by zero: the one ALU machine fault. *)
let alu_faults op b =
  b = 0 && match op with Div | Rem -> true | _ -> false

let alu op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> a / b
  | Rem -> a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl ->
      let s = b land 63 in
      if s >= 63 then 0 else a lsl s
  | Shr ->
      let s = b land 63 in
      if s >= 63 then (if a < 0 then -1 else 0) else a asr s

(** Evaluate an ALU operation on two words.  Division and remainder by
    zero are reported to the caller as [None] (machine fault). *)
let eval_alu op a b = if alu_faults op b then None else Some (alu op a b)

let eval_cmp op a b =
  let holds =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
  in
  if holds then 1 else 0

(** Registers read by an instruction (before execution). *)
let uses = function
  | Nop | Halt | Jmp _ -> []
  | Mov (_, src) -> Operand.regs src
  | Binop (_, _, a, b) | Cmp (_, _, a, b) -> Operand.regs a @ Operand.regs b
  | Load (_, base, _) -> Operand.regs base
  | Store (src, base, _) -> Operand.regs src @ Operand.regs base
  | Br (c, _, _) -> Operand.regs c
  | Call (_, _) -> []
  | Icall (f, _) -> Operand.regs f
  | Ret src -> ( match src with Some o -> Operand.regs o | None -> [])
  | Sys s -> (
      match s with
      | Read _ | Tid _ | Exit -> []
      | Write o | Join o | Lock o | Unlock o | Barrier o | Free o | Check o
      | Mark (_, o) ->
          Operand.regs o
      | Spawn (_, _, arg) -> Operand.regs arg
      | Barrier_init (a, b) -> Operand.regs a @ Operand.regs b
      | Alloc (_, size) -> Operand.regs size)

(** Register defined (written) by an instruction, if any. *)
let def = function
  | Mov (d, _) | Binop (_, d, _, _) | Cmp (_, d, _, _) | Load (d, _, _) ->
      Some d
  | Call (_, d) | Icall (_, d) -> d
  | Sys (Read d) | Sys (Spawn (d, _, _)) | Sys (Alloc (d, _)) | Sys (Tid d)
    ->
      Some d
  | Nop | Store _ | Jmp _ | Br _ | Ret _ | Halt
  | Sys
      ( Write _ | Join _ | Lock _ | Unlock _ | Barrier_init _ | Barrier _
      | Free _ | Check _ | Mark _ | Exit ) ->
      None

(** True for instructions that terminate a basic block. *)
let is_terminator = function
  | Jmp _ | Br _ | Ret _ | Halt | Sys Exit -> true
  | Nop | Mov _ | Binop _ | Cmp _ | Load _ | Store _ | Call _ | Icall _
  | Sys _ ->
      false

let pp_syscall ppf = function
  | Read d -> Fmt.pf ppf "read %a" Reg.pp d
  | Write o -> Fmt.pf ppf "write %a" Operand.pp o
  | Spawn (d, f, a) -> Fmt.pf ppf "%a <- spawn %s(%a)" Reg.pp d f Operand.pp a
  | Join o -> Fmt.pf ppf "join %a" Operand.pp o
  | Lock o -> Fmt.pf ppf "lock %a" Operand.pp o
  | Unlock o -> Fmt.pf ppf "unlock %a" Operand.pp o
  | Barrier_init (i, n) ->
      Fmt.pf ppf "barrier_init %a %a" Operand.pp i Operand.pp n
  | Barrier o -> Fmt.pf ppf "barrier %a" Operand.pp o
  | Alloc (d, s) -> Fmt.pf ppf "%a <- alloc %a" Reg.pp d Operand.pp s
  | Free o -> Fmt.pf ppf "free %a" Operand.pp o
  | Tid d -> Fmt.pf ppf "%a <- tid" Reg.pp d
  | Check o -> Fmt.pf ppf "check %a" Operand.pp o
  | Mark (c, v) -> Fmt.pf ppf "mark %d %a" c Operand.pp v
  | Exit -> Fmt.pf ppf "exit"

let pp ppf = function
  | Nop -> Fmt.pf ppf "nop"
  | Mov (d, s) -> Fmt.pf ppf "%a <- %a" Reg.pp d Operand.pp s
  | Binop (op, d, a, b) ->
      Fmt.pf ppf "%a <- %s %a %a" Reg.pp d (alu_op_to_string op) Operand.pp a
        Operand.pp b
  | Cmp (op, d, a, b) ->
      Fmt.pf ppf "%a <- %s %a %a" Reg.pp d (cmp_op_to_string op) Operand.pp a
        Operand.pp b
  | Load (d, b, off) -> Fmt.pf ppf "%a <- mem[%a + %d]" Reg.pp d Operand.pp b off
  | Store (s, b, off) ->
      Fmt.pf ppf "mem[%a + %d] <- %a" Operand.pp b off Operand.pp s
  | Jmp t -> Fmt.pf ppf "jmp @%d" t
  | Br (c, t, f) -> Fmt.pf ppf "br %a ? @%d : @%d" Operand.pp c t f
  | Call (f, Some d) -> Fmt.pf ppf "%a <- call %s" Reg.pp d f
  | Call (f, None) -> Fmt.pf ppf "call %s" f
  | Icall (f, Some d) -> Fmt.pf ppf "%a <- icall %a" Reg.pp d Operand.pp f
  | Icall (f, None) -> Fmt.pf ppf "icall %a" Operand.pp f
  | Ret (Some o) -> Fmt.pf ppf "ret %a" Operand.pp o
  | Ret None -> Fmt.pf ppf "ret"
  | Sys s -> pp_syscall ppf s
  | Halt -> Fmt.pf ppf "halt"

let to_string i = Fmt.str "%a" pp i
