(** Events observed by instrumentation tools: the machine's reused
    {!view} and the {!exec} record built from it on demand; see the
    interface for the view's lifetime rule. *)

open Dift_isa

type fault_kind =
  | Div_by_zero
  | Invalid_icall of int  (** bad function id used as call target *)
  | Check_failed  (** a [Sys Check] assertion evaluated to zero *)
  | Invalid_free of int
  | Out_of_bounds of int
      (** heap access outside any live block (only with bounds
          checking enabled) *)

type fault = {
  kind : fault_kind;
  at_step : int;
  at_tid : int;
  at_func : string;
  at_pc : int;
}

(** Why a run ended. *)
type outcome =
  | Halted  (** a thread executed [Halt], or all threads finished *)
  | Faulted of fault
  | Deadlocked  (** live threads remain but none is runnable *)
  | Out_of_steps  (** the [max_steps] budget was exhausted *)
  | Stopped of string  (** a tool requested the stop (e.g. attack detected) *)

type exec = {
  step : int;  (** global dynamic instruction count; unique id *)
  tid : int;
  func : Func.t;
  pc : int;
  instr : Instr.t;
  reads : Loc.t list;
  writes : Loc.t list;
  addr : int;  (** effective address of a load/store, or [-1] *)
  next_pc : int;
      (** pc the thread continues at inside the same function, or [-1]
          when control leaves the function (call/ret/halt/exit) *)
  input_index : int;  (** index of the input word consumed, or [-1] *)
  value : int;  (** primary value produced/written, or [0] *)
}

let is_branch e = match e.instr with Instr.Br _ -> true | _ -> false

(* A mutable, array-backed form of [exec].  The read/write sets live
   in reused scratch arrays ([v_nreads]/[v_nwrites] valid prefixes)
   so the machine and the decoders can refill one view per event
   without allocating; [v_exec] caches the boxed record, so that views
   filled {e from} an exec hand the original back for free and every
   tool asking for the record of one event gets the same one. *)
type view = {
  mutable v_step : int;
  mutable v_tid : int;
  mutable v_func : Func.t;
  mutable v_pc : int;
  mutable v_instr : Instr.t;
  mutable v_reads : Loc.t array;
  mutable v_nreads : int;
  mutable v_writes : Loc.t array;
  mutable v_nwrites : int;
  mutable v_addr : int;
  mutable v_next_pc : int;
  mutable v_input_index : int;
  mutable v_value : int;
  mutable v_exec : exec option;
}

let view_create ~func ~instr =
  {
    v_step = 0;
    v_tid = 0;
    v_func = func;
    v_pc = 0;
    v_instr = instr;
    v_reads = Array.make 8 0;
    v_nreads = 0;
    v_writes = Array.make 8 0;
    v_nwrites = 0;
    v_addr = -1;
    v_next_pc = -1;
    v_input_index = -1;
    v_value = 0;
    v_exec = None;
  }

let placeholder = { Func.name = ""; arity = 0; body = [| Instr.Nop |] }
let view_blank () = view_create ~func:placeholder ~instr:Instr.Nop

(* Blit a loc list into a scratch array, growing it when needed;
   returns the (possibly fresh) array and the filled length. *)
let blit_locs arr (locs : Loc.t list) =
  let n = List.length locs in
  let arr =
    if Array.length arr >= n then arr
    else Array.make (max n ((2 * Array.length arr) + 4)) 0
  in
  let rec go i = function
    | [] -> ()
    | l :: rest ->
        arr.(i) <- l;
        go (i + 1) rest
  in
  go 0 locs;
  (arr, n)

let view_fill v (e : exec) =
  v.v_step <- e.step;
  v.v_tid <- e.tid;
  v.v_func <- e.func;
  v.v_pc <- e.pc;
  v.v_instr <- e.instr;
  let ra, rn = blit_locs v.v_reads e.reads in
  v.v_reads <- ra;
  v.v_nreads <- rn;
  let wa, wn = blit_locs v.v_writes e.writes in
  v.v_writes <- wa;
  v.v_nwrites <- wn;
  v.v_addr <- e.addr;
  v.v_next_pc <- e.next_pc;
  v.v_input_index <- e.input_index;
  v.v_value <- e.value;
  v.v_exec <- Some e

let view_of_exec e =
  let v = view_create ~func:e.func ~instr:e.instr in
  view_fill v e;
  v

(* The prefix [0, n) as a list, built back to front; the common short
   sets are built in one allocation, without a call per cell. *)
let rec locs_from (arr : Loc.t array) i acc =
  if i < 0 then acc else locs_from arr (i - 1) (arr.(i) :: acc)

let[@inline] locs_of (arr : Loc.t array) n =
  match n with
  | 0 -> []
  | 1 -> [ arr.(0) ]
  | 2 -> [ arr.(0); arr.(1) ]
  | _ -> locs_from arr (n - 1) []

(* The boxed record: the cached one, or one built fresh from the
   array prefixes — safe to retain past the next fill. *)
let view_record v =
  match v.v_exec with
  | Some e -> e
  | None ->
      {
        step = v.v_step;
        tid = v.v_tid;
        func = v.v_func;
        pc = v.v_pc;
        instr = v.v_instr;
        reads = locs_of v.v_reads v.v_nreads;
        writes = locs_of v.v_writes v.v_nwrites;
        addr = v.v_addr;
        next_pc = v.v_next_pc;
        input_index = v.v_input_index;
        value = v.v_value;
      }

let view_to_exec v =
  match v.v_exec with
  | Some e -> e
  | None ->
      let e = view_record v in
      v.v_exec <- Some e;
      e

let pp_fault_kind ppf = function
  | Div_by_zero -> Fmt.string ppf "division by zero"
  | Invalid_icall id -> Fmt.pf ppf "invalid indirect call (id %d)" id
  | Check_failed -> Fmt.string ppf "check failed"
  | Invalid_free a -> Fmt.pf ppf "invalid free (addr %d)" a
  | Out_of_bounds a -> Fmt.pf ppf "out-of-bounds access (addr %d)" a

let pp_fault ppf f =
  Fmt.pf ppf "%a at step %d (tid %d, %s:%d)" pp_fault_kind f.kind f.at_step
    f.at_tid f.at_func f.at_pc

let pp_outcome ppf = function
  | Halted -> Fmt.string ppf "halted"
  | Faulted f -> Fmt.pf ppf "faulted: %a" pp_fault f
  | Deadlocked -> Fmt.string ppf "deadlocked"
  | Out_of_steps -> Fmt.string ppf "out of steps"
  | Stopped r -> Fmt.pf ppf "stopped: %s" r

let pp_exec ppf e =
  Fmt.pf ppf "#%d t%d %s:%d %a" e.step e.tid e.func.Func.name e.pc Instr.pp
    e.instr
