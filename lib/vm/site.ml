(** Static-site interning: a dense id per [(function, pc)] site.

    See the interface for the contract.  Row construction derives the
    static shape from {!Instr.uses}/{!Instr.def}, which the machine's
    event builder mirrors for every straight-line instruction.  Each
    row also carries the facts the codec's per-event check needs, so
    that check is one straight-line pass: the compact set lengths
    (memory cell included) and what the address lane carries.  The
    codec compares the counts, then the memory cell and every
    register location against one frame, and falls back to an
    explicit encoding when the dynamic shape diverges (call
    boundaries, faults). *)

open Dift_isa

type lane = No_lane | Addr_lane | Input_lane

type row = {
  s_func : Func.t;
  s_pc : int;
  s_instr : Instr.t;
  s_read_offs : int array;
  s_write_offs : int array;
  s_mem_read : bool;
  s_mem_write : bool;
  s_nreads : int;
  s_nwrites : int;
  s_lane : lane;
  s_input : bool;
  s_sink : bool;
  s_filterable : bool;
  s_next_pc : int;
  s_taken_pc : int;
}

type table = {
  rows : row array;
  funcs : Func.t array;  (** the program's functions, in id order *)
  bases : int array;  (** [bases.(i)] is the first site id of [funcs.(i)] *)
}

(* Register location [r] of frame [f] is
   [((f * Reg.count + index r) lsl 1) lor 1
    = f * frame_stride + reg_off r]. *)
let frame_stride = Reg.count lsl 1

let frame_shift =
  let rec log2 k = if 1 lsl k >= frame_stride then k else log2 (k + 1) in
  log2 0

(* the codec splits locations with a mask and a shift *)
let () = assert (frame_stride = 1 lsl frame_shift)

let reg_off r = (Reg.index r lsl 1) lor 1

let is_input_instr = function
  | Instr.Sys (Instr.Read _) -> true
  | _ -> false

let is_sink_instr = function
  | Instr.Br _ | Instr.Load _ | Instr.Store _ | Instr.Icall _
  | Instr.Sys (Instr.Write _)
  | Instr.Sys (Instr.Check _) ->
      true
  | _ -> false

(* A site whose events the producer-side liveness filter may drop when
   their locations cannot intersect live taint: neither a source (the
   engine counts sources and injects taint there) nor a sink (the sink
   handler fires for every sink event, tainted or not — the trace hash
   mixes them all). *)
let filterable_instr i = not (is_input_instr i || is_sink_instr i)

(* Where the machine continues after the site when it completes
   normally: a branch falls through, a call leaves the function, and
   [Ret], [Halt] and [Exit] report their own pc. *)
let static_next pc = function
  | Instr.Jmp t -> t
  | Instr.Br (_, _, f) -> f
  | Instr.Call _ | Instr.Icall _ -> -1
  | Instr.Ret _ | Instr.Halt | Instr.Sys Instr.Exit -> pc
  | _ -> pc + 1

let row_of func pc instr =
  let next = static_next pc instr in
  let read_offs = Array.of_list (List.map reg_off (Instr.uses instr)) in
  let write_offs =
    match Instr.def instr with Some d -> [| reg_off d |] | None -> [||]
  in
  let mem_read = match instr with Instr.Load _ -> true | _ -> false in
  let mem_write = match instr with Instr.Store _ -> true | _ -> false in
  let input = is_input_instr instr in
  let cell b = if b then 1 else 0 in
  {
    s_func = func;
    s_pc = pc;
    s_instr = instr;
    s_read_offs = read_offs;
    s_write_offs = write_offs;
    s_mem_read = mem_read;
    s_mem_write = mem_write;
    s_nreads = Array.length read_offs + cell mem_read;
    s_nwrites = Array.length write_offs + cell mem_write;
    s_lane =
      (if mem_read || mem_write then Addr_lane
       else if input then Input_lane
       else No_lane);
    s_input = input;
    s_sink = is_sink_instr instr;
    s_filterable = filterable_instr instr;
    s_next_pc = next;
    s_taken_pc = (match instr with Instr.Br (_, t, _) -> t | _ -> next);
  }

let of_program p =
  let funcs = Array.of_list (Program.functions p) in
  let bases = Array.make (Array.length funcs) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i (f : Func.t) ->
      bases.(i) <- !total;
      total := !total + Array.length f.Func.body)
    funcs;
  (* programs have at least one function with at least one instruction
     (Program.make / Func.make validate that) *)
  let f0 = funcs.(0) in
  let rows = Array.make !total (row_of f0 0 f0.Func.body.(0)) in
  Array.iteri
    (fun i (f : Func.t) ->
      Array.iteri (fun pc instr -> rows.(bases.(i) + pc) <- row_of f pc instr)
        f.Func.body)
    funcs;
  { rows; funcs; bases }

let size t = Array.length t.rows

let base_of_func t f =
  let rec find i =
    if i >= Array.length t.funcs then -1
    else if t.funcs.(i) == f then t.bases.(i)
    else find (i + 1)
  in
  find 0

let row t i = t.rows.(i)
let rows t = t.rows
