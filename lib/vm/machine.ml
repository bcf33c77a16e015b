(** The virtual machine: a multithreaded interpreter for {!Dift_isa}
    programs with an instrumentation-tool interface, deterministic
    seeded scheduling, a replayable schedule/input log, cycle-cost
    accounting and whole-state checkpointing.

    This is the substitute for the dynamic binary instrumentation
    substrate (Pin/Valgrind) used by the paper: tools attached to the
    machine observe exactly the event stream a DBI plugin would. *)

open Dift_isa

type config = {
  seed : int;  (** scheduler PRNG seed *)
  quantum_min : int;  (** min instructions between preemption points *)
  quantum_max : int;
  max_steps : int;  (** step budget before [Out_of_steps] *)
  heap_padding : int;  (** slack added to every allocation *)
  check_bounds : bool;  (** fault on heap accesses outside live blocks *)
  schedule : (int * int) list option;
      (** replay mode: the switch list recorded by a previous run *)
  input_override : (int * int) list;
      (** replay-with-edits: pairs [(index, value)] replacing specific
          input words (the avoidance framework's "malformed request"
          patch) *)
  flip_steps : int list;
      (** dynamic branch instances (by step) whose outcome is inverted —
          the predicate-switching mechanism of §3.1 *)
  value_replacements : (int * int) list;
      (** [(step, v)]: the value produced at dynamic step [step] is
          replaced by [v] — the value-replacement mechanism of §3.1 *)
}

let default_config =
  {
    seed = 42;
    quantum_min = 20;
    quantum_max = 120;
    max_steps = 200_000_000;
    heap_padding = 0;
    check_bounds = false;
    schedule = None;
    input_override = [];
    flip_steps = [];
    value_replacements = [];
  }

type block_resume = Retry | Advance

type status =
  | Runnable
  | Blocked of block_resume
  | Finished

type activation = {
  serial : int;
  loc_base : Loc.t;
      (** location of register 0 in this frame; register [r]'s is
          [loc_base + 2 * r] (the {!Loc} encoding is linear in the
          register index) *)
  func : Func.t;
  mutable pc : int;
  regs : int array;
  ret_dst : Reg.t option;
  caller : activation option;
}

type thread = {
  tid : int;
  mutable act : activation;
  mutable status : status;
}

type mutex = { mutable owner : int option; mutable waiters : int list }

type barrier = {
  mutable parties : int;
  mutable arrived : int;
  mutable waiting : int list;
}

type t = {
  program : Program.t;
  config : config;
  mem : Memory.t;
  mutable threads : thread list;  (** in spawn order *)
  mutable next_tid : int;
  mutable next_serial : int;
  mutexes : (int, mutex) Hashtbl.t;
  barriers : (int, barrier) Hashtbl.t;
  input : int array;
  mutable input_pos : int;
  mutable rev_output : (int * int) list;  (** (step, value) *)
  mutable step_count : int;
  mutable cycles : int;
  mutable tools : Tool.t list;
  rng : Random.State.t;
  mutable current : int;  (** tid currently scheduled *)
  mutable current_th : thread option;
      (** [thread m current], memoised: valid while its tid is
          [current] (see {!current_thread}) *)
  mutable quantum_left : int;
  mutable rev_switches : (int * int) list;  (** (step, tid) choices *)
  mutable replay_sched : (int * int) list;  (** remaining switches *)
  mutable rev_inputs : (int * int * int) list;  (** (step, index, value) *)
  mutable stop_request : string option;
  mutable outcome : Event.outcome option;
  mutable dispatch_cycles : int;
      (** summed per-instruction dispatch cost of the attached tools *)
  mutable step_cost : (Event.view -> int) option;
      (** base cost of executing one instruction, {!Cost.base_instr}
          when [None]; replay harnesses override it to fast-forward
          log-applied (irrelevant) regions *)
  view : Event.view;
      (** the one event: refilled in place for every instruction and
          handed to every tool *)
}

exception Replay_divergence of string

let fresh_activation m func ~ret_dst ~caller =
  let serial = m.next_serial in
  m.next_serial <- serial + 1;
  {
    serial;
    loc_base = Loc.reg ~frame:serial Reg.r0;
    func;
    pc = 0;
    regs = Array.make Reg.count 0;
    ret_dst;
    caller;
  }

(* The machine's view, with scratch arrays that hold the widest event
   without growing: a call reads every argument register plus an
   indirect target, and writes every callee argument register. *)
let event_view program =
  let v =
    Event.view_create
      ~func:(Program.find program (Program.entry program))
      ~instr:Instr.Nop
  in
  v.Event.v_reads <- Array.make (Reg.count + 2) 0;
  v.Event.v_writes <- Array.make (Reg.count + 2) 0;
  v

let create ?(config = default_config) program ~input =
  let input =
    if config.input_override = [] then input
    else begin
      let a = Array.copy input in
      List.iter
        (fun (i, v) -> if i >= 0 && i < Array.length a then a.(i) <- v)
        config.input_override;
      a
    end
  in
  let m =
    {
      program;
      config;
      mem = Memory.create ~padding:config.heap_padding ();
      threads = [];
      next_tid = 0;
      next_serial = 0;
      mutexes = Hashtbl.create 16;
      barriers = Hashtbl.create 16;
      input;
      input_pos = 0;
      rev_output = [];
      step_count = 0;
      cycles = 0;
      tools = [];
      rng = Random.State.make [| config.seed |];
      current = 0;
      current_th = None;
      quantum_left = 0;
      rev_switches = [];
      replay_sched = (match config.schedule with Some s -> s | None -> []);
      rev_inputs = [];
      stop_request = None;
      outcome = None;
      dispatch_cycles = 0;
      step_cost = None;
      view = event_view program;
    }
  in
  let main = Program.find program (Program.entry program) in
  let act = fresh_activation m main ~ret_dst:None ~caller:None in
  m.threads <- [ { tid = 0; act; status = Runnable } ];
  m.next_tid <- 1;
  m

let attach m tool =
  m.tools <- m.tools @ [ tool ];
  m.dispatch_cycles <- m.dispatch_cycles + tool.Tool.dispatch_cost

(** Override the per-instruction base cost (replay fast-forwarding). *)
let set_step_cost m f = m.step_cost <- Some f

(** Charge extra modelled cycles (used by tools for their overhead). *)
let charge m n = m.cycles <- m.cycles + n

let program m = m.program
let memory m = m.mem
let cycles m = m.cycles
let steps m = m.step_count

(** Program output, oldest first, as [(step, value)] pairs. *)
let output m = List.rev m.rev_output

let output_values m = List.map snd (output m)

(** The recorded scheduling choices, oldest first. *)
let schedule_log m = List.rev m.rev_switches

(** The recorded input reads, oldest first: [(step, index, value)]. *)
let input_log m = List.rev m.rev_inputs

(** Ask the machine to stop after the current instruction; the run's
    outcome becomes [Stopped reason].  For tools such as the attack
    detector. *)
let request_stop m reason =
  if m.stop_request = None then m.stop_request <- Some reason

let thread m tid = List.find_opt (fun t -> t.tid = tid) m.threads

(* The scheduled thread.  The lookup reruns only after a switch (or a
   restore, which clears the memo); every other step returns the
   memoised option itself, without allocating. *)
let current_thread m =
  match m.current_th with
  | Some t as cached when t.tid = m.current -> cached
  | Some _ | None ->
      let found = thread m m.current in
      m.current_th <- found;
      found

let is_runnable t =
  match t.status with Runnable -> true | Blocked _ | Finished -> false

let is_replay m = match m.config.schedule with Some _ -> true | None -> false

(* -- state fingerprinting (for replay determinism tests) -------------- *)

(** A hash of the externally observable machine state: memory contents
    and program output.  Two runs with equal fingerprints behaved
    identically as far as the program semantics is concerned. *)
let fingerprint m =
  (* every cell and every output counts: the cells as an
     order-independent sum of their hashes, the outputs folded in
     order (a structural hash of the lists would read only their first
     few values) *)
  let cells =
    Hashtbl.fold (fun a v acc -> acc + Hashtbl.hash (a, v)) m.mem.Memory.cells 0
  in
  let output =
    List.fold_left (fun acc o -> Hashtbl.hash (acc, o)) 0 m.rev_output
  in
  Hashtbl.hash (cells, output, m.input_pos)

(* -- operand evaluation ------------------------------------------------ *)

let idx (r : Reg.t) = (r :> int)

(* = [Loc.reg ~frame:act.serial r], without a call per register *)
let reg_loc act r = act.loc_base + (idx r lsl 1)

let operand_value act = function
  | Operand.Imm n -> n
  | Operand.Reg r -> act.regs.(idx r)

(* Value replacement (§3.1): substitute the value produced at a chosen
   dynamic step. *)
let substitute m v =
  match m.config.value_replacements with
  | [] -> v
  | rs -> ( match List.assoc_opt m.step_count rs with Some v' -> v' | None -> v)

(* Whether a load/store at [addr >= 0] may proceed: always, unless
   bounds checking is on and [addr] is a heap address outside every
   live block. *)
let accessible m addr =
  (not (m.config.check_bounds && Memory.in_heap m.mem addr))
  || Option.is_some (Memory.block_of m.mem addr)

(* -- faults ------------------------------------------------------------ *)

(* Every call site runs right after the faulting instruction's event
   was emitted (and the step counter advanced), so the faulting
   instance is [step_count - 1]. *)
let fault m th kind =
  let f =
    {
      Event.kind;
      at_step = m.step_count - 1;
      at_tid = th.tid;
      at_func = th.act.func.Func.name;
      at_pc = th.act.pc;
    }
  in
  List.iter (fun (t : Tool.t) -> t.Tool.on_fault f) m.tools;
  m.outcome <- Some (Event.Faulted f)

(* -- event emission ---------------------------------------------------- *)

type step_result =
  | Executed
  | Did_block  (** thread could not proceed; nothing was emitted *)

(* Read and write sets go straight into the view's arrays, in the
   order tools have always seen them (operands left to right, a load's
   memory cell after its address register).  [exec_instr] empties both
   before each instruction. *)
let[@inline] add_read (v : Event.view) l =
  let n = v.Event.v_nreads in
  v.Event.v_reads.(n) <- l;
  v.Event.v_nreads <- n + 1

let[@inline] add_write (v : Event.view) l =
  let n = v.Event.v_nwrites in
  v.Event.v_writes.(n) <- l;
  v.Event.v_nwrites <- n + 1

let[@inline] add_operand v act = function
  | Operand.Imm _ -> ()
  | Operand.Reg r -> add_read v (reg_loc act r)

let rec emit_to (v : Event.view) = function
  | [] -> ()
  | (t : Tool.t) :: rest ->
      t.Tool.on_view v;
      emit_to v rest

(* Complete the view's scalar fields, account the instruction and hand
   the view to the tools.  Plain labelled arguments, so that no closure
   or option is built per instruction. *)
let dispatch m th instr ~func ~pc ~addr ~input_index ~value ~next_pc =
  let v = m.view in
  v.Event.v_step <- m.step_count;
  v.Event.v_tid <- th.tid;
  v.Event.v_pc <- pc;
  v.Event.v_addr <- addr;
  v.Event.v_next_pc <- next_pc;
  v.Event.v_input_index <- input_index;
  v.Event.v_value <- value;
  (* pointer fields pay a write barrier: the function only when it
     changes, the record only when a tool asked for the last event's,
     the instruction last, with little left to spill *)
  if v.Event.v_func != func then v.Event.v_func <- func;
  (match v.Event.v_exec with Some _ -> v.Event.v_exec <- None | None -> ());
  v.Event.v_instr <- instr;
  m.step_count <- m.step_count + 1;
  let base =
    match m.step_cost with None -> Cost.base_instr | Some f -> f v
  in
  m.cycles <- m.cycles + base + m.dispatch_cycles;
  emit_to v m.tools

(* The event of the instruction at [th]'s current site, whose read and
   write sets are already in the view; the thread then continues at
   [next_pc].  Every instruction except the two call forms (whose
   event reports the call site after the pc has moved) is emitted
   through here. *)
let emit m th instr ~addr ~input_index ~value ~next_pc =
  let act = th.act in
  let pc = act.pc in
  act.pc <- next_pc;
  dispatch m th instr ~func:act.func ~pc ~addr ~input_index ~value ~next_pc;
  Executed

(* No memory address and no input word: every shape but Load, Store and
   Read. *)
let emit_plain m th instr ~value ~next_pc =
  emit m th instr ~addr:(-1) ~input_index:(-1) ~value ~next_pc

(* A faulting instruction: its event (reads only) is emitted first, so
   slicing can start from it, and the thread stays at the pc. *)
let emit_fault m th instr ~value kind =
  let r = emit_plain m th instr ~value ~next_pc:th.act.pc in
  fault m th kind;
  r

(* Most system instructions: one operand read, its value reported. *)
let emit_one m th instr o ~value ~next_pc =
  add_operand m.view th.act o;
  emit_plain m th instr ~value ~next_pc

(* A call target that reads no register: a direct call has none. *)
let no_target = Operand.Imm 0

(* The call forms.  The event reports the call site while the caller's
   pc already points past it; reads are the caller's argument
   registers, in order, followed by [target]'s register, writes the
   callee's argument registers in the same order — tools rely on this
   pairwise alignment. *)
let emit_call m th instr callee ~ret_dst ~target ~value =
  let act = th.act in
  let site_pc = act.pc in
  act.pc <- site_pc + 1;
  let callee_act = fresh_activation m callee ~ret_dst ~caller:(Some act) in
  let v = m.view in
  for i = 0 to callee.Func.arity - 1 do
    callee_act.regs.(i) <- act.regs.(i);
    add_read v (act.loc_base + (i lsl 1));
    add_write v (callee_act.loc_base + (i lsl 1))
  done;
  add_operand v act target;
  th.act <- callee_act;
  dispatch m th instr ~func:act.func ~pc:site_pc ~addr:(-1) ~input_index:(-1)
    ~value ~next_pc:(-1);
  Executed

(* -- thread completion ------------------------------------------------- *)

let finish_thread m th =
  th.status <- Finished;
  (* Joiners blocked on this thread retry their Join and now succeed.
     Only threads blocked *at a Join instruction* are woken; lock and
     barrier waiters keep waiting for their own wake conditions. *)
  List.iter
    (fun t ->
      match t.status with
      | Blocked Retry -> (
          match Func.instr t.act.func t.act.pc with
          | Instr.Sys (Instr.Join _) -> t.status <- Runnable
          | _ -> ())
      | Blocked Advance | Runnable | Finished -> ())
    m.threads

(* -- instruction execution --------------------------------------------- *)

(* Wakes every thread blocked in Retry mode; used after unlocks.  The
   woken threads re-attempt their blocking instruction when next
   scheduled and re-block if the condition still does not hold.  This
   models contended acquisition and keeps wake bookkeeping simple. *)
let wake_retriers m tids =
  List.iter
    (fun t ->
      if List.mem t.tid tids then
        match t.status with
        | Blocked Retry -> t.status <- Runnable
        | Blocked Advance | Runnable | Finished -> ())
    m.threads

let get_mutex m id =
  match Hashtbl.find_opt m.mutexes id with
  | Some mu -> mu
  | None ->
      let mu = { owner = None; waiters = [] } in
      Hashtbl.replace m.mutexes id mu;
      mu

let get_barrier m id =
  match Hashtbl.find_opt m.barriers id with
  | Some b -> b
  | None ->
      let b = { parties = 0; arrived = 0; waiting = [] } in
      Hashtbl.replace m.barriers id b;
      b

(* Executes one instruction of [th].  Returns [Did_block] if the thread
   must wait (no event emitted, pc unchanged), otherwise emits the exec
   event and advances state.  Sets [m.outcome] on halting/faulting. *)
let rec exec_instr m th =
  let act = th.act in
  let ins = act.func.Func.body.(act.pc) in
  let next = act.pc + 1 in
  let v = m.view in
  v.Event.v_nreads <- 0;
  v.Event.v_nwrites <- 0;
  match ins with
  | Instr.Nop -> emit_plain m th ins ~value:0 ~next_pc:next
  | Instr.Mov (d, s) ->
      let x = substitute m (operand_value act s) in
      act.regs.(idx d) <- x;
      add_operand v act s;
      add_write v (reg_loc act d);
      emit_plain m th ins ~value:x ~next_pc:next
  | Instr.Binop (op, d, a, b) ->
      let va = operand_value act a and vb = operand_value act b in
      add_operand v act a;
      add_operand v act b;
      if Instr.alu_faults op vb then
        emit_fault m th ins ~value:0 Event.Div_by_zero
      else begin
        let x = substitute m (Instr.alu op va vb) in
        act.regs.(idx d) <- x;
        add_write v (reg_loc act d);
        emit_plain m th ins ~value:x ~next_pc:next
      end
  | Instr.Cmp (op, d, a, b) ->
      let va = operand_value act a and vb = operand_value act b in
      let x = substitute m (Instr.eval_cmp op va vb) in
      act.regs.(idx d) <- x;
      add_operand v act a;
      add_operand v act b;
      add_write v (reg_loc act d);
      emit_plain m th ins ~value:x ~next_pc:next
  | Instr.Load (d, base, off) ->
      let addr = operand_value act base + off in
      add_operand v act base;
      if addr < 0 || not (accessible m addr) then
        emit_fault m th ins ~value:0 (Event.Out_of_bounds addr)
      else begin
        let x = substitute m (Memory.read m.mem addr) in
        act.regs.(idx d) <- x;
        add_read v (Loc.mem addr);
        add_write v (reg_loc act d);
        emit m th ins ~addr ~input_index:(-1) ~value:x ~next_pc:next
      end
  | Instr.Store (src, base, off) ->
      let addr = operand_value act base + off in
      add_operand v act src;
      add_operand v act base;
      if addr < 0 || not (accessible m addr) then
        emit_fault m th ins ~value:0 (Event.Out_of_bounds addr)
      else begin
        let vs = substitute m (operand_value act src) in
        Memory.write m.mem addr vs;
        add_write v (Loc.mem addr);
        emit m th ins ~addr ~input_index:(-1) ~value:vs ~next_pc:next
      end
  | Instr.Jmp t -> emit_plain m th ins ~value:0 ~next_pc:t
  | Instr.Br (c, t, f) ->
      let x = operand_value act c in
      let taken = if x <> 0 then t else f in
      let taken =
        match m.config.flip_steps with
        | [] -> taken
        | flips ->
            if List.mem m.step_count flips then if taken = t then f else t
            else taken
      in
      add_operand v act c;
      emit_plain m th ins ~value:x ~next_pc:taken
  | Instr.Call (fname, ret_dst) ->
      emit_call m th ins (Program.find m.program fname) ~ret_dst
        ~target:no_target ~value:0
  | Instr.Icall (fop, ret_dst) -> (
      let fid = operand_value act fop in
      match Program.func_of_id m.program fid with
      | None ->
          add_operand v act fop;
          emit_fault m th ins ~value:fid (Event.Invalid_icall fid)
      | Some callee -> emit_call m th ins callee ~ret_dst ~target:fop ~value:fid)
  | Instr.Ret src -> (
      let x =
        match src with
        | Some o ->
            add_operand v act o;
            operand_value act o
        | None -> 0
      in
      match act.caller with
      | None ->
          let r = emit_plain m th ins ~value:x ~next_pc:act.pc in
          finish_thread m th;
          r
      | Some caller ->
          (match act.ret_dst with
          | Some d ->
              caller.regs.(idx d) <- x;
              add_write v (reg_loc caller d)
          | None -> ());
          let r = emit_plain m th ins ~value:x ~next_pc:act.pc in
          th.act <- caller;
          r)
  | Instr.Halt ->
      let r = emit_plain m th ins ~value:0 ~next_pc:act.pc in
      m.outcome <- Some Event.Halted;
      r
  | Instr.Sys s -> exec_syscall m th act ins s

and exec_syscall m th act ins s =
  let next = act.pc + 1 in
  let v = m.view in
  match s with
  | Instr.Read d ->
      let pos = m.input_pos in
      let x, input_index =
        if pos < Array.length m.input then begin
          m.input_pos <- pos + 1;
          (m.input.(pos), pos)
        end
        else (-1, -1)
      in
      act.regs.(idx d) <- x;
      if input_index >= 0 then
        m.rev_inputs <- (m.step_count, input_index, x) :: m.rev_inputs;
      add_write v (reg_loc act d);
      emit m th ins ~addr:(-1) ~input_index ~value:x ~next_pc:next
  | Instr.Write o ->
      let x = operand_value act o in
      m.rev_output <- (m.step_count, x) :: m.rev_output;
      emit_one m th ins o ~value:x ~next_pc:next
  | Instr.Spawn (d, fname, argo) ->
      let x = operand_value act argo in
      let callee = Program.find m.program fname in
      let new_act = fresh_activation m callee ~ret_dst:None ~caller:None in
      new_act.regs.(0) <- x;
      let tid = m.next_tid in
      m.next_tid <- tid + 1;
      m.threads <- m.threads @ [ { tid; act = new_act; status = Runnable } ];
      act.regs.(idx d) <- tid;
      add_operand v act argo;
      add_write v (reg_loc act d);
      add_write v new_act.loc_base;
      emit_plain m th ins ~value:tid ~next_pc:next
  | Instr.Join o -> (
      let x = operand_value act o in
      match thread m x with
      | Some t when t.status <> Finished ->
          th.status <- Blocked Retry;
          Did_block
      | Some _ | None -> emit_one m th ins o ~value:x ~next_pc:next)
  | Instr.Lock o ->
      let x = operand_value act o in
      let mu = get_mutex m x in
      (match mu.owner with
      | None ->
          mu.owner <- Some th.tid;
          ignore (emit_one m th ins o ~value:x ~next_pc:next)
      | Some owner when owner = th.tid ->
          ignore (emit_one m th ins o ~value:x ~next_pc:next)
      | Some _ ->
          mu.waiters <- mu.waiters @ [ th.tid ];
          th.status <- Blocked Retry);
      if th.status = Runnable || th.status = Finished then Executed
      else Did_block
  | Instr.Unlock o ->
      let x = operand_value act o in
      let mu = get_mutex m x in
      if mu.owner = Some th.tid then begin
        mu.owner <- None;
        let ws = mu.waiters in
        mu.waiters <- [];
        wake_retriers m ws
      end;
      emit_one m th ins o ~value:x ~next_pc:next
  | Instr.Barrier_init (ido, po) ->
      let id = operand_value act ido and parties = operand_value act po in
      let b = get_barrier m id in
      b.parties <- parties;
      b.arrived <- 0;
      add_operand v act ido;
      add_operand v act po;
      emit_plain m th ins ~value:id ~next_pc:next
  | Instr.Barrier ido ->
      let id = operand_value act ido in
      let b = get_barrier m id in
      b.arrived <- b.arrived + 1;
      if b.arrived >= b.parties then begin
        b.arrived <- 0;
        let ws = b.waiting in
        b.waiting <- [];
        (* Barrier waiters have already counted: wake them *past* the
           barrier instruction. *)
        List.iter
          (fun wtid ->
            match thread m wtid with
            | Some t -> (
                match t.status with
                | Blocked Advance ->
                    t.act.pc <- t.act.pc + 1;
                    t.status <- Runnable
                | Blocked Retry | Runnable | Finished -> ())
            | None -> ())
          ws;
        emit_one m th ins ido ~value:id ~next_pc:next
      end
      else begin
        b.waiting <- b.waiting @ [ th.tid ];
        th.status <- Blocked Advance;
        (* The arrival itself is observable: emit the event, but leave
           the thread blocked at this pc (it is advanced on release). *)
        emit_one m th ins ido ~value:id ~next_pc:act.pc
      end
  | Instr.Alloc (d, so) ->
      let size = operand_value act so in
      let base = Memory.alloc m.mem size in
      act.regs.(idx d) <- base;
      add_operand v act so;
      add_write v (reg_loc act d);
      emit_plain m th ins ~value:base ~next_pc:next
  | Instr.Free o -> (
      let x = operand_value act o in
      match Memory.free m.mem x with
      | Ok () -> emit_one m th ins o ~value:x ~next_pc:next
      | Error `Invalid_free ->
          add_operand v act o;
          emit_fault m th ins ~value:x (Event.Invalid_free x))
  | Instr.Tid d ->
      act.regs.(idx d) <- th.tid;
      add_write v (reg_loc act d);
      emit_plain m th ins ~value:th.tid ~next_pc:next
  | Instr.Check o ->
      let x = operand_value act o in
      if x = 0 then begin
        add_operand v act o;
        emit_fault m th ins ~value:x Event.Check_failed
      end
      else emit_one m th ins o ~value:x ~next_pc:next
  | Instr.Mark (_, o) ->
      emit_one m th ins o ~value:(operand_value act o) ~next_pc:next
  | Instr.Exit ->
      let r = emit_plain m th ins ~value:0 ~next_pc:act.pc in
      finish_thread m th;
      r

(* -- scheduling -------------------------------------------------------- *)

let runnable_threads m = List.filter is_runnable m.threads

let record_switch m tid =
  m.rev_switches <- (m.step_count, tid) :: m.rev_switches;
  m.current <- tid;
  m.quantum_left <-
    m.config.quantum_min
    + Random.State.int m.rng
        (max 1 (m.config.quantum_max - m.config.quantum_min))

(* Choose the thread to run next.  In recording mode: seeded random
   choice among runnables, recorded for replay.  In replay mode: follow
   the recorded switch list. *)
let schedule m =
  if is_replay m then begin
    (* Apply all switches recorded at this step. *)
    let rec apply () =
      match m.replay_sched with
      | (s, tid) :: rest when s = m.step_count ->
          m.current <- tid;
          m.replay_sched <- rest;
          apply ()
      | _ -> ()
    in
    apply ();
    match current_thread m with
    | Some t as cur when is_runnable t -> cur
    | Some _ | None -> (
        (* The recorded thread cannot run here: in a faithful replay
           this only happens transiently when the recording switched
           away at the same step; fall back to any runnable thread
           only if the log has a future switch, otherwise diverge. *)
        match runnable_threads m with
        | [] -> None
        | t :: _ -> (
            match m.replay_sched with
            | _ :: _ -> Some t
            | [] ->
                raise
                  (Replay_divergence
                     (Fmt.str "no runnable thread matches log at step %d"
                        m.step_count))))
  end
  else begin
    let need_new =
      m.quantum_left <= 0
      ||
      match current_thread m with
      | Some t -> not (is_runnable t)
      | None -> true
    in
    if need_new then begin
      match runnable_threads m with
      | [] -> ()
      | rs ->
          let pick = List.nth rs (Random.State.int m.rng (List.length rs)) in
          record_switch m pick.tid
    end;
    match current_thread m with
    | Some t as cur when is_runnable t -> cur
    | Some _ | None -> None
  end

(* -- main loop --------------------------------------------------------- *)

let finish m outcome =
  m.outcome <- Some outcome;
  List.iter (fun (t : Tool.t) -> t.Tool.on_finish outcome) m.tools;
  outcome

let run m =
  if m.outcome <> None then invalid_arg "Machine.run: already ran";
  (* Initial scheduling choice. *)
  if not (is_replay m) then record_switch m 0;
  let rec loop () =
    match m.outcome with
    | Some o -> o
    | None ->
        if m.step_count >= m.config.max_steps then Event.Out_of_steps
        else begin
          match m.stop_request with
          | Some r -> Event.Stopped r
          | None -> (
              match schedule m with
              | None ->
                  if List.for_all (fun t -> t.status = Finished) m.threads
                  then Event.Halted
                  else Event.Deadlocked
              | Some th -> (
                  match exec_instr m th with
                  | Executed ->
                      m.quantum_left <- m.quantum_left - 1;
                      loop ()
                  | Did_block -> loop ()))
        end
  in
  let outcome = loop () in
  finish m outcome

(* -- checkpointing ------------------------------------------------------ *)

type checkpoint = {
  cp_mem : Memory.t;
  cp_threads : thread list;
  cp_next_tid : int;
  cp_next_serial : int;
  cp_mutexes : (int, mutex) Hashtbl.t;
  cp_barriers : (int, barrier) Hashtbl.t;
  cp_input_pos : int;
  cp_rev_output : (int * int) list;
  cp_step : int;
  cp_words : int;  (** memory words captured, for cost accounting *)
}

let rec copy_activation cache act =
  match Hashtbl.find_opt cache act.serial with
  | Some a -> a
  | None ->
      let caller = Option.map (copy_activation cache) act.caller in
      let a = { act with regs = Array.copy act.regs; caller } in
      Hashtbl.replace cache act.serial a;
      a

let copy_threads threads =
  let cache = Hashtbl.create 64 in
  List.map
    (fun t -> { t with act = copy_activation cache t.act })
    threads

(** Capture the entire mutable state of the machine.  The modelled cost
    ({!Cost.checkpoint_word} per live memory word) is charged to the
    machine's cycle counter. *)
let checkpoint m =
  let words = Memory.footprint m.mem in
  charge m (words * Cost.checkpoint_word);
  {
    cp_mem = Memory.snapshot m.mem;
    cp_threads = copy_threads m.threads;
    cp_next_tid = m.next_tid;
    cp_next_serial = m.next_serial;
    cp_mutexes =
      (let h = Hashtbl.create 16 in
       Hashtbl.iter
         (fun k mu -> Hashtbl.replace h k { mu with owner = mu.owner })
         m.mutexes;
       h);
    cp_barriers =
      (let h = Hashtbl.create 16 in
       Hashtbl.iter
         (fun k b -> Hashtbl.replace h k { b with parties = b.parties })
         m.barriers;
       h);
    cp_input_pos = m.input_pos;
    cp_rev_output = m.rev_output;
    cp_step = m.step_count;
    cp_words = words;
  }

(** Build a fresh machine whose state is the checkpoint's.  The new
    machine shares nothing mutable with the checkpoint (it can be
    restored from repeatedly) and may use a different [config] — e.g.
    replay mode with a recorded schedule suffix. *)
let of_checkpoint ?(config = default_config) program ~input cp =
  let m = create ~config program ~input in
  let fresh = Memory.snapshot cp.cp_mem in
  Hashtbl.reset m.mem.Memory.cells;
  Hashtbl.iter (Hashtbl.replace m.mem.Memory.cells) fresh.Memory.cells;
  Hashtbl.reset m.mem.Memory.blocks;
  Hashtbl.iter (Hashtbl.replace m.mem.Memory.blocks) fresh.Memory.blocks;
  m.mem.Memory.next <- fresh.Memory.next;
  m.threads <- copy_threads cp.cp_threads;
  m.current_th <- None;
  m.next_tid <- cp.cp_next_tid;
  m.next_serial <- cp.cp_next_serial;
  Hashtbl.reset m.mutexes;
  Hashtbl.iter
    (fun k mu -> Hashtbl.replace m.mutexes k { mu with owner = mu.owner })
    cp.cp_mutexes;
  Hashtbl.reset m.barriers;
  Hashtbl.iter
    (fun k b -> Hashtbl.replace m.barriers k { b with parties = b.parties })
    cp.cp_barriers;
  m.input_pos <- cp.cp_input_pos;
  m.rev_output <- cp.cp_rev_output;
  m.step_count <- cp.cp_step;
  m

let checkpoint_words cp = cp.cp_words
let checkpoint_step cp = cp.cp_step
