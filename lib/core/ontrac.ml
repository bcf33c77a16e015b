(** ONTRAC: online dependence tracing for debugging (paper §2.1).

    A VM tool that computes the dynamic dependence graph online and
    stores dependence records in a fixed-size circular buffer
    ({!Trace_buffer}), eliminating the offline postprocessing step of
    the two-phase baseline ({!Offline}).  The optimizations from the
    paper are all implemented and individually toggleable:

    - {b O1} — dependences within a basic block that are statically
      inferable from the binary are not stored;
    - {b O2} — the same idea extended to hot multi-block paths
      ("traces"): a cross-block register dependence along a
      frequently executed edge is inferable and not stored;
    - {b O3} — redundant loads (a load reading a location whose
      defining store was already witnessed by an earlier recorded load)
      do not produce new records;
    - {b O4a} — selective tracing of user-specified functions, with
      summary dependences that safely bridge untraced code so chains
      through the specified functions are not broken;
    - {b O4b} — storing only dependences in the forward slice of the
      program inputs.

    The full graph (stored + inferable edges) for the retained window
    is available as a {!Ddg.t} for slicing; byte and cycle accounting
    reflect only the *stored* records, which is exactly the paper's
    accounting (inferable dependences occupy no trace space). *)

open Dift_isa
open Dift_vm

type opts = {
  o1_intra_block : bool;
  o2_traces : bool;
  o2_hot_threshold : int;
      (** executions after which a block transition counts as hot *)
  o3_redundant_loads : bool;
  scope : string list option;
      (** [Some fs]: trace only functions in [fs] (O4a); [None]: all *)
  input_slice_only : bool;  (** O4b *)
  capacity : int;  (** trace buffer capacity in bytes *)
  record_war_waw : bool;
      (** also record WAR/WAW dependences (multithreaded slicing) *)
}

let default_opts =
  {
    o1_intra_block = true;
    o2_traces = true;
    o2_hot_threshold = 32;
    o3_redundant_loads = true;
    scope = None;
    input_slice_only = false;
    capacity = 16 * 1024 * 1024;
    record_war_waw = false;
  }

(** Every optimization off — the unoptimized online tracer. *)
let no_opts =
  {
    default_opts with
    o1_intra_block = false;
    o2_traces = false;
    o3_redundant_loads = false;
    input_slice_only = false;
  }

type stats = {
  mutable instructions : int;
  mutable deps_total : int;
  mutable deps_recorded : int;
  mutable elided_o1 : int;
  mutable elided_o2 : int;
  mutable elided_o3 : int;
  mutable elided_control : int;
  mutable skipped_scope : int;
  mutable skipped_input : int;
  mutable summary_deps : int;
}

type writer_info = { w_step : int; w_fname : string; w_pc : int; w_scoped : bool }

type t = {
  opts : opts;
  static : Static_info.t;
  cd : Control_dep.t;
  ddg : Ddg.t;
  buffer : Trace_buffer.t;
  writer : Encoding.writer;
  stats : stats;
  last_writer : writer_info Loc.Tbl.t;
  readers : int list Loc.Tbl.t;  (** read steps since last write *)
  origins : int list Loc.Tbl.t;  (** traced ancestors (scope mode) *)
  input_tainted : unit Loc.Tbl.t;  (** forward slice of inputs (O4b) *)
  last_recorded_load : int Loc.Tbl.t;  (** mem loc -> witnessed def step *)
  hot_edges : (string * int * int, int) Hashtbl.t;
  prev_block : (int, string * int) Hashtbl.t;  (** tid -> (fname, block) *)
  block_history : (int, (string * int) list) Hashtbl.t;
      (** tid -> recently completed blocks, most recent first *)
  last_control_parent : (int, string * int) Hashtbl.t;
      (** tid -> static site of the last recorded control parent *)
  scope_set : (string, unit) Hashtbl.t option;
  mutable machine : Machine.t option;
  mutable events_since_prune : int;
  mutable tracer : Dift_obs.Trace.t option;  (** timeline tracer *)
  mutable trace_left : int;  (** instructions until the next sample *)
}

let create ?(opts = default_opts) program =
  let static = Static_info.create program in
  {
    opts;
    static;
    cd = Control_dep.create static;
    ddg = Ddg.create ();
    buffer = Trace_buffer.create ~capacity:opts.capacity;
    writer = Encoding.writer ();
    stats =
      {
        instructions = 0;
        deps_total = 0;
        deps_recorded = 0;
        elided_o1 = 0;
        elided_o2 = 0;
        elided_o3 = 0;
        elided_control = 0;
        skipped_scope = 0;
        skipped_input = 0;
        summary_deps = 0;
      };
    last_writer = Loc.Tbl.create 4096;
    readers = Loc.Tbl.create 256;
    origins = Loc.Tbl.create 256;
    input_tainted = Loc.Tbl.create 256;
    last_recorded_load = Loc.Tbl.create 256;
    hot_edges = Hashtbl.create 64;
    prev_block = Hashtbl.create 8;
    block_history = Hashtbl.create 8;
    last_control_parent = Hashtbl.create 8;
    scope_set =
      Option.map
        (fun fs ->
          let h = Hashtbl.create (List.length fs) in
          List.iter (fun f -> Hashtbl.replace h f ()) fs;
          h)
        opts.scope;
    machine = None;
    events_since_prune = 0;
    tracer = None;
    trace_left = 0;
  }

let stats t = t.stats
let graph t = t.ddg
let buffer t = t.buffer

(** First step still inside the buffer's retained window. *)
let window_start t = Trace_buffer.window_start t.buffer

(** Length of the retained execution window, in dynamic instructions. *)
let window_length t =
  if t.stats.instructions = 0 then 0
  else max 0 (Ddg.max_step t.ddg - window_start t + 1)

(** Average stored bytes per executed instruction. *)
let bytes_per_instr t =
  if t.stats.instructions = 0 then 0.
  else
    float_of_int (Trace_buffer.total_bytes t.buffer)
    /. float_of_int t.stats.instructions

let in_scope t fname =
  match t.scope_set with None -> true | Some h -> Hashtbl.mem h fname

let charge t n =
  match t.machine with Some m -> Machine.charge m n | None -> ()

(** Traced instructions between two fill samples. *)
let trace_sample_every = 1024

(** Sample the circular buffer onto an execution timeline: every
    [trace_sample_every] traced instructions a
    [trace_buffer.stored_bytes] counter sample shows the buffer
    filling, and every {!Trace_buffer.add} that evicts records emits a
    [trace_buffer.drain] duration span carrying the eviction count —
    so the window wrapping around is visible as drain pulses on an
    otherwise monotone fill ramp. *)
let set_trace t tr =
  t.tracer <- Some tr;
  t.trace_left <- 1

let trace_sample t =
  match t.tracer with
  | None -> ()
  | Some tr ->
      t.trace_left <- t.trace_left - 1;
      if t.trace_left <= 0 then begin
        t.trace_left <- trace_sample_every;
        Dift_obs.Trace.counter tr ~cat:"core" "trace_buffer.stored_bytes"
          (Trace_buffer.stored_bytes t.buffer)
      end

(* Append to the circular buffer, timing the append as a drain span
   when it evicted records. *)
let buffer_add t ~use_step ~bytes =
  match t.tracer with
  | None -> Trace_buffer.add t.buffer ~use_step ~bytes
  | Some tr ->
      let open Dift_obs in
      let evicted0 = Trace_buffer.evicted_records t.buffer in
      let t0 = Trace.now_ns tr in
      Trace_buffer.add t.buffer ~use_step ~bytes;
      let evicted = Trace_buffer.evicted_records t.buffer - evicted0 in
      if evicted > 0 then
        Trace.complete_ns tr ~cat:"core"
          ~args:[ ("evicted", Json.Int evicted) ]
          "trace_buffer.drain" ~start_ns:t0 ~dur_ns:(Trace.now_ns tr - t0)

(* Record a dependence: real byte encoding, buffer accounting, cycle
   charge, and DDG edge. *)
let record t (d : Dep.t) =
  let bytes = Encoding.record_size ~prev_use:t.writer.Encoding.prev_use d in
  Encoding.write t.writer d;
  buffer_add t ~use_step:d.Dep.use_step ~bytes;
  charge t Cost.ontrac_record;
  t.stats.deps_recorded <- t.stats.deps_recorded + 1;
  Ddg.add_dep t.ddg d

(* Add an inferable (elided) dependence to the graph without storing
   bytes. *)
let infer t (d : Dep.t) = Ddg.add_dep t.ddg d

(* -- O4b: forward slice of the inputs --------------------------------- *)

let input_affected t (e : Event.exec) =
  e.Event.input_index >= 0
  || List.exists (fun l -> Loc.Tbl.mem t.input_tainted l) e.Event.reads

let update_input_taint t (e : Event.exec) affected =
  if affected then
    List.iter (fun l -> Loc.Tbl.replace t.input_tainted l ()) e.Event.writes
  else List.iter (fun l -> Loc.Tbl.remove t.input_tainted l) e.Event.writes

(* -- O2: hot-path learning --------------------------------------------- *)

let history_cap = 6

let note_block_transition t (e : Event.exec) =
  let fname = e.Event.func.Func.name in
  let block = Static_info.block_of t.static fname e.Event.pc in
  (match Hashtbl.find_opt t.prev_block e.Event.tid with
  | Some (pf, pb) when pf <> fname || pb <> block ->
      if pf = fname then begin
        let key = (fname, pb, block) in
        let c =
          match Hashtbl.find_opt t.hot_edges key with Some c -> c | None -> 0
        in
        Hashtbl.replace t.hot_edges key (c + 1)
      end;
      let h =
        match Hashtbl.find_opt t.block_history e.Event.tid with
        | Some h -> h
        | None -> []
      in
      let h = (pf, pb) :: h in
      let h =
        if List.length h > history_cap then List.filteri (fun i _ -> i < history_cap) h
        else h
      in
      Hashtbl.replace t.block_history e.Event.tid h
  | Some _ | None -> ());
  Hashtbl.replace t.prev_block e.Event.tid (fname, block);
  block

let hot_edge t fname from_block to_block =
  match Hashtbl.find_opt t.hot_edges (fname, from_block, to_block) with
  | Some c -> c >= t.opts.o2_hot_threshold
  | None -> false

(* -- classification of one data dependence ----------------------------- *)

type verdict =
  | Record
  | Elide_o1
  | Elide_o2
  | Elide_o3

(* O2: the dependence is inferable along a hot multi-block path when
   the writer's block appears in the thread's recent block history, is
   the last definition of the register in that block, every block in
   between is definition-free for the register, and every transition on
   the path is hot (a learned "trace" in the paper's sense). *)
let o2_inferable t ~fname ~reg ~(w : writer_info) ~block ~history =
  (* guard before the block lookup: [w.w_pc] indexes [fname]'s CFG, so
     a writer from another function (e.g. a callee's [Ret] defining the
     caller's return register) would index out of bounds *)
  w.w_fname = fname
  &&
  let w_block = Static_info.block_of t.static fname w.w_pc in
  let rec walk newer = function
    | [] -> false
    | (hf, hb) :: older ->
        hf = fname
        && hot_edge t fname hb newer
        &&
        (* matches instead of [= Some _] / [= None]: these sit on the
           per-event elision path and must not call the polymorphic
           comparator *)
        if hb = w_block then
          match Static_info.block_last_def t.static fname ~block:hb ~reg with
          | Some pc -> pc = w.w_pc
          | None -> false
        else (
          match Static_info.block_last_def t.static fname ~block:hb ~reg with
          | None -> walk hb older
          | Some _ -> false)
  in
  walk block history

let classify t (e : Event.exec) ~loc ~(w : writer_info) ~block ~history =
  let fname = e.Event.func.Func.name in
  if Loc.is_reg loc then begin
    let _, reg_idx = Loc.frame_reg loc in
    let reg = Reg.make reg_idx in
    let o1_ok =
      t.opts.o1_intra_block && w.w_fname = fname
      &&
      match
        Static_info.reaching_def_in_block t.static fname ~pc:e.Event.pc ~reg
      with
      | Some pc -> pc = w.w_pc
      | None -> false
    in
    if o1_ok then Elide_o1
    else if t.opts.o2_traces && o2_inferable t ~fname ~reg ~w ~block ~history
    then Elide_o2
    else Record
  end
  else if
    t.opts.o3_redundant_loads
    && (match e.Event.instr with Instr.Load _ -> true | _ -> false)
    && (match Loc.Tbl.find_opt t.last_recorded_load loc with
       | Some s -> s = w.w_step
       | None -> false)
  then Elide_o3
  else Record

(* -- the per-event work ------------------------------------------------- *)

let process t (e : Event.exec) =
  t.stats.instructions <- t.stats.instructions + 1;
  trace_sample t;
  let parent = Control_dep.process t.cd e in
  let fname = e.Event.func.Func.name in
  let scoped = in_scope t fname in
  let affected =
    if t.opts.input_slice_only then input_affected t e else true
  in
  let block = note_block_transition t e in
  let history =
    match Hashtbl.find_opt t.block_history e.Event.tid with
    | Some h -> h
    | None -> []
  in
  (* The node itself. *)
  if scoped then
    Ddg.add_node t.ddg ~step:e.Event.step ~tid:e.Event.tid ~fname
      ~pc:e.Event.pc ~input_index:e.Event.input_index
      ~is_output:
        (match e.Event.instr with
        | Instr.Sys (Instr.Write _) -> true
        | _ -> false);
  (* Data dependences, one per read location. *)
  List.iter
    (fun loc ->
      match Loc.Tbl.find_opt t.last_writer loc with
      | None -> ()
      | Some w ->
          t.stats.deps_total <- t.stats.deps_total + 1;
          if not scoped then
            t.stats.skipped_scope <- t.stats.skipped_scope + 1
          else if not affected then
            t.stats.skipped_input <- t.stats.skipped_input + 1
          else if (not w.w_scoped) && Option.is_some t.scope_set then begin
            (* Bridge untraced code with summary dependences to the
               last traced ancestors of this value. *)
            let os =
              match Loc.Tbl.find_opt t.origins loc with
              | Some os -> os
              | None -> []
            in
            List.iter
              (fun def_step ->
                t.stats.summary_deps <- t.stats.summary_deps + 1;
                record t
                  { Dep.kind = Dep.Summary; def_step; use_step = e.Event.step })
              os
          end
          else begin
            let d =
              { Dep.kind = Dep.Data; def_step = w.w_step;
                use_step = e.Event.step }
            in
            match classify t e ~loc ~w ~block ~history with
            | Record ->
                record t d;
                let is_load =
                  match e.Event.instr with
                  | Instr.Load _ -> true
                  | _ -> false
                in
                if t.opts.o3_redundant_loads && is_load then
                  Loc.Tbl.replace t.last_recorded_load loc w.w_step
            | Elide_o1 ->
                t.stats.elided_o1 <- t.stats.elided_o1 + 1;
                infer t d
            | Elide_o2 ->
                t.stats.elided_o2 <- t.stats.elided_o2 + 1;
                infer t d
            | Elide_o3 ->
                t.stats.elided_o3 <- t.stats.elided_o3 + 1;
                infer t d
          end)
    e.Event.reads;
  (* Control dependence: a record is stored only when the controlling
     *static* branch changes.  Successive instances of the same branch
     (loop iterations) are reconstructible from the compact control
     trace plus the static CFG, so they cost no dependence bytes —
     this is where the whole-execution-trace compression of [18]
     pays. *)
  (match parent with
  | Some p when scoped && affected ->
      let d = { Dep.kind = Dep.Control; def_step = p; use_step = e.Event.step }
      in
      t.stats.deps_total <- t.stats.deps_total + 1;
      let parent_site =
        match Ddg.node t.ddg p with
        | Some n -> Some (n.Ddg.fname, n.Ddg.pc)
        | None -> None
      in
      let same_static =
        (* field-wise match, not [= Some site]: a polymorphic compare
           of [(string * int) option] per control dependence would
           dominate the elision it pays for *)
        match parent_site with
        | Some (sf, spc) -> (
            match Hashtbl.find_opt t.last_control_parent e.Event.tid with
            | Some (lf, lpc) -> spc = lpc && String.equal sf lf
            | None -> false)
        | None -> false
      in
      if same_static then begin
        t.stats.elided_control <- t.stats.elided_control + 1;
        infer t d
      end
      else begin
        (match parent_site with
        | Some site -> Hashtbl.replace t.last_control_parent e.Event.tid site
        | None -> ());
        record t d
      end
  | Some _ | None -> ());
  (* WAR / WAW (multithreaded slicing support). *)
  if t.opts.record_war_waw then begin
    List.iter
      (fun loc ->
        if Loc.is_mem loc then begin
          (match Loc.Tbl.find_opt t.readers loc with
          | Some rs when scoped ->
              List.iter
                (fun r ->
                  t.stats.deps_total <- t.stats.deps_total + 1;
                  record t
                    { Dep.kind = Dep.War; def_step = r; use_step = e.Event.step })
                rs
          | Some _ | None -> ());
          Loc.Tbl.remove t.readers loc;
          match Loc.Tbl.find_opt t.last_writer loc with
          | Some w when scoped && w.w_scoped ->
              t.stats.deps_total <- t.stats.deps_total + 1;
              record t
                { Dep.kind = Dep.Waw; def_step = w.w_step;
                  use_step = e.Event.step }
          | Some _ | None -> ()
        end)
      e.Event.writes;
    List.iter
      (fun loc ->
        if Loc.is_mem loc then
          let cur =
            match Loc.Tbl.find_opt t.readers loc with
            | Some rs -> rs
            | None -> []
          in
          Loc.Tbl.replace t.readers loc (e.Event.step :: cur))
      e.Event.reads
  end;
  (* Update writer bookkeeping. *)
  List.iter
    (fun loc ->
      Loc.Tbl.replace t.last_writer loc
        { w_step = e.Event.step; w_fname = fname; w_pc = e.Event.pc;
          w_scoped = scoped };
      Loc.Tbl.remove t.last_recorded_load loc;
      if Option.is_some t.scope_set then
        if scoped then Loc.Tbl.replace t.origins loc [ e.Event.step ]
        else begin
          (* Untraced write: carry forward the traced ancestors of the
             values it read. *)
          let os =
            List.fold_left
              (fun acc l ->
                match Loc.Tbl.find_opt t.origins l with
                | Some os ->
                    List.fold_left
                      (fun acc o -> if List.mem o acc then acc else o :: acc)
                      acc os
                | None -> acc)
              [] e.Event.reads
          in
          Loc.Tbl.replace t.origins loc os
        end)
    e.Event.writes;
  if t.opts.input_slice_only then update_input_taint t e affected;
  (* Periodic pruning keeps the in-memory graph matched to the buffer
     window. *)
  t.events_since_prune <- t.events_since_prune + 1;
  if t.events_since_prune >= 65536 then begin
    t.events_since_prune <- 0;
    Ddg.prune t.ddg ~window_start:(window_start t)
  end

(** Attach to a machine; all modelled overhead is charged there. *)
let attach t machine =
  t.machine <- Some machine;
  Machine.attach machine (Tool.make ~on_exec:(process t) "ontrac")

(** Attach with an event filter: only events satisfying [keep] are
    traced (the execution-reduction replay gates tracing to the
    failure-relevant requests this way).  Instrumentation is selective,
    so the DBI dispatch cost is paid per *kept* event rather than per
    instruction. *)
let attach_filtered t machine ~keep =
  t.machine <- Some machine;
  Machine.attach machine
    (Tool.make ~dispatch_cost:0
       ~on_exec:(fun e ->
         if keep e then begin
           Machine.charge machine Cost.dbi_dispatch;
           process t e
         end)
       "ontrac-gated")

(** Prune the graph to the final window and return it with the window
    start (to be called after the run). *)
let final_graph t =
  Ddg.prune t.ddg ~window_start:(window_start t);
  (t.ddg, window_start t)

(** Expose the tracer through an observability registry (derived
    gauges over the live stats; nothing is added to the hot path). *)
let register_obs t reg =
  let open Dift_obs in
  let g name help f = Registry.gauge_fn reg name ~help f in
  let s = t.stats in
  g "core.ontrac.instructions" "instructions traced" (fun () ->
      s.instructions);
  g "core.ontrac.deps_total" "dependences seen" (fun () -> s.deps_total);
  g "core.ontrac.deps_recorded" "dependences stored" (fun () ->
      s.deps_recorded);
  g "core.ontrac.elided_o1" "elided: intra-block (O1)" (fun () ->
      s.elided_o1);
  g "core.ontrac.elided_o2" "elided: hot traces (O2)" (fun () ->
      s.elided_o2);
  g "core.ontrac.elided_o3" "elided: redundant loads (O3)" (fun () ->
      s.elided_o3);
  g "core.ontrac.elided_control" "elided: repeated control parents"
    (fun () -> s.elided_control);
  g "core.ontrac.summary_deps" "summary dependences (O4a)" (fun () ->
      s.summary_deps);
  g "core.ontrac.bytes_per_kinstr"
    "stored trace bytes per 1000 instructions (the paper's trace rate)"
    (fun () ->
      if s.instructions = 0 then 0
      else Trace_buffer.total_bytes t.buffer * 1000 / s.instructions);
  g "core.ontrac.window_length" "retained window, dynamic instructions"
    (fun () -> window_length t);
  g "core.trace_buffer.capacity_bytes" "buffer byte budget" (fun () ->
      t.opts.capacity);
  g "core.trace_buffer.stored_bytes" "bytes currently buffered" (fun () ->
      Trace_buffer.stored_bytes t.buffer);
  g "core.trace_buffer.total_bytes" "bytes ever appended" (fun () ->
      Trace_buffer.total_bytes t.buffer);
  g "core.trace_buffer.stored_records" "records currently buffered"
    (fun () -> Trace_buffer.stored_records t.buffer);
  g "core.trace_buffer.total_records" "records ever appended" (fun () ->
      Trace_buffer.total_records t.buffer);
  g "core.trace_buffer.evicted_records" "records evicted" (fun () ->
      Trace_buffer.evicted_records t.buffer);
  g "core.trace_buffer.window_start" "first retained step" (fun () ->
      Trace_buffer.window_start t.buffer)

let pp_stats ppf (s : stats) =
  Fmt.pf ppf
    "@[<v>instructions: %d@,deps total: %d@,deps recorded: %d@,elided O1: \
     %d@,elided O2: %d@,elided O3: %d@,elided control: %d@,skipped scope: \
     %d@,skipped input: %d@,summary deps: %d@]"
    s.instructions s.deps_total s.deps_recorded s.elided_o1 s.elided_o2
    s.elided_o3 s.elided_control s.skipped_scope s.skipped_input
    s.summary_deps
