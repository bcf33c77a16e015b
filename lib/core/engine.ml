(** The generic DIFT engine.

    Instantiated with a {!Taint.DOMAIN}, the engine is a VM tool that
    maintains shadow state for every location, injects taint at input
    reads, propagates it per the configured {!Policy}, and reports
    flows into sinks (indirect-call targets, outputs, assertions,
    pointers, branches) to a client-provided handler.

    This is the single propagation core all four of the paper's
    application areas instantiate: boolean taint for detection, PC
    taint for bug location, input sets for lineage.

    The per-event transfer function is allocation-free for immediate
    domains: source joins and write fans are static recursive loops
    (no closures), list emptiness is matched (no polymorphic
    comparison), the per-thread control state is cached by tid (no
    hashtable probe per event), and the Bool domain gets a
    short-circuiting monomorphic join selected once at functor
    application via {!Taint.DOMAIN.as_bool}. *)

open Dift_isa
open Dift_vm

type sink =
  | Sink_icall  (** indirect-call target *)
  | Sink_output  (** [Sys Write] operand *)
  | Sink_check  (** [Sys Check] operand *)
  | Sink_store_address  (** pointer used by a store *)
  | Sink_load_address  (** pointer used by a load *)
  | Sink_branch  (** branch condition *)

let sink_to_string = function
  | Sink_icall -> "icall-target"
  | Sink_output -> "output"
  | Sink_check -> "check"
  | Sink_store_address -> "store-address"
  | Sink_load_address -> "load-address"
  | Sink_branch -> "branch"

let pp_sink ppf s = Fmt.string ppf (sink_to_string s)

type stats = {
  mutable events : int;
  mutable sources : int;
  mutable sink_hits : int;  (** sinks reached by non-bottom taint *)
}

module Make_over (Shadow_impl : Shadow.IMPL) (D : Taint.DOMAIN) = struct
  module Sh = Shadow_impl (D)

  (* -- monomorphic fast paths, selected once at functor application -- *)

  (* For the Bool domain the fold over source locations short-circuits
     at the first tainted one and makes no calls through the functor
     parameter; every other domain pays the generic join loop (still
     closure-free).  Sources are the [i..n) prefix slice of a view's
     scratch array. *)
  let joined_arr : Sh.t -> Loc.t array -> int -> int -> D.t =
    match D.as_bool with
    | Some Taint.Refl ->
        let rec any sh (arr : Loc.t array) i n =
          i < n && (Sh.get sh arr.(i) || any sh arr (i + 1) n)
        in
        any
    | None ->
        let rec go sh acc (arr : Loc.t array) i n =
          if i >= n then acc else go sh (D.join acc (Sh.get sh arr.(i))) arr (i + 1) n
        in
        fun sh arr i n -> go sh D.bottom arr i n

  (* Join restricted to one plane of the slice: [mem = true] keeps
     memory locations, [mem = false] keeps registers (how a Load's
     reads split into value vs. address sources). *)
  let joined_plane : Sh.t -> Loc.t array -> int -> mem:bool -> D.t =
    match D.as_bool with
    | Some Taint.Refl ->
        let rec any sh (arr : Loc.t array) i n mem =
          i < n
          && ((Loc.is_mem arr.(i) = mem && Sh.get sh arr.(i))
             || any sh arr (i + 1) n mem)
        in
        fun sh arr n ~mem -> any sh arr 0 n mem
    | None ->
        let rec go sh acc (arr : Loc.t array) i n mem =
          if i >= n then acc
          else
            let acc =
              if Loc.is_mem arr.(i) = mem then D.join acc (Sh.get sh arr.(i))
              else acc
            in
            go sh acc arr (i + 1) n mem
        in
        fun sh arr n ~mem -> go sh D.bottom arr 0 n mem

  let join2 : D.t -> D.t -> D.t =
    match D.as_bool with Some Taint.Refl -> ( || ) | None -> D.join

  (* Write fan-out without a per-event closure. *)
  let set_all sh v (arr : Loc.t array) n =
    for i = 0 to n - 1 do
      Sh.set sh arr.(i) v
    done

  type control_frame = {
    mutable regions : (int * D.t) list;  (** (close_at_pc, taint) *)
    base : D.t;  (** control taint inherited through the call *)
  }

  type thread_control = { mutable cframes : control_frame list }

  type t = {
    policy : Policy.t;
    static : Static_info.t;
    shadow : Sh.t;
    stats : stats;
    mutable sink_handler : (sink -> D.t -> Event.exec -> unit) option;
    mutable sink_handler_view : (sink -> D.t -> Event.view -> unit) option;
    scratch : Event.view;
        (** reused by {!process} to present boxed records to the
            view-based transfer function *)
    control : (int, thread_control) Hashtbl.t;
    mutable ctl_tid : int;  (** tid of [ctl_tc], or [min_int] *)
    mutable ctl_tc : thread_control;
        (** per-thread control state cache: workloads are dominated by
            long single-thread stretches, so the per-event
            [Hashtbl.find_opt] (and its [Some] allocation) almost
            always collapses into one int compare *)
    pending_spawn_taint : (int, D.t) Hashtbl.t;  (** tid -> control taint *)
    mutable charge : int -> unit;
  }

  let create ?(policy = Policy.default) program =
    {
      policy;
      static = Static_info.create program;
      shadow = Sh.create ();
      stats = { events = 0; sources = 0; sink_hits = 0 };
      sink_handler = None;
      sink_handler_view = None;
      scratch = Event.view_blank ();
      control = Hashtbl.create 8;
      ctl_tid = min_int;
      ctl_tc = { cframes = [] };
      pending_spawn_taint = Hashtbl.create 8;
      charge = ignore;
    }

  let on_sink t f = t.sink_handler <- Some f

  (* The allocation-free variant: the handler sees the live view
     (valid only for the duration of the call — call
     [Event.view_to_exec] to retain).  Both handlers may be installed;
     the view handler runs first. *)
  let on_sink_view t f = t.sink_handler_view <- Some f

  (** Redirect overhead charging (e.g. to a helper-core clock, or to
      nothing when timing is modelled externally). *)
  let set_charge t f = t.charge <- f

  let stats t = t.stats
  let taint_of t loc = Sh.get t.shadow loc
  let shadow t = t.shadow

  (** Tainted locations and total shadow words (memory accounting). *)
  let shadow_footprint t =
    (Sh.tainted_locations t.shadow, Sh.footprint_words t.shadow)

  let joined_reads t (v : Event.view) =
    joined_arr t.shadow v.Event.v_reads 0 v.Event.v_nreads

  let hit_sink t sink taint v =
    if not (D.is_bottom taint) then t.stats.sink_hits <- t.stats.sink_hits + 1;
    (match t.sink_handler_view with
    | Some f -> f sink taint v
    | None -> ());
    match t.sink_handler with
    | Some f -> f sink taint (Event.view_to_exec v)
    | None -> ()

  (* -- control-taint bookkeeping (only when policy.propagate_control) - *)

  let thread_control_slow t tid =
    let tc =
      match Hashtbl.find_opt t.control tid with
      | Some tc -> tc
      | None ->
          let base =
            match Hashtbl.find_opt t.pending_spawn_taint tid with
            | Some d ->
                Hashtbl.remove t.pending_spawn_taint tid;
                d
            | None -> D.bottom
          in
          let tc = { cframes = [ { regions = []; base } ] } in
          Hashtbl.replace t.control tid tc;
          tc
    in
    t.ctl_tid <- tid;
    t.ctl_tc <- tc;
    tc

  let thread_control t tid =
    if tid = t.ctl_tid then t.ctl_tc else thread_control_slow t tid

  let current_cframe tc =
    match tc.cframes with
    | f :: _ -> f
    | [] ->
        let f = { regions = []; base = D.bottom } in
        tc.cframes <- [ f ];
        f

  let rec join_regions acc = function
    | [] -> acc
    | (_, d) :: rest -> join_regions (join2 acc d) rest

  let control_taint_of_frame f = join_regions f.base f.regions

  (* Region-list maintenance without allocating when nothing closes at
     this pc (the overwhelmingly common case). *)
  let rec closes_here pc = function
    | [] -> false
    | (close, _) :: rest -> close = pc || closes_here pc rest

  let rec remove_closed pc = function
    | [] -> []
    | ((close, _) as r) :: rest ->
        if close = pc then remove_closed pc rest
        else r :: remove_closed pc rest

  (* Update control regions for this event and return the active
     control taint. *)
  let control_taint t (v : Event.view) =
    if not t.policy.Policy.propagate_control then D.bottom
    else begin
      let tc = thread_control t v.Event.v_tid in
      let f = current_cframe tc in
      (match f.regions with
      | [] -> ()
      | regions ->
          if closes_here v.Event.v_pc regions then
            f.regions <- remove_closed v.Event.v_pc regions);
      let active = control_taint_of_frame f in
      (match v.Event.v_instr with
      | Instr.Br (_, _, _) ->
          let cond_taint = joined_reads t v in
          if not (D.is_bottom cond_taint) then begin
            let close =
              Static_info.ipdom t.static v.Event.v_func.Func.name
                v.Event.v_pc
            in
            f.regions <- (close, cond_taint) :: f.regions
          end
      | Instr.Call _ | Instr.Icall _ ->
          tc.cframes <- { regions = []; base = active } :: tc.cframes
      | Instr.Ret _ -> (
          match tc.cframes with
          | _ :: (_ :: _ as rest) -> tc.cframes <- rest
          | [ _ ] | [] -> ())
      | Instr.Sys (Instr.Spawn _) ->
          if not (D.is_bottom active) then
            Hashtbl.replace t.pending_spawn_taint v.Event.v_value active
      | _ -> ());
      active
    end

  (* -- the per-event transfer function --------------------------------- *)

  (* Argument copies are pure moves: tags propagate unchanged (no
     [at_write]), so PC taint keeps naming the instruction that
     produced the value.  The pairwise walk stops at the shorter
     prefix — reads beyond [nw] are an Icall's target registers. *)
  let copy_args t ctl (v : Event.view) =
    let n = min v.Event.v_nwrites v.Event.v_nreads in
    for i = 0 to n - 1 do
      Sh.set t.shadow
        v.Event.v_writes.(i)
        (join2 (Sh.get t.shadow v.Event.v_reads.(i)) ctl)
    done

  let process_view t (v : Event.view) =
    t.stats.events <- t.stats.events + 1;
    t.charge Cost.inline_taint_propagate;
    let ctl = control_taint t v in
    match v.Event.v_instr with
    | Instr.Sys (Instr.Read _) ->
        let taint =
          if v.Event.v_input_index >= 0 then begin
            t.stats.sources <- t.stats.sources + 1;
            D.source ~input_index:v.Event.v_input_index ~step:v.Event.v_step
          end
          else D.bottom
        in
        set_all t.shadow (join2 taint ctl) v.Event.v_writes v.Event.v_nwrites
    | Instr.Call _ | Instr.Icall _ | Instr.Sys (Instr.Spawn _) ->
        (* Pairwise argument copy; for Icall the trailing reads are the
           target operand's registers. *)
        (match v.Event.v_instr with
        | Instr.Icall (fop, _) ->
            let nargs = v.Event.v_nwrites in
            let target_taint =
              match fop with
              | Operand.Reg _ ->
                  joined_arr t.shadow v.Event.v_reads nargs v.Event.v_nreads
              | Operand.Imm _ -> D.bottom
            in
            hit_sink t Sink_icall target_taint v
        | _ -> ());
        (match v.Event.v_instr with
        | Instr.Sys (Instr.Spawn _) ->
            (* writes = [tid destination; callee r0]; the tid itself is
               environment data and stays clean, the argument carries
               its taint when the policy says so. *)
            let arg_taint =
              if t.policy.Policy.taint_spawn_arg then
                join2 (joined_reads t v) ctl
              else D.bottom
            in
            if v.Event.v_nwrites = 2 then begin
              Sh.set t.shadow v.Event.v_writes.(0) D.bottom;
              Sh.set t.shadow v.Event.v_writes.(1) arg_taint
            end
        | _ ->
            (* nargs = nwrites; reads beyond that are the Icall target
               registers, skipped by the pairwise walk. *)
            copy_args t ctl v)
    | Instr.Br (_, _, _) -> hit_sink t Sink_branch (joined_reads t v) v
    | Instr.Sys (Instr.Write _) ->
        hit_sink t Sink_output (joined_reads t v) v
    | Instr.Sys (Instr.Check _) ->
        hit_sink t Sink_check (joined_reads t v) v
    | Instr.Load _ | Instr.Store _ ->
        (* Split the reads into (value sources, address sources) by
           instruction shape: a Load's value source is its memory cell
           and its address registers are the rest; a Store's value
           source is its first read when the source operand is a
           register, the rest being the address computation. *)
        let is_load =
          match v.Event.v_instr with Instr.Load _ -> true | _ -> false
        in
        let addr_taint =
          match v.Event.v_instr with
          | Instr.Store (Operand.Reg _, _, _) when v.Event.v_nreads >= 1 ->
              joined_arr t.shadow v.Event.v_reads 1 v.Event.v_nreads
          | Instr.Store (_, _, _) -> joined_reads t v
          | _ ->
              joined_plane t.shadow v.Event.v_reads v.Event.v_nreads
                ~mem:false
        in
        hit_sink t
          (if is_load then Sink_load_address else Sink_store_address)
          addr_taint v;
        if v.Event.v_nwrites > 0 then begin
          let taint =
            match v.Event.v_instr with
            | Instr.Store (Operand.Reg _, _, _) when v.Event.v_nreads >= 1
              ->
                joined_arr t.shadow v.Event.v_reads 0 1
            | Instr.Store (_, _, _) -> D.bottom
            | _ ->
                joined_plane t.shadow v.Event.v_reads v.Event.v_nreads
                  ~mem:true
          in
          let taint =
            if
              (if is_load then t.policy.Policy.propagate_load_address
               else t.policy.Policy.propagate_store_address)
            then join2 taint addr_taint
            else taint
          in
          let taint = join2 taint ctl in
          (* Loads are pure copies; stores stamp the tag with their
             own site — "the most recent instruction that wrote to
             the location" (paper §3.3), which is what makes the tag
             at an attack sink name the unchecked store rather than
             an innocent load. *)
          let taint =
            if is_load then taint
            else
              D.at_write ~step:v.Event.v_step
                ~fname:v.Event.v_func.Func.name ~pc:v.Event.v_pc taint
          in
          set_all t.shadow taint v.Event.v_writes v.Event.v_nwrites
        end
    | _ ->
        (* every read is a value source; no address sinks *)
        if v.Event.v_nwrites > 0 then begin
          let taint = join2 (joined_reads t v) ctl in
          (* register moves and returned values are pure copies *)
          let taint =
            match v.Event.v_instr with
            | Instr.Mov _ | Instr.Ret _ -> taint
            | _ ->
                D.at_write ~step:v.Event.v_step
                  ~fname:v.Event.v_func.Func.name ~pc:v.Event.v_pc taint
          in
          set_all t.shadow taint v.Event.v_writes v.Event.v_nwrites
        end

  let process t (e : Event.exec) =
    Event.view_fill t.scratch e;
    process_view t t.scratch

  (** Attach the engine to a machine; overhead is charged to the
      machine's cycle counter unless [charge] overrides it (the
      multicore helper model redirects it to the helper core). *)
  let attach ?charge t machine =
    (t.charge <-
       match charge with
       | Some f -> f
       | None -> fun c -> Machine.charge machine c);
    Machine.attach machine
      (Tool.make ~on_view:(process_view t) (Fmt.str "dift-%s" D.name))
end

module Make (D : Taint.DOMAIN) = Make_over (Shadow.Make) (D)
