(** The instrumentation-tool interface; see the interface for the
    view's lifetime rule. *)

type t = {
  name : string;
  dispatch_cost : int;
  on_view : Event.view -> unit;
      (** called after each instruction's effects are applied *)
  on_fault : Event.fault -> unit;  (** called when the machine faults *)
  on_finish : Event.outcome -> unit;  (** called once, when the run ends *)
}

(* An exec tool reads the view's cached record: the first tool that
   asks materialises it, every later one gets the same record. *)
let make ?(dispatch_cost = Cost.dbi_dispatch) ?(on_view = ignore) ?on_exec
    ?(on_fault = fun _ -> ()) ?(on_finish = fun _ -> ()) name =
  let on_view =
    match on_exec with
    | None -> on_view
    | Some g ->
        fun v ->
          on_view v;
          g (Event.view_to_exec v)
  in
  { name; dispatch_cost; on_view; on_fault; on_finish }
