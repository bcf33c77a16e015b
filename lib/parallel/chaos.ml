(** Fault plans and a run's fault totals; see the interface for the
    model.  The totals are atomics: the seams that fire faults run on
    both domains, and tests and the CLI read the totals from either. *)

exception Injected of string

type op = Push | Pop | Spawn
type fault = Stall of int | Crash
type rule = { on : op; at : int; fault : fault }
type plan = rule list

(* -- plan text form ----------------------------------------------------- *)

let op_to_string = function Push -> "push" | Pop -> "pop" | Spawn -> "spawn"

let fault_to_string = function
  | Stall ns -> Fmt.str "stall:%d" ns
  | Crash -> "crash"

let rule_to_string r =
  Fmt.str "%s@%d=%s" (op_to_string r.on) r.at (fault_to_string r.fault)

let plan_to_string p = String.concat ";" (List.map rule_to_string p)
let pp_plan ppf p = Fmt.string ppf (plan_to_string p)

let fault_of_string s =
  match String.split_on_char ':' s with
  | [ "crash" ] -> Ok Crash
  | [ "stall"; ns ] -> (
      match int_of_string_opt ns with
      | Some n when n >= 0 -> Ok (Stall n)
      | _ -> Error (Fmt.str "bad duration %S (want non-negative ns)" ns))
  | _ -> Error (Fmt.str "unknown fault %S (want stall:<ns>|crash)" s)

let rule_of_string s =
  match String.index_opt s '@' with
  | None -> Error (Fmt.str "rule %S: missing '@'" s)
  | Some i -> (
      let op_name = String.sub s 0 i in
      let tail = String.sub s (i + 1) (String.length s - i - 1) in
      match String.index_opt tail '=' with
      | None -> Error (Fmt.str "rule %S: missing '='" s)
      | Some j -> (
          let at_s = String.sub tail 0 j in
          let f_s = String.sub tail (j + 1) (String.length tail - j - 1) in
          let op =
            match op_name with
            | "push" -> Ok Push
            | "pop" -> Ok Pop
            | "spawn" -> Ok Spawn
            | o ->
                Error
                  (Fmt.str "rule %S: unknown op %S (want push|pop|spawn)" s o)
          in
          match (op, int_of_string_opt at_s, fault_of_string f_s) with
          | Ok Spawn, Some at, Ok _ when at > 1 ->
              Error
                (Fmt.str
                   "rule %S: a run spawns one helper, so only spawn@1 can \
                    fire"
                   s)
          | Ok on, Some at, Ok fault when at >= 1 -> Ok { on; at; fault }
          | Ok _, None, _ ->
              Error (Fmt.str "rule %S: bad occurrence %S" s at_s)
          | Ok _, Some at, Ok _ ->
              Error (Fmt.str "rule %S: occurrence %d < 1" s at)
          | Ok _, Some _, (Error _ as e) -> e
          | (Error _ as e), _, _ -> e))

let plan_of_string s =
  let parts =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty fault plan"
  else
    List.fold_left
      (fun acc p ->
        match (acc, rule_of_string p) with
        | Error _, _ -> acc
        | Ok rs, Ok r -> Ok (r :: rs)
        | Ok _, Error e -> Error e)
      (Ok []) parts
    |> Result.map List.rev

(* -- seeded plans ------------------------------------------------------- *)

(* Small occurrence indices and sub-5ms sleeps: plans must bite within
   a CI-sized run and never slow the sweep meaningfully.  Four rules,
   crashes drawn half the time. *)
let plan_of_seed seed =
  let st = Random.State.make [| 0x5eed; seed |] in
  let rule _ =
    let on = if Random.State.bool st then Push else Pop in
    let at = 1 + Random.State.int st 24 in
    let fault =
      match Random.State.int st 10 with
      | 0 | 1 | 2 -> Stall (100_000 + Random.State.int st 2_000_000)
      | 3 | 4 -> Stall (50_000 + Random.State.int st 1_000_000)
      | _ -> Crash
    in
    { on; at; fault }
  in
  let base = List.init 4 rule in
  (* one seed in ~6 also rehearses a spawn failure; a run spawns one
     helper, so the failure is at its first spawn *)
  if Random.State.int st 6 = 0 then
    { on = Spawn; at = 1; fault = Crash } :: base
  else base

(* -- the run's totals ----------------------------------------------------- *)

type t = {
  c_plan : plan;
  c_fired : int Atomic.t;
  c_stalled_ns : int Atomic.t;
      (** total injected sleep actually served, post-clamp — lets a
          watchdog or test reconcile elapsed time against the plan *)
}

let create plan =
  { c_plan = plan; c_fired = Atomic.make 0; c_stalled_ns = Atomic.make 0 }

let plan t = t.c_plan
let fired t = Atomic.get t.c_fired
let stalled_ns t = Atomic.get t.c_stalled_ns

let fire t op n =
  List.filter_map
    (fun r ->
      if r.on = op && r.at = n then begin
        Atomic.incr t.c_fired;
        Some r.fault
      end
      else None)
    t.c_plan

(* A fat-fingered plan ("stall:3600000000000") must degrade a run, not
   wedge it past any reasonable watchdog deadline: injected sleeps are
   clamped to 2 s apiece, and every ns actually served is accounted in
   [stalled_ns] so deadline tests can reconcile elapsed time. *)
let max_sleep_ns = 2_000_000_000

let stall t ns =
  if ns > 0 then begin
    let ns = min ns max_sleep_ns in
    ignore (Atomic.fetch_and_add t.c_stalled_ns ns);
    Unix.sleepf (float_of_int ns /. 1e9)
  end
