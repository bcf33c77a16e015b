(** Deterministic fault injection; see the interface for the model.

    An instance's operation counters are atomics: each counter is
    bumped by exactly one domain (the channel side that owns the
    operation), but [fired] totals are read cross-domain by tests and
    the CLI, and atomics keep every read untorn. *)

exception Injected of string

type op = Push | Pop | Spawn
type fault = Stall of int | Crash
type rule = { on : op; at : int; fault : fault; where : string option }
type plan = rule list

(* -- plan text form ----------------------------------------------------- *)

let op_to_string = function Push -> "push" | Pop -> "pop" | Spawn -> "spawn"

let fault_to_string = function
  | Stall ns -> Fmt.str "stall:%d" ns
  | Crash -> "crash"

let rule_to_string r =
  Fmt.str "%s%s@%d=%s"
    (match r.where with None -> "" | Some w -> w ^ "/")
    (op_to_string r.on) r.at (fault_to_string r.fault)

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

let prefix ~pre s =
  String.length pre <= String.length s
  && String.sub s 0 (String.length pre) = pre

(* Whether [w] is a prefix of the one channel namespace, [parallel].
   Any other [where] would match no channel, and its rule would never
   fire. *)
let names_a_channel w = prefix ~pre:w "parallel"

let rule_of_string s =
  let where, rest =
    match String.index_opt s '/' with
    | Some i ->
        ( Some (String.sub s 0 i),
          String.sub s (i + 1) (String.length s - i - 1) )
    | None -> (None, s)
  in
  match (where, String.index_opt rest '@') with
  | Some w, _ when not (names_a_channel w) ->
      Error
        (Fmt.str
           "rule %S: %S names no channel (want a prefix of parallel)" s w)
  | _, None -> Error (Fmt.str "rule %S: missing '@'" s)
  | _, Some i -> (
      let op_name = String.sub rest 0 i in
      let tail = String.sub rest (i + 1) (String.length rest - i - 1) in
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
            | o -> Error (Fmt.str "rule %S: unknown op %S" s o)
          in
          match (op, int_of_string_opt at_s, fault_of_string f_s) with
          | Ok on, Some at, Ok fault when at >= 1 ->
              Ok { on; at; fault; where }
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
    { on; at; fault; where = None }
  in
  let base = List.init 4 rule in
  (* one seed in ~6 also rehearses a spawn failure *)
  if Random.State.int st 6 = 0 then
    { on = Spawn; at = 1 + Random.State.int st 2; fault = Crash; where = None }
    :: base
  else base

(* -- instances ---------------------------------------------------------- *)

type t = {
  c_plan : plan;
  c_fired : int Atomic.t;
  spawns : int Atomic.t;
  c_stalled_ns : int Atomic.t;
      (** total injected sleep actually served, post-clamp — lets a
          watchdog or test reconcile elapsed time against the plan *)
  c_flight : Dift_obs.Flight.t option;
      (** every fired rule records a [chaos.fire] flight event {e on
          the intercepting domain} — so a crash bundle always carries
          at least one event from the domain the fault hit *)
}

let create ?flight plan =
  { c_plan = plan; c_fired = Atomic.make 0; spawns = Atomic.make 0;
    c_stalled_ns = Atomic.make 0; c_flight = flight }
let plan t = t.c_plan
let fired t = Atomic.get t.c_fired
let stalled_ns t = Atomic.get t.c_stalled_ns

type inst = {
  owner : t;
  ns : string;
  rules : rule list;  (** pre-filtered for this channel's namespace *)
  pushes : int Atomic.t;
  pops : int Atomic.t;
}

let instance t ~ns =
  let rules =
    List.filter
      (fun r ->
        r.on <> Spawn
        && match r.where with None -> true | Some w -> prefix ~pre:w ns)
      t.c_plan
  in
  { owner = t; ns; rules; pushes = Atomic.make 0; pops = Atomic.make 0 }

(* A fat-fingered plan ("stall:3600000000000") must degrade a run, not
   wedge it past any reasonable watchdog deadline: injected sleeps are
   clamped to 2 s apiece, and every ns actually served is accounted in
   [stalled_ns] so deadline tests can reconcile elapsed time. *)
let max_sleep_ns = 2_000_000_000

let sleep_ns owner ns =
  if ns > 0 then begin
    let ns = min ns max_sleep_ns in
    ignore (Atomic.fetch_and_add owner.c_stalled_ns ns);
    Unix.sleepf (float_of_int ns /. 1e9)
  end

(* Serve the [n]-th occurrence of [op]: sleep out every stall rule
   that matched, and return the crash that any crash rule schedules,
   naming the occurrence. *)
let act owner rules op ~what n =
  let crash =
    List.fold_left
      (fun crash r ->
        if r.on <> op || r.at <> n then crash
        else begin
          Atomic.incr owner.c_fired;
          (match owner.c_flight with
          | Some fl ->
              Dift_obs.Flight.record fl ~cat:"chaos" "chaos.fire" ~a:n
                ~detail:(Fmt.str "%s=%s" what (fault_to_string r.fault))
          | None -> ());
          match r.fault with
          | Stall ns ->
              sleep_ns owner ns;
              crash
          | Crash -> true
        end)
      false rules
  in
  if crash then Some (Injected (Fmt.str "injected crash at %s #%d" what n))
  else None

(* Count this occurrence of [op] on [i] and serve it. *)
let serve i op =
  match i.rules with
  | [] -> None
  | rules ->
      let n =
        1 + Atomic.fetch_and_add (if op = Push then i.pushes else i.pops) 1
      in
      act i.owner rules op ~what:(Fmt.str "%s/%s" i.ns (op_to_string op)) n

let on_push i = serve i Push
let on_pop i = serve i Pop

let on_spawn t =
  match List.filter (fun r -> r.on = Spawn) t.c_plan with
  | [] -> None
  | rules ->
      let n = 1 + Atomic.fetch_and_add t.spawns 1 in
      act t rules Spawn ~what:"spawn" n
