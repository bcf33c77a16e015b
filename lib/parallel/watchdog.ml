(** Deadline supervision over a {!Dift_obs.Progress} table; see the
    interface for the model and the false-positive argument. *)

(* -- deadlines ---------------------------------------------------------- *)

type deadlines = { default_ms : int; overrides : (string * int) list }

let deadlines ?(overrides = []) default_ms =
  if default_ms < 1 then
    invalid_arg (Fmt.str "Watchdog.deadlines: %d ms < 1" default_ms);
  List.iter
    (fun (pre, ms) ->
      if pre = "" then invalid_arg "Watchdog.deadlines: empty seam prefix";
      if ms < 1 then
        invalid_arg (Fmt.str "Watchdog.deadlines: %s = %d ms < 1" pre ms))
    overrides;
  { default_ms; overrides }

let deadlines_to_string d =
  String.concat ";"
    (string_of_int d.default_ms
    :: List.map (fun (pre, ms) -> Fmt.str "%s=%d" pre ms) d.overrides)

let prefix ~pre s =
  String.length pre <= String.length s
  && String.sub s 0 (String.length pre) = pre

(* The runtime's watchdog seams.  An override whose prefix names none
   of them would never apply. *)
let seams = [ "parallel.push"; "parallel.pop"; "spawn.helper"; "join.helper" ]

let deadlines_of_string s =
  let parts =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  match parts with
  | [] -> Error "empty deadline spec"
  | def :: rest -> (
      match int_of_string_opt def with
      | None -> Error (Fmt.str "bad default deadline %S (want ms)" def)
      | Some default_ms when default_ms < 1 ->
          Error (Fmt.str "default deadline %d ms < 1" default_ms)
      | Some default_ms ->
          let overrides =
            List.fold_left
              (fun acc part ->
                match acc with
                | Error _ -> acc
                | Ok os -> (
                    match String.index_opt part '=' with
                    | None ->
                        Error (Fmt.str "override %S: missing '='" part)
                    | Some i -> (
                        let pre = String.sub part 0 i in
                        let ms_s =
                          String.sub part (i + 1)
                            (String.length part - i - 1)
                        in
                        if pre = "" then
                          Error (Fmt.str "override %S: empty prefix" part)
                        else if
                          not (List.exists (fun seam -> prefix ~pre seam) seams)
                        then
                          Error
                            (Fmt.str
                               "override %S: %S names no seam (want a prefix \
                                of %s)"
                               part pre (String.concat ", " seams))
                        else
                          match int_of_string_opt ms_s with
                          | Some ms when ms >= 1 -> Ok ((pre, ms) :: os)
                          | _ ->
                              Error
                                (Fmt.str "override %S: bad ms %S" part ms_s))))
              (Ok []) rest
          in
          Result.map
            (fun os -> { default_ms; overrides = List.rev os })
            overrides)

let deadline_ms d seam =
  match List.find_opt (fun (pre, _) -> prefix ~pre seam) d.overrides with
  | Some (_, ms) -> ms
  | None -> d.default_ms

(* -- misses ------------------------------------------------------------- *)

type miss = {
  m_seam : string;
  m_epoch : int;
  m_blocked_ns : int;
  m_deadline_ns : int;
  m_armed : (string * int) list;
}

exception Deadline_exceeded of miss

let pp_miss ppf m =
  Fmt.pf ppf
    "deadline exceeded: seam %s blocked %.1f ms (deadline %.1f ms, epoch \
     %d); armed: %a"
    m.m_seam
    (float_of_int m.m_blocked_ns /. 1e6)
    (float_of_int m.m_deadline_ns /. 1e6)
    m.m_epoch
    Fmt.(list ~sep:comma (pair ~sep:(any "@") string int))
    m.m_armed

let () =
  Printexc.register_printer (function
    | Deadline_exceeded m -> Some (Fmt.str "%a" pp_miss m)
    | _ -> None)

(* -- the watchdog ------------------------------------------------------- *)

type seen = { mutable s_epoch : int; mutable s_since_ns : int }

type t = {
  w_deadlines : deadlines;
  w_progress : Dift_obs.Progress.t;
  w_sampler : Dift_obs.Sampler.t;
  w_owned : bool;
  mutable w_job : Dift_obs.Sampler.job option;
  w_fired : miss option Atomic.t;
  w_checks : int Atomic.t;
  w_lock : Mutex.t;
      (** serializes [check] (sampler job vs an explicit {!check_now})
          and guards [w_hooks] *)
  mutable w_hooks : (string * (unit -> unit)) list;  (** reversed *)
  w_flight : Dift_obs.Flight.t option;
  w_seen : (int, seen) Hashtbl.t;  (** keyed by [Progress.id]; only
                                       touched under [w_lock] *)
  mutable w_last_total : int;
  mutable w_total_since_ns : int;
}

let min_deadline_ms d =
  List.fold_left (fun a (_, ms) -> min a ms) d.default_ms d.overrides

(* Run the cascade: hooks whose name prefixes the stalled seam first
   (the channel the wedge sits on), then every other hook in
   registration (dependency) order.  All hooks are idempotent aborts,
   and each runs under its own handler so one failing hook cannot
   strand the rest of the teardown. *)
let cascade t m =
  let hooks = List.rev t.w_hooks in
  let hit, rest =
    List.partition (fun (name, _) -> prefix ~pre:name m.m_seam) hooks
  in
  List.iter
    (fun (name, f) ->
      (match t.w_flight with
      | Some fl ->
          Dift_obs.Flight.record fl ~cat:"watchdog" "watchdog.cascade"
            ~detail:name
      | None -> ());
      try f () with _ -> ())
    (hit @ rest)

let fire t m =
  Atomic.set t.w_fired (Some m);
  (match t.w_flight with
  | Some fl ->
      Dift_obs.Flight.record fl ~cat:"watchdog" "watchdog.miss"
        ~a:(m.m_blocked_ns / 1_000_000)
        ~b:(m.m_deadline_ns / 1_000_000)
        ~detail:m.m_seam
  | None -> ());
  cascade t m

(* One deadline check.  A leg misses its deadline iff it is armed
   (parked inside a blocking region), its own epoch has been frozen
   for at least its deadline, AND the global epoch sum has been frozen
   just as long — the global condition is what keeps legitimate waits
   (a consumer parked while the producer computes, a join armed while
   a helper drains) from ever firing: as long as {e anything} in the
   run ticks, no leg can miss.  Conversely, a genuine wedge freezes
   the whole table, and the armed leg names the seam. *)
let check t =
  if Atomic.get t.w_fired = None then begin
    Atomic.incr t.w_checks;
    let now = Dift_obs.Clock.now_ns () in
    let total = Dift_obs.Progress.total t.w_progress in
    if total <> t.w_last_total then begin
      t.w_last_total <- total;
      t.w_total_since_ns <- now
    end;
    let total_frozen_ns = now - t.w_total_since_ns in
    let worst = ref None in
    List.iter
      (fun leg ->
        let id = Dift_obs.Progress.id leg in
        let e = Dift_obs.Progress.epoch leg in
        match Hashtbl.find_opt t.w_seen id with
        | None -> Hashtbl.add t.w_seen id { s_epoch = e; s_since_ns = now }
        | Some s ->
            if e <> s.s_epoch then begin
              s.s_epoch <- e;
              s.s_since_ns <- now
            end
            else if e land 1 = 1 then begin
              let blocked_ns = now - s.s_since_ns in
              let deadline_ns =
                deadline_ms t.w_deadlines (Dift_obs.Progress.name leg)
                * 1_000_000
              in
              if blocked_ns >= deadline_ns && total_frozen_ns >= deadline_ns
              then
                match !worst with
                | Some (_, b, _) when b >= blocked_ns -> ()
                | _ -> worst := Some (leg, blocked_ns, deadline_ns)
            end)
      (Dift_obs.Progress.legs t.w_progress);
    match !worst with
    | None -> ()
    | Some (leg, blocked_ns, deadline_ns) ->
        let armed =
          List.filter_map
            (fun l ->
              if Dift_obs.Progress.armed l then
                Some
                  (Dift_obs.Progress.name l, Dift_obs.Progress.epoch l)
              else None)
            (Dift_obs.Progress.legs t.w_progress)
        in
        fire t
          {
            m_seam = Dift_obs.Progress.name leg;
            m_epoch = Dift_obs.Progress.epoch leg;
            m_blocked_ns = blocked_ns;
            m_deadline_ns = deadline_ns;
            m_armed = armed;
          }
  end

let check_locked t =
  Mutex.lock t.w_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.w_lock) (fun () -> check t)

let create ?obs ?flight ?sampler w_deadlines =
  let w_progress = Dift_obs.Progress.create () in
  let w_sampler, w_owned =
    match sampler with
    | Some s -> (s, false)
    | None -> (Dift_obs.Sampler.create (), true)
  in
  (* sample a few times per shortest deadline so a miss is detected
     within ~1.25x its deadline; clamp so sub-10ms deadlines don't
     spin the sampler and huge ones still stop promptly *)
  let interval_ms = max 2 (min 50 (min_deadline_ms w_deadlines / 4)) in
  let t =
    {
      w_deadlines;
      w_progress;
      w_sampler;
      w_owned;
      w_job = None;
      w_fired = Atomic.make None;
      w_checks = Atomic.make 0;
      w_lock = Mutex.create ();
      w_hooks = [];
      w_flight = flight;
      w_seen = Hashtbl.create 16;
      w_last_total = 0;
      w_total_since_ns = Dift_obs.Clock.now_ns ();
    }
  in
  t.w_job <-
    Some
      (Dift_obs.Sampler.add w_sampler ~name:"watchdog" ~interval_ms (fun () ->
           check_locked t));
  (match obs with
  | Some reg ->
      Dift_obs.Registry.gauge_fn reg "watchdog.checks"
        ~help:"deadline checks run" (fun () -> Atomic.get t.w_checks);
      Dift_obs.Registry.gauge_fn reg "watchdog.fired"
        ~help:"1 after a deadline miss" (fun () ->
          match Atomic.get t.w_fired with Some _ -> 1 | None -> 0);
      Dift_obs.Progress.register_obs t.w_progress reg
  | None -> ());
  t

let progress t = t.w_progress
let fired t = Atomic.get t.w_fired
let checks t = Atomic.get t.w_checks
let deadline_spec t = t.w_deadlines

let on_miss t ~name f =
  Mutex.lock t.w_lock;
  t.w_hooks <- (name, f) :: t.w_hooks;
  Mutex.unlock t.w_lock

let check_now t = check_locked t

let stop t =
  (* synchronous: after remove, no check is in flight *)
  (match t.w_job with
  | Some j ->
      t.w_job <- None;
      Dift_obs.Sampler.remove t.w_sampler j
  | None -> ());
  if t.w_owned then Dift_obs.Sampler.stop t.w_sampler
