(** The virtual machine: a multithreaded interpreter for {!Dift_isa}
    programs with an instrumentation-tool interface, deterministic
    seeded scheduling, a replayable schedule/input log, cycle-cost
    accounting and whole-state checkpointing.

    This is the substitute for the dynamic binary instrumentation
    substrate (Pin/Valgrind) every technique in the paper runs on:
    tools attached to the machine observe exactly the event stream a
    DBI plugin would.  The record/replay log and checkpoints serve
    checkpointing & logging and execution reduction (paper §2.2); the
    schedule/input/branch/value override hooks in {!config} serve the
    fault-location mechanisms of §3.1 and the environment patches of
    §3.2. *)

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
      (** dynamic branch instances (by step) whose outcome is
          inverted — the predicate-switching mechanism of §3.1 *)
  value_replacements : (int * int) list;
      (** [(step, v)]: the value produced at dynamic step [step] is
          replaced by [v] — the value-replacement mechanism of §3.1 *)
}

val default_config : config

type t

exception Replay_divergence of string

(** Build a machine for a program and an input stream. *)
val create : ?config:config -> Dift_isa.Program.t -> input:int array -> t

(** Attach an instrumentation tool; its dispatch cost is charged per
    instruction from then on. *)
val attach : t -> Tool.t -> unit

(** Charge extra modelled cycles (used by tools for their overhead). *)
val charge : t -> int -> unit

(** Override the per-instruction base cost (replay fast-forwarding of
    log-applied regions). *)
val set_step_cost : t -> (Event.view -> int) -> unit

val program : t -> Dift_isa.Program.t
val memory : t -> Memory.t

(** Modelled cycles so far (base + dispatch + tool charges). *)
val cycles : t -> int

(** Dynamic instructions executed so far. *)
val steps : t -> int

(** Program output, oldest first, as [(step, value)] pairs. *)
val output : t -> (int * int) list

val output_values : t -> int list

(** The recorded scheduling choices, oldest first. *)
val schedule_log : t -> (int * int) list

(** The recorded input reads, oldest first: [(step, index, value)]. *)
val input_log : t -> (int * int * int) list

(** Ask the machine to stop after the current instruction; the run's
    outcome becomes [Stopped reason].  For tools such as the attack
    detector. *)
val request_stop : t -> string -> unit

(** A hash of the externally observable machine state: memory contents
    and program output.  Every memory cell and every output counts, so
    two runs with equal fingerprints behaved identically as far as
    program semantics is concerned (up to hash collisions). *)
val fingerprint : t -> int

(** Run to completion (or fault / deadlock / step budget / stop
    request).  A machine runs once.
    @raise Replay_divergence when a replay schedule cannot be
    followed. *)
val run : t -> Event.outcome

(** {1 Checkpointing} *)

type checkpoint

(** Capture the entire mutable state.  The modelled cost
    ({!Cost.checkpoint_word} per live memory word) is charged to the
    machine. *)
val checkpoint : t -> checkpoint

(** Build a fresh machine whose state is the checkpoint's.  It shares
    nothing mutable with the checkpoint and may use a different
    config — e.g. replay mode with a recorded schedule suffix. *)
val of_checkpoint :
  ?config:config -> Dift_isa.Program.t -> input:int array -> checkpoint -> t

(** Live memory words the checkpoint captured (its cost measure). *)
val checkpoint_words : checkpoint -> int

(** Step counter at which the checkpoint was taken. *)
val checkpoint_step : checkpoint -> int
