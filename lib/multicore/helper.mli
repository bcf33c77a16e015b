(** Helper-thread DIFT on multicores (paper §2.1, "Exploiting
    multicores", after Nagarajan et al., INTERACT'08).

    The application runs on the main core; a helper thread on a second
    core performs the information-flow tracking.  The main core only
    forwards what the helper cannot reconstruct from the static code:
    memory addresses/values, input values and control-flow outcomes.
    The producer/consumer timing between the cores is simulated with a
    bounded queue; the main-core slowdown is the number the paper
    reports (48% for SPEC integer programs with hardware support).

    This module {e simulates} the architecture with a deterministic
    cycle model — it answers "what would this cost on the paper's
    hardware?".  Its counterpart [Dift_parallel.Parallel] {e runs} the
    same architecture for real on OCaml 5 domains (one helper via
    [Parallel.run_result]) and reports wall-clock time; the two are compared side by side in
    [README.md], "Simulated vs. real parallelism". *)

open Dift_isa
open Dift_core

type channel =
  | Software  (** shared-memory queue; main core needs DBI *)
  | Hardware  (** dedicated interconnect; forwarding is transparent *)

(** ["software"] or ["hardware"] — the spelling the experiment tables
    and the CLI print. *)
val channel_to_string : channel -> string

type report = {
  channel : channel;
  base_cycles : int;  (** uninstrumented run *)
  main_cycles : int;  (** main core, incl. forwarding and stalls *)
  helper_busy_cycles : int;  (** work done on the helper core *)
  finish_cycles : int;  (** when both cores are done *)
  stall_cycles : int;  (** main-core cycles lost to a full queue *)
  messages : int;
  instructions : int;
  sink_hits : int;  (** taint reaching sinks, observed by the helper *)
}

(** Main-core overhead over native execution (0.48 = 48%). *)
val main_overhead : report -> float

(** End-to-end slowdown over native execution:
    [finish_cycles / base_cycles] — when {e both} cores are done, not
    just the main one.  Compare across channels: the software queue's
    total slowdown is a multiple of the hardware channel's. *)
val total_slowdown : report -> float

(** [run program ~input] simulates one tracked execution and returns
    the cycle accounting.  [channel] picks the forwarding substrate
    (default [Hardware]); [queue_capacity] bounds the inter-core
    queue (small queues make the main core stall on a lagging helper
    — the knob experiment E3 sweeps); [policy] is passed to the
    underlying {!Dift_core.Engine}.  Deterministic: same arguments,
    same report. *)
val run :
  ?channel:channel ->
  ?queue_capacity:int ->
  ?policy:Policy.t ->
  Program.t ->
  input:int array ->
  report

(** Channel, cycle counts, stalls, messages and sink hits on one
    line. *)
val pp_report : report Fmt.t
