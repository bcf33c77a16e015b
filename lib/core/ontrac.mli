(** ONTRAC: online dependence tracing for debugging (paper §2.1).

    A VM tool that computes the dynamic dependence graph online and
    stores dependence records in a fixed-size circular buffer
    ({!Trace_buffer}), eliminating the offline postprocessing step of
    the two-phase baseline ({!Offline}).  The optimizations from the
    paper are all implemented and individually toggleable:

    - {b O1} — dependences within a basic block that are statically
      inferable from the binary are not stored;
    - {b O2} — the same idea extended to hot multi-block paths
      ("traces"): a cross-block register dependence along learned hot
      edges is inferable and not stored;
    - {b O3} — redundant loads do not produce new records;
    - {b O4a} — selective tracing of user-specified functions, with
      summary dependences that safely bridge untraced code so chains
      through the specified functions are not broken;
    - {b O4b} — storing only dependences in the forward slice of the
      program inputs.

    The full graph (stored + inferable edges) for the retained window
    is available as a {!Ddg.t} for slicing; byte and cycle accounting
    reflect only the *stored* records — the paper's accounting, where
    statically recoverable dependences occupy no trace space. *)

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

(** All optimizations on, 16 MB buffer. *)
val default_opts : opts

(** Every optimization off — the unoptimized online tracer. *)
val no_opts : opts

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

type t

val create : ?opts:opts -> Program.t -> t
val stats : t -> stats
val graph : t -> Ddg.t
val buffer : t -> Trace_buffer.t

(** First step still inside the buffer's retained window. *)
val window_start : t -> int

(** Length of the retained execution window, in dynamic
    instructions. *)
val window_length : t -> int

(** Average stored bytes per executed instruction. *)
val bytes_per_instr : t -> float

(** Feed one event (exposed for harnesses that gate or multiplex
    events themselves; {!attach} wires this up as a VM tool). *)
val process : t -> Event.exec -> unit

(** Attach to a machine; all modelled overhead is charged there. *)
val attach : t -> Machine.t -> unit

(** Attach with an event filter: only events satisfying [keep] are
    traced.  Instrumentation is selective, so the DBI dispatch cost is
    paid per *kept* event rather than per instruction. *)
val attach_filtered : t -> Machine.t -> keep:(Event.exec -> bool) -> unit

(** Prune the graph to the final window and return it with the window
    start (to be called after the run). *)
val final_graph : t -> Ddg.t * int

(** Register the tracer's statistics in an observability registry as
    derived gauges ([core.ontrac.*] and [core.trace_buffer.*]; see
    [docs/observability.md]).  Snapshot-time reads only — the tracing
    hot path is untouched. *)
val register_obs : t -> Dift_obs.Registry.t -> unit

(** Put the circular trace buffer on an execution timeline: every
    1024 traced instructions a [trace_buffer.stored_bytes] counter
    sample records the fill level, and every append that evicts
    records emits a [trace_buffer.drain] duration span (category
    [core], with the eviction count as an argument) — the §2.1
    bounded-window story as a fill ramp punctuated by drain pulses. *)
val set_trace : t -> Dift_obs.Trace.t -> unit

val pp_stats : stats Fmt.t
