(** The generic DIFT engine.

    Instantiated with a {!Taint.DOMAIN}, the engine is a VM tool that
    maintains shadow state for every location, injects taint at input
    reads, propagates it per the configured {!Policy}, and reports
    flows into sinks to a client-provided handler.

    This is the single propagation core all four of the paper's
    application areas instantiate: boolean taint for detection, PC
    taint for bug location, input sets for lineage.

    {!Make} runs over the default flat paged shadow ({!Shadow.Make});
    {!Make_over} additionally takes the shadow implementation as a
    functor argument, which is how the differential suite builds an
    engine over the hashtable reference ({!Shadow.Make_ref}) and
    checks the two are observationally identical. *)

open Dift_isa
open Dift_vm

type sink =
  | Sink_icall  (** indirect-call target *)
  | Sink_output  (** [Sys Write] operand *)
  | Sink_check  (** [Sys Check] operand *)
  | Sink_store_address  (** pointer used by a store *)
  | Sink_load_address  (** pointer used by a load *)
  | Sink_branch  (** branch condition *)

val sink_to_string : sink -> string
val pp_sink : sink Fmt.t

type stats = {
  mutable events : int;
  mutable sources : int;
  mutable sink_hits : int;  (** sinks reached by non-bottom taint *)
}

(** The engine over an explicit shadow implementation. *)
module Make_over (Shadow_impl : Shadow.IMPL) (D : Taint.DOMAIN) : sig
  module Sh : Shadow.S with type elt = D.t

  type t

  val create : ?policy:Policy.t -> Program.t -> t

  (** Register the sink handler (called for every sink event, tainted
      or not; check [D.is_bottom]). *)
  val on_sink : t -> (sink -> D.t -> Event.exec -> unit) -> unit

  (** The allocation-free sink handler: sees the live {!Event.view},
      which is valid only for the duration of the call (use
      {!Event.view_to_exec} to retain it).  May be installed alongside
      {!on_sink}; the view handler runs first. *)
  val on_sink_view : t -> (sink -> D.t -> Event.view -> unit) -> unit

  (** Redirect overhead charging (e.g. to a helper-core clock, or to
      nothing when timing is modelled externally). *)
  val set_charge : t -> (int -> unit) -> unit

  val stats : t -> stats
  val taint_of : t -> Loc.t -> D.t
  val shadow : t -> Sh.t

  (** Tainted locations and total shadow words (memory accounting). *)
  val shadow_footprint : t -> int * int

  (** The per-event transfer function over an {!Event.view}, read in
      place — the machine's own view inline ({!attach} wires it up as
      a VM tool), a decoded one behind the forwarding plane. *)
  val process_view : t -> Event.view -> unit

  (** {!process_view} over a boxed record (filled into a per-engine
      scratch view), for harnesses that replay recorded streams. *)
  val process : t -> Event.exec -> unit

  (** Register the engine's statistics in an observability registry as
      derived gauges ([core.engine.*] and [core.shadow.*]; see
      [docs/observability.md]).  Snapshot-time reads only — the
      propagation hot path is untouched. *)
  val register_obs : t -> Dift_obs.Registry.t -> unit

  (** Sample the shadow footprint onto an execution timeline: every
      [sample_every] processed events (default [256]) the engine
      records [shadow.words] and [shadow.tainted_locations] counter
      samples (category [core]) into the {e processing} domain's
      trace buffer — under the two-domain runtime that is the helper
      track, so the trace shows the footprint growing while the
      application track keeps executing (paper §2.1).
      @raise Invalid_argument if [sample_every < 1]. *)
  val set_trace : ?sample_every:int -> t -> Dift_obs.Trace.t -> unit

  (** Record bounded [engine.progress] milestones (category [core],
      [a] = events processed, [b] = sink hits) on the flight recorder
      every [milestone_every] processed events (default [4096]), on
      the {e processing} domain's ring — so a crash bundle shows how
      far the engine got before the run died.  The first processed
      event records immediately (an engine-start marker).
      @raise Invalid_argument if [milestone_every < 1]. *)
  val set_flight : ?milestone_every:int -> t -> Dift_obs.Flight.t -> unit

  (** Attach to a machine; overhead is charged to the machine's cycle
      counter unless [charge] overrides it. *)
  val attach : ?charge:(int -> unit) -> t -> Machine.t -> unit
end

(** The engine over the default (paged) shadow. *)
module Make (D : Taint.DOMAIN) : module type of Make_over (Shadow.Make) (D)
