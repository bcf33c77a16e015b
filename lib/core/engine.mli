(** The generic DIFT engine.

    Instantiated with a {!Taint.DOMAIN}, the engine is a VM tool that
    maintains shadow state for every location, injects taint at input
    reads, propagates it per the configured {!Policy}, and reports
    flows into sinks to a client-provided handler.

    This is the single propagation core all four of the paper's
    application areas instantiate: boolean taint for detection, PC
    taint for bug location, input sets for lineage.

    The engine takes no instrument.  Its transfer function
    ({!Make_over.process_view}) does the tracking work and counts it
    in {!stats}; a run that traces, flight-records or registers an
    engine wraps that function and reads {!stats} and the shadow
    footprint from outside ([Dift_parallel.Probe.engine]).

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

  (** Attach to a machine; overhead is charged to the machine's cycle
      counter unless [charge] overrides it. *)
  val attach : ?charge:(int -> unit) -> t -> Machine.t -> unit
end

(** The engine over the default (paged) shadow. *)
module Make (D : Taint.DOMAIN) : module type of Make_over (Shadow.Make) (D)
