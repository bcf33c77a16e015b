(** The heartbeat sampler; see the interface for the contract.

    Single-writer discipline: beat 0 is written by the starting domain
    before the job is scheduled ({!Sampler.add} publishes the
    channel), every periodic beat by the shared sampler domain, and
    the final beat again by the stopping domain — {e after}
    {!Sampler.remove}, whose synchronous-removal guarantee is what
    rules out a race with a periodic beat.  No two writes ever
    overlap, so each line in the file is a complete JSON record. *)

type t = {
  interval_ms : int;
  reg : Registry.t;
  start_ns : int;
  beats : int Atomic.t;
  first_json : Json.t;
  oc : out_channel;
  sampler : Sampler.t;
  job : Sampler.job;
  mutable stopped : bool;
}

(* One compact line per beat, flushed immediately: an outside reader
   (or a post-crash inspection) always sees complete records, and the
   last line timestamps how far the run got before wedging. *)
let write_beat oc start_ns reg beats =
  let seq = Atomic.fetch_and_add beats 1 in
  let metrics = Registry.to_json (Registry.snapshot reg) in
  let line =
    Json.obj
      [
        ("seq", Json.Int seq);
        ("t_ns", Json.Int (Clock.now_ns () - start_ns));
        ("metrics", metrics);
      ]
  in
  output_string oc (Json.to_compact_string line);
  output_char oc '\n';
  flush oc

let start ?(interval_ms = 200) ~sampler reg ~file =
  if interval_ms < 1 then invalid_arg "Heartbeat.start: interval_ms < 1";
  let oc = open_out file in
  let first_json = Registry.to_json (Registry.snapshot reg) in
  let start_ns = Clock.now_ns () in
  let beats = Atomic.make 0 in
  write_beat oc start_ns reg beats;
  let job =
    Sampler.add sampler ~name:("heartbeat:" ^ file) ~interval_ms (fun () ->
        write_beat oc start_ns reg beats)
  in
  { interval_ms; reg; start_ns; beats; first_json; oc; sampler; job;
    stopped = false }

let first t = t.first_json
let beats t = Atomic.get t.beats

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (* synchronous: after this, no periodic beat is in flight *)
    Sampler.remove t.sampler t.job;
    write_beat t.oc t.start_ns t.reg t.beats;
    close_out_noerr t.oc
  end;
  Atomic.get t.beats
