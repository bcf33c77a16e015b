(** Producer-side taint-liveness filter; see the interface for the
    protocol and the soundness argument. *)

open Dift_vm

(* The bitmap: [n_words] words (a power of two, so a mask picks the
   word) of 63 page keys each, 64,512 keys; a page is [1 lsl
   page_bits] locations of one plane. *)
let n_words = 1024
let page_bits = 6

type t = {
  words : int Atomic.t array;
      (** H — the monotone ever-tainted page-hash bitmap.  Helpers set
          bits (check-then-CAS-OR); nobody ever clears one. *)
  stamps : int array;
      (** producer-only: last step at which the producer forwarded an
          event that may produce taint in a location hashing to this
          word ([min_int] = never) *)
  epochs : int Atomic.t array;
      (** per-consumer: step of the last event fully processed {e and
          published} ([-1] = none yet) *)
  mutable cached_min : int;
      (** producer cache of [min epochs] — monotone, so staleness only
          over-forwards *)
  mutable since_refresh : int;
  mutable filtered : int;  (** producer-only: events dropped *)
  reset_interval : int;  (** admitted events between reset attempts; 0
                             disables generation resets *)
  mutable since_reset : int;  (** producer-only *)
  mutable fed_last : int;
      (** producer-only: step of the last {e forwarded} event ([-1] =
          none) — quiescence is every epoch covering it *)
  mutable standdown : bool;
      (** producer-only: H was just cleared and is being rebuilt; no
          filtering until every slot has acked the new generation *)
  generation : int Atomic.t;  (** bumped by the producer at each reset *)
  acks : int Atomic.t array;
      (** per-consumer: last generation whose repopulation this slot
          completed *)
  mutable resets : int;  (** producer-only: completed H clears *)
  scratch : Event.view;  (** producer-only: {!admit}'s adapter view *)
}

let refresh_interval = 256

let create ?(reset_interval = 8192) ~slots () =
  if slots < 1 then
    invalid_arg (Fmt.str "Livefilter.create: slots = %d < 1" slots);
  if reset_interval < 0 then
    invalid_arg
      (Fmt.str "Livefilter.create: reset_interval = %d < 0" reset_interval);
  {
    words = Array.init n_words (fun _ -> Atomic.make 0);
    stamps = Array.make n_words min_int;
    epochs = Array.init slots (fun _ -> Atomic.make (-1));
    cached_min = -1;
    since_refresh = 0;
    filtered = 0;
    reset_interval;
    since_reset = 0;
    fed_last = -1;
    standdown = false;
    generation = Atomic.make 0;
    acks = Array.init slots (fun _ -> Atomic.make 0);
    resets = 0;
    scratch = Event.view_blank ();
  }

(* Key of a location: (page of its index, plane).  Registers (odd
   locs) and memory (even locs) land on disjoint keys so a dense
   register file cannot shadow the memory pages.  A word holds 63
   keys, one per bit of an OCaml int: [1 lsl 63] is 0, so a 64th key
   per word would never be published nor seen live.  (Packing 32 keys
   per word would need twice the words, and so twice this filter's
   per-run allocation, for the same capacity.) *)
let keys_per_word = 63
let key_of loc = (((loc lsr 1) lsr page_bits) lsl 1) lor (loc land 1)
let word_of_key k = (k / keys_per_word) land (n_words - 1)
let bit_of_key k = 1 lsl (k mod keys_per_word)

let refresh_min t =
  let m = ref max_int in
  for i = 0 to Array.length t.epochs - 1 do
    let e = Atomic.get t.epochs.(i) in
    if e < !m then m := e
  done;
  t.cached_min <- !m;
  t.since_refresh <- 0

(* A location is possibly-live iff its page hash has ever been
   published tainted, or some event that may have produced taint there
   is not yet covered by every consumer's published epoch. *)
let live t loc =
  let k = key_of loc in
  let w = word_of_key k in
  Atomic.get t.words.(w) land bit_of_key k <> 0
  || t.stamps.(w) > t.cached_min

let rec any_live t (locs : Loc.t array) i n =
  i < n && (live t locs.(i) || any_live t locs (i + 1) n)

(* Generation reset (producer side).  H is monotone, so on taint-dense
   phases it saturates and the filter stops earning its keep even
   after the taint dies.  At a {e quiescent} point — every consumer's
   published epoch covers the last event the producer ever forwarded,
   hence no publish can be in flight — the producer clears H, bumps
   the generation, and {e stands down} (forwards everything, stamps
   every write) until each consumer has republished its live taint
   from its shadow and acked the generation.  Standdown over-forwards
   and over-stamps only, so it is sound by the same argument as a
   stale [cached_min]; what the reset buys is that pages whose taint
   has since been overwritten come back {e clean}. *)
let maybe_reset t =
  if t.standdown then begin
    let g = Atomic.get t.generation in
    let all_acked = ref true in
    for i = 0 to Array.length t.acks - 1 do
      if Atomic.get t.acks.(i) < g then all_acked := false
    done;
    if !all_acked then t.standdown <- false
  end
  else if t.reset_interval > 0 then begin
    t.since_reset <- t.since_reset + 1;
    if t.since_reset >= t.reset_interval && t.fed_last >= 0 then begin
      let quiet = ref true in
      for i = 0 to Array.length t.epochs - 1 do
        if Atomic.get t.epochs.(i) < t.fed_last then quiet := false
      done;
      (* not quiet: re-check on the next admit — two or three atomic
         loads, not worth a separate cadence *)
      if !quiet then begin
        t.since_reset <- 0;
        (* safe: quiescence means no consumer holds an unprocessed
           event, and the producer (us) is the only feeder — nobody
           can be CAS-ing bits while we clear *)
        Array.iter (fun w -> Atomic.set w 0) t.words;
        Atomic.incr t.generation;
        t.resets <- t.resets + 1;
        t.standdown <- true
      end
    end
  end

let stamp t step (locs : Loc.t array) n =
  for i = 0 to n - 1 do
    t.stamps.(word_of_key (key_of locs.(i))) <- step
  done

let admit_view t (v : Event.view) =
  t.since_refresh <- t.since_refresh + 1;
  if t.since_refresh >= refresh_interval then refresh_min t;
  maybe_reset t;
  let step = v.Event.v_step in
  let writes = v.Event.v_writes and nw = v.Event.v_nwrites in
  if t.standdown then begin
    (* H is being rebuilt: no filtering, and stamp {e every} write —
       an event whose reads are live only in a consumer's
       not-yet-republished shadow must still protect its writes *)
    stamp t step writes nw;
    t.fed_last <- step;
    true
  end
  else begin
    let live_in = any_live t v.Event.v_reads 0 v.Event.v_nreads in
    (* every forwarded event that may introduce taint (a source, or a
       propagation from live reads) stamps its write words, so nothing
       downstream of it can be dropped before the helper publishes H *)
    if live_in || Site.is_input_instr v.Event.v_instr then
      stamp t step writes nw;
    let forward =
      (not (Site.filterable_instr v.Event.v_instr))
      || live_in
      (* untainted writes over possibly-tainted locations clear taint
         in the helper's shadow — they must go through *)
      || any_live t writes 0 nw
    in
    if forward then t.fed_last <- step else t.filtered <- t.filtered + 1;
    forward
  end

let admit t e =
  Event.view_fill t.scratch e;
  admit_view t t.scratch

let filtered t = t.filtered
let resets t = t.resets
let reset_pending t = t.standdown
let generation t = Atomic.get t.generation

(* -- consumer side ------------------------------------------------------ *)

let publish_loc t loc =
  let k = key_of loc in
  let w = t.words.(word_of_key k) in
  let bit = bit_of_key k in
  (* check-then-CAS: steady state on already-published pages is one
     atomic load, no write traffic *)
  let rec set () =
    let cur = Atomic.get w in
    if cur land bit = 0 then
      if not (Atomic.compare_and_set w cur (cur lor bit)) then set ()
  in
  set ()

let publish t ~tainted (v : Event.view) =
  for i = 0 to v.Event.v_nwrites - 1 do
    let l = v.Event.v_writes.(i) in
    if tainted l then publish_loc t l
  done

let advance ?repopulate t ~slot ~step =
  (match repopulate with
  | Some f ->
      (* a new generation: republish this consumer's live taint from
         its shadow {e before} acking, so the producer resumes
         filtering only against a complete H.  The generation is
         stable while any slot is unacked (the producer stands down),
         so the load/ack pair cannot straddle a bump. *)
      let g = Atomic.get t.generation in
      if Atomic.get t.acks.(slot) < g then begin
        f ();
        Atomic.set t.acks.(slot) g
      end
  | None -> ());
  if step > Atomic.get t.epochs.(slot) then Atomic.set t.epochs.(slot) step
