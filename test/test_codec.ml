(* The de-boxed forwarding plane: the outcome wire must be lossless —
   encode ∘ decode is the identity on machine-shaped events (compact
   and explicit sets, implied fields that agree with the chain or ride
   a cut), on machine streams with events dropped, and through the
   full channel framing, with the value compared where the wire
   forwards it; events foreign to the interned program are rejected;
   and machine streams stay within the wire's word budget.
   Whole-run equivalence: the coded wire, the boxed wire and
   the producer-side liveness filter all produce bit-identical reports
   on every kernel, from both entry points — and the filter strictly
   reduces forwarded volume on taint-sparse streams. *)

open Dift_isa
open Dift_vm
open Dift_core
open Dift_workloads
open Dift_parallel

let check = Alcotest.check

(* Unwrap a run that must succeed. *)
let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "run failed: %a" Parallel.pp_error e

(* -- round-trip: encode ∘ decode ≡ identity --------------------------- *)

let prog = Spec_like.crc.Workload.program
let table = Site.of_program prog

(* Whether the wire forwards the event's value: at a [Spawn] always,
   at a sink site when the encoder forwards sink values.  Elsewhere
   the decoded value is [0], by design: no helper reads it. *)
let value_forwarded ~sink_values (e : Event.exec) =
  (match e.Event.instr with Instr.Sys (Instr.Spawn _) -> true | _ -> false)
  || (sink_values && Site.is_sink_instr e.Event.instr)

(* Decoding must return the program's own function and instruction
   (interning preserves identity), and every dynamic field verbatim;
   the value only where it is forwarded, and [0] elsewhere. *)
let exec_eq ?(sink_values = false) (a : Event.exec) (b : Event.exec) =
  a.Event.step = b.Event.step
  && a.Event.tid = b.Event.tid
  && a.Event.func == b.Event.func
  && a.Event.pc = b.Event.pc
  && a.Event.instr == b.Event.instr
  && a.Event.reads = b.Event.reads
  && a.Event.writes = b.Event.writes
  && a.Event.addr = b.Event.addr
  && (if value_forwarded ~sink_values a then a.Event.value = b.Event.value
      else b.Event.value = 0)
  && a.Event.next_pc = b.Event.next_pc
  && a.Event.input_index = b.Event.input_index

let pp_exec ppf (e : Event.exec) =
  Fmt.pf ppf "%s:%d step %d r[%a] w[%a] addr %d"
    e.Event.func.Func.name e.Event.pc e.Event.step
    Fmt.(list ~sep:comma int)
    e.Event.reads
    Fmt.(list ~sep:comma int)
    e.Event.writes e.Event.addr

(* Programs whose sites cover every chain case: crc's loads,
   stores, reads and branches, treesum's calls, returns and jumps, and
   the server's threads. *)
let tables =
  List.map Site.of_program
    [ prog; Spec_like.treesum.Workload.program; Server_sim.program () ]

(* The implied next-pc: mostly the row's static successor (a branch's
   fall-through, a jump's target, [-1] after a call, the own pc of a
   return or halt), a branch's taken target, and sometimes neither (a
   fault, a waiting barrier, a flipped or hand-built target). *)
let next_pc_gen (row : Site.row) =
  QCheck2.Gen.(
    frequency
      [
        (6, return row.Site.s_next_pc);
        (3, return row.Site.s_taken_pc);
        (1, int_range (-1) 50);
      ])

(* The address lane's pair: a Load/Store's address and a Read's input
   index ride the lane, the other of the two is implied [-1], and both
   are at every other site — each implied value sometimes wrong. *)
let lanes_gen (row : Site.row) =
  QCheck2.Gen.(
    let stray = frequency [ (5, return (-1)); (1, int_bound 400) ] in
    let* addr =
      if row.Site.s_mem_read || row.Site.s_mem_write then int_bound 400
      else stray
    in
    let* input_index = if row.Site.s_input then int_range (-1) 40 else stray in
    return (addr, input_index))

(* Step and tid as a hand-built stream might give them; the stream
   generator below rewrites them into runs with gaps and switches. *)
let dyn_gen =
  QCheck2.Gen.(
    let* step = int_bound 100_000 in
    let* tid = int_bound 3 in
    let* value = int_bound 1_000 in
    return (step, tid, value))

(* Activation frames: small, and large (a frame is a full word in a
   cut, whatever its size). *)
let frame_gen =
  QCheck2.Gen.(
    frequency
      [
        (8, int_bound 5); (1, return (1 lsl 21)); (1, return ((1 lsl 40) + 3));
      ])

(* A machine-shaped event of a real site: the dynamic read/write sets
   are exactly the row's static offsets in one activation frame (plus
   the memory cell for loads/stores), so the encoder's element-wise
   verification succeeds and the sets are frame-compact. *)
let compact_event_gen tbl =
  QCheck2.Gen.(
    let* site = int_bound (Site.size tbl - 1) in
    let row = Site.row tbl site in
    let* frame = frame_gen in
    let* addr, input_index = lanes_gen row in
    let* next_pc = next_pc_gen row in
    let* step, tid, value = dyn_gen in
    let base = frame * Site.frame_stride in
    let regs offs = Array.to_list (Array.map (fun o -> base + o) offs) in
    return
      {
        Event.step;
        tid;
        func = row.Site.s_func;
        pc = row.Site.s_pc;
        instr = row.Site.s_instr;
        reads =
          (regs row.Site.s_read_offs
          @ if row.Site.s_mem_read then [ addr lsl 1 ] else []);
        writes =
          (regs row.Site.s_write_offs
          @ if row.Site.s_mem_write then [ addr lsl 1 ] else []);
        addr;
        next_pc;
        input_index;
        value;
      })

let loc_gen =
  QCheck2.Gen.(
    oneof
      [
        map Loc.mem (int_bound 300);
        map2
          (fun frame r -> Loc.reg ~frame (Reg.make r))
          (int_bound 5)
          (int_bound (Reg.count - 1));
      ])

(* The same sites with arbitrary dynamic location sets: the shape
   diverges from the row, so the overflow area must carry the sets
   verbatim. *)
let explicit_event_gen tbl =
  QCheck2.Gen.(
    let* site = int_bound (Site.size tbl - 1) in
    let row = Site.row tbl site in
    let* reads = list_size (int_bound 4) loc_gen in
    let* writes = list_size (int_bound 3) loc_gen in
    let* addr, input_index = lanes_gen row in
    let* next_pc = next_pc_gen row in
    let* step, tid, value = dyn_gen in
    return
      {
        Event.step;
        tid;
        func = row.Site.s_func;
        pc = row.Site.s_pc;
        instr = row.Site.s_instr;
        reads;
        writes;
        addr;
        next_pc;
        input_index;
        value;
      })

(* Events foreign to the interned program (a hand-built function that
   is not physically any of its sites, mostly with out-of-range pcs):
   the encoder must reject them. *)
let alien_prog =
  Program.make [ Func.make ~name:"main" ~arity:0 [| Instr.Halt |] ]

let alien_func = Program.find alien_prog "main"

let foreign_event_gen =
  QCheck2.Gen.(
    let* pc = int_bound 22 in
    let* reads = list_size (int_bound 3) loc_gen in
    let* writes = list_size (int_bound 2) loc_gen in
    let* step, tid, value = dyn_gen in
    let* next_pc = int_bound 50 in
    let* input_index = int_range (-1) 40 in
    return
      {
        Event.step;
        tid;
        func = alien_func;
        pc;
        instr = Instr.Sys (Instr.Write (Operand.Reg Reg.r0));
        reads;
        writes;
        addr = -1;
        next_pc;
        input_index;
        value;
      })

(* A compact event of a real row with exactly one change the compact
   check must see: a register from another frame, every register
   shifted off the frame stride, one location dropped or duplicated,
   a memory cell that is not [addr lsl 1], a Load/Store whose address
   is [-1], or reads and writes from different frames.  Each must
   still decode exactly. *)
let near_miss_gen tbl =
  QCheck2.Gen.(
    let* e = compact_event_gen tbl in
    let row = Site.row tbl (Site.base_of_func tbl e.Event.func + e.Event.pc) in
    let nrr = Array.length row.Site.s_read_offs
    and nwr = Array.length row.Site.s_write_offs in
    let nr = List.length e.Event.reads and nw = List.length e.Event.writes in
    let stride = Site.frame_stride in
    (* [f] applied to element [j], or to the first [n] elements *)
    let at j f l = List.mapi (fun i x -> if i = j then f x else x) l in
    let first n f l = List.mapi (fun i x -> if i < n then f x else x) l in
    (* [f] applied to location [j] of reads-then-writes *)
    let on_loc j f =
      if j < nr then { e with Event.reads = f j e.Event.reads }
      else { e with Event.writes = f (j - nr) e.Event.writes }
    in
    let changes =
      List.concat
        [
          (if nrr + nwr > 0 then [ `Other_frame; `Off_stride ] else []);
          (if nr + nw > 0 then [ `Drop; `Dup ] else []);
          (if row.Site.s_mem_read || row.Site.s_mem_write then
             [ `Cell; `No_addr ]
           else []);
          (if nrr > 0 && nwr > 0 then [ `Split_frames ] else []);
        ]
    in
    if changes = [] then return e
    else
      let* change = oneofl changes in
      let* k = int_range 1 3 in
      let away l = l + (k * stride) in
      match change with
      | `Other_frame ->
          let* j = int_bound (nrr + nwr - 1) in
          let j = if j < nrr then j else nr + j - nrr in
          return (on_loc j (fun j -> at j away))
      | `Off_stride ->
          let* d = map (fun x -> 2 * x) (int_range 1 ((stride / 2) - 1)) in
          let shift l = l + d in
          return
            {
              e with
              Event.reads = first nrr shift e.Event.reads;
              writes = first nwr shift e.Event.writes;
            }
      | `Drop ->
          let* j = int_bound (nr + nw - 1) in
          return (on_loc j (fun j -> List.filteri (fun i _ -> i <> j)))
      | `Dup ->
          let* j = int_bound (nr + nw - 1) in
          return
            (on_loc j (fun j l ->
                 List.concat
                   (List.mapi (fun i x -> if i = j then [ x; x ] else [ x ]) l)))
      | `Cell ->
          let wrong _ = (e.Event.addr + k) lsl 1 in
          return
            (if row.Site.s_mem_read then
               { e with Event.reads = at nrr wrong e.Event.reads }
             else { e with Event.writes = at nwr wrong e.Event.writes })
      | `No_addr -> return { e with Event.addr = -1 }
      | `Split_frames ->
          return { e with Event.writes = first nwr away e.Event.writes })

let event_gen tbl =
  QCheck2.Gen.(
    frequency
      [
        (4, compact_event_gen tbl); (2, explicit_event_gen tbl);
        (2, near_miss_gen tbl);
      ])

(* A stream: consecutive steps with gaps (short, long and backwards)
   and runs of tids with switches (including large tids). *)
let stream_gen tbl =
  QCheck2.Gen.(
    let* events = list_size (int_range 1 300) (event_gen tbl) in
    let n = List.length events in
    let* step0 = int_bound 100_000 in
    let* gaps =
      list_repeat n
        (frequency
           [
             (20, return 0); (3, int_range 1 1_000); (1, int_range 1_023 5_000);
             (1, int_range (-5) (-1));
           ])
    in
    let* tids =
      list_repeat n
        (frequency
           [ (12, return (-1)); (3, int_bound 3); (1, int_range 60 70) ])
    in
    let _, _, rev =
      List.fold_left2
        (fun (step, tid, acc) (e, gap) t ->
          let step = step + 1 + gap and tid = if t < 0 then tid else t in
          (step, tid, { e with Event.step; tid } :: acc))
        (step0 - 1, 0, [])
        (List.combine events gaps)
        tids
    in
    return (tbl, List.rev rev))

(* The generators' site pool holds every next-pc shape the chain
   distinguishes. *)
let test_site_pool () =
  let rows = List.concat_map (fun t -> Array.to_list (Site.rows t)) tables in
  List.iter
    (fun (name, p) ->
      check Alcotest.bool (name ^ " sites generated") true
        (List.exists (fun (r : Site.row) -> p r.Site.s_instr) rows))
    [
      ("Br", function Instr.Br _ -> true | _ -> false);
      ("Jmp", function Instr.Jmp _ -> true | _ -> false);
      ("Call", function Instr.Call _ -> true | _ -> false);
      ("Ret", function Instr.Ret _ -> true | _ -> false);
      ("Halt", function Instr.Halt -> true | _ -> false);
      ("Load", function Instr.Load _ -> true | _ -> false);
      ("Store", function Instr.Store _ -> true | _ -> false);
      ("Read", function Instr.Sys (Instr.Read _) -> true | _ -> false);
    ]

let tabled_stream_gen = QCheck2.Gen.(oneofl tables >>= stream_gen)

(* One shared scratch view, refilled per decode — exactly the
   consumer-side reuse discipline. *)
let scratch () =
  let r0 = Site.row table 0 in
  Event.view_create ~func:r0.Site.s_func ~instr:r0.Site.s_instr

(* Encode [events] into batches of [cap] events, decode every event
   back into one view, and compare. *)
let roundtrip ?(sink_values = false) tbl ~cap events =
  let enc = Codec.encoder tbl in
  if sink_values then Codec.forward_sink_values enc;
  let v = scratch () in
  let rec go events =
    events = []
    ||
    let now = List.filteri (fun i _ -> i < cap) events
    and rest = List.filteri (fun i _ -> i >= cap) events in
    let b = Codec.batch_create ~events_per_batch:cap in
    List.iter (Codec.encode enc b) now;
    List.for_all Fun.id
      (List.mapi
         (fun i e ->
           Codec.decode_into tbl b i v;
           exec_eq ~sink_values e (Event.view_to_exec v))
         now)
    && go rest
  in
  go events

let pp_stream = Fmt.(str "%a" (list ~sep:(any "; ") pp_exec))

let roundtrip_prop =
  QCheck2.Test.make ~count:200 ~name:"codec: encode ∘ decode ≡ identity"
    ~print:(fun (_, _, (_, es)) -> pp_stream es)
    QCheck2.Gen.(triple bool (int_range 1 300) tabled_stream_gen)
    (fun (sink_values, cap, (tbl, events)) ->
      roundtrip ~sink_values tbl ~cap events)

(* A foreign event raises, wherever it falls in a batch, and leaves
   the batch's events as they were. *)
let foreign_prop =
  QCheck2.Test.make ~count:100 ~name:"codec: a foreign event raises"
    ~print:(fun ((_, es), e) -> pp_stream (es @ [ e ]))
    QCheck2.Gen.(pair tabled_stream_gen foreign_event_gen)
    (fun ((tbl, events), e) ->
      let enc = Codec.encoder tbl in
      let b = Codec.batch_create ~events_per_batch:(List.length events + 1) in
      List.iter (Codec.encode enc b) events;
      (match Codec.encode enc b e with
      | () -> false
      | exception Invalid_argument _ -> true)
      && Codec.batch_length b = List.length events)

(* Same property through the channel: feed / flush / close framing
   with partial final batches, then a synchronous drain. *)
let roundtrip_channel (sink_values, (tbl, events)) =
  let ch =
    Channel.create ~wire:`Coded ~queue_capacity:64 ~batch_size:8
      ~table:(Lazy.from_val tbl) ()
  in
  if sink_values then Channel.forward_sink_values ch;
  List.iter (Channel.add ch) events;
  Channel.close ch;
  let out = ref [] in
  Channel.drain ch ~f:(fun v -> out := Event.view_to_exec v :: !out);
  let out = List.rev !out in
  List.length out = List.length events
  && List.for_all2 (exec_eq ~sink_values) events out

let roundtrip_channel_prop =
  QCheck2.Test.make ~count:50
    ~name:"codec: channel feed/drain preserves the stream"
    ~print:(fun (_, (_, es)) -> pp_stream es)
    QCheck2.Gen.(pair bool tabled_stream_gen)
    roundtrip_channel

(* Real machine streams, recorded once: a call-dense kernel, a loop
   kernel with reads, and the two-worker server (tid switches). *)
let record program input =
  let acc = ref [] in
  let m = Machine.create program ~input in
  Machine.attach m (Tool.make ~on_exec:(fun e -> acc := e :: !acc) "collect");
  ignore (Machine.run m);
  Array.of_list (List.rev !acc)

let machine_streams =
  lazy
    (List.map
       (fun (program, input) -> (Site.of_program program, record program input))
       [
         (prog, Spec_like.crc.Workload.input ~size:60 ~seed:3);
         ( Spec_like.treesum.Workload.program,
           Spec_like.treesum.Workload.input ~size:40 ~seed:3 );
         (let b = Server_sim.generate ~requests:12 ~seed:3 () in
          (Server_sim.program (), b.Server_sim.input));
       ])

(* Dropping events, as the liveness filter and the request/reply
   router do, leaves step gaps and cuts runs: whatever is left must
   still decode exactly. *)
let filtered_stream_prop =
  QCheck2.Test.make ~count:60
    ~name:"codec: a machine stream with dropped events decodes exactly"
    QCheck2.Gen.(
      quad (int_bound 2) (int_bound 1_000_000) (int_bound 100)
        (int_range 1 300))
    (fun (k, seed, drop_pct, cap) ->
      let tbl, stream = List.nth (Lazy.force machine_streams) k in
      let rng = Random.State.make [| seed |] in
      let kept =
        List.filter
          (fun _ -> Random.State.int rng 100 >= drop_pct)
          (Array.to_list stream)
      in
      roundtrip tbl ~cap kept)

(* -- the expansion property ------------------------------------------- *)

(* Run [program] and forward its live views as the runtime does: each
   view [keep] admits is encoded into [cap]-event batches.  The live
   record of every forwarded event is kept beside it.  Then the
   batches are expanded, in order, and every expanded view must equal
   the live one: every field, the value where the wire forwards it. *)
let expands ?(keep = fun _ -> true) ~sink_values ~cap program ~input =
  let tbl = Site.of_program program in
  let enc = Codec.encoder tbl in
  if sink_values then Codec.forward_sink_values enc;
  let fresh () = Codec.batch_create ~events_per_batch:cap in
  let open_ = ref (fresh ()) and shipped = ref [] and live = ref [] in
  let ship () =
    if Codec.batch_length !open_ > 0 then begin
      shipped := !open_ :: !shipped;
      open_ := fresh ()
    end
  in
  let m = Machine.create program ~input in
  Machine.attach m
    (Tool.make
       ~on_view:(fun v ->
         if keep v then begin
           live := Event.view_record v :: !live;
           Codec.encode_view enc !open_ v;
           if Codec.batch_length !open_ = cap then ship ()
         end)
       "expand");
  ignore (Machine.run m);
  ship ();
  let v = Event.view_blank () and out = ref [] in
  List.iter
    (fun b ->
      Codec.decode_batch tbl b v (fun v -> out := Event.view_to_exec v :: !out))
    (List.rev !shipped);
  let live = List.rev !live and out = List.rev !out in
  List.length live = List.length out
  && List.for_all2 (exec_eq ~sink_values) live out

(* Every event dropped with probability [pct]%, as the liveness
   filter's gaps leave them. *)
let dropping ~seed pct =
  let rng = Random.State.make [| seed |] in
  fun (_ : Event.view) -> pct = 0 || Random.State.int rng 100 >= pct

let expansion_programs () =
  List.map
    (fun (w : Workload.t) ->
      (w.Workload.name, w.Workload.program, w.Workload.input ~size:8 ~seed:3))
    Spec_like.all
  @ List.map
      (fun (faulty, workers) ->
        let b = Server_sim.generate ~requests:10 ~seed:3 ~faulty () in
        ( Fmt.str "server %d workers%s" workers
            (if faulty then " (faulty)" else ""),
          Server_sim.program ~workers (),
          b.Server_sim.input ))
      [ (false, 2); (true, 2); (true, 3) ]
  @ List.map
      (fun (c : Buggy.case) ->
        (c.Buggy.name ^ " (failing)", c.Buggy.program, c.Buggy.failing_input))
      Buggy.all

(* The expansion property on every kernel, the server (threads,
   preemptions, its faulty run) and the fault corpus' failing runs:
   whole streams and streams with events dropped, with and without
   sink values. *)
let test_expansion () =
  List.iter
    (fun (name, program, input) ->
      List.iteri
        (fun seed (pct, sink_values, cap) ->
          check Alcotest.bool
            (Fmt.str "%s: %d%% dropped, sink values %b, %d-event batches"
               name pct sink_values cap)
            true
            (expands ~keep:(dropping ~seed pct) ~sink_values ~cap program
               ~input))
        [ (0, false, 256); (0, true, 7); (30, false, 64); (10, true, 16);
          (50, false, 5) ])
    (expansion_programs ())

(* The expansion property on generated programs: {!Test_sharded}'s
   spawning programs (direct, indirect and recursive calls, a worker
   thread, stores inside held mutexes), whole and with events
   dropped. *)
let expansion_prop =
  QCheck2.Test.make ~count:40
    ~name:"codec: generated programs expand to their live views"
    ~print:(Fmt.str "%a" Test_sharded.pp_program)
    Test_sharded.spawn_prog_gen
    (fun case ->
      let program = Test_sharded.build_spawning case
      and input = Test_props.inputs_for () in
      List.for_all
        (fun (seed, pct, sink_values, cap) ->
          expands ~keep:(dropping ~seed pct) ~sink_values ~cap program ~input)
        [ (1, 0, false, 256); (1, 20, true, 5); (2, 0, true, 8);
          (4, 30, true, 3) ])

(* The outcome wire's budget: real machine streams cost at most half a
   word per event on the loop kernels and one on the call-dense ones
   (an address per memory access, a bit per branch, a cut per call
   boundary, a batch header and leading cut per batch). *)
let test_wire_budget () =
  List.iter
    (fun (name, size, budget) ->
      let w = Spec_like.by_name name in
      let program = w.Workload.program in
      let stream = record program (w.Workload.input ~size ~seed:7) in
      let tbl = Site.of_program program in
      let enc = Codec.encoder tbl in
      let cap = Channel.default_batch_size in
      let words = ref 0 in
      let b = Codec.batch_create ~events_per_batch:cap in
      let ship () =
        words := !words + Codec.batch_words b;
        Codec.batch_clear b
      in
      Array.iter
        (fun e ->
          Codec.encode enc b e;
          if Codec.batch_length b = cap then ship ())
        stream;
      ship ();
      let per_ev = float_of_int !words /. float_of_int (Array.length stream) in
      check Alcotest.bool
        (Fmt.str "%s: %.2f words/event <= %.1f" name per_ev budget)
        true (per_ev <= budget))
    [ ("matmul", 8, 0.5); ("crc", 600, 0.5); ("sieve", 400, 0.5);
      ("treesum", 200, 1.0); ("feistel", 40, 1.0) ]

(* The wire itself, pinned: the kernels' machine streams, encoded from
   the machine's live view into fresh 256-event batches, must give
   exactly these words, cuts and lanes.  An encoder whose chain or
   compact check is too strict still round-trips, but it cuts where
   it could imply; only this test sees that. *)
let wire_of program input =
  let tbl = Site.of_program program in
  let enc = Codec.encoder tbl in
  let buf = Buffer.create 4096 in
  let words = ref 0 and cuts = ref 0 in
  let add x = Buffer.add_int64_le buf (Int64.of_int x) in
  let lane a n =
    add n;
    for i = 0 to n - 1 do
      add a.(i)
    done
  in
  let cap = 256 in
  let b = ref (Codec.batch_create ~events_per_batch:cap) in
  let ship () =
    let b = !b in
    words := !words + Codec.batch_words b;
    cuts := !cuts + b.Codec.b_cuts;
    add b.Codec.b_n;
    lane b.Codec.b_desc b.Codec.b_lane_n;
    lane b.Codec.b_ovf b.Codec.b_ovf_n
  in
  let m = Machine.create program ~input in
  Machine.attach m
    (Tool.make
       ~on_view:(fun v ->
         Codec.encode_view enc !b v;
         if Codec.batch_length !b = cap then begin
           ship ();
           b := Codec.batch_create ~events_per_batch:cap
         end)
       "pin-wire");
  ignore (Machine.run m);
  if Codec.batch_length !b > 0 then ship ();
  (!words, !cuts, Digest.to_hex (Digest.string (Buffer.contents buf)))

let pinned_wire =
  [
    ("matmul", 8, (1593, 37, "85157315b6940562a26e8618eed443b1"));
    ("crc", 600, (720, 24, "1454e333930668b7236f8d49fbd8c6a2"));
    ("sieve", 400, (1726, 44, "9055816cc983a6d5acadc658a01db842"));
    ("treesum", 200, (1865, 275, "8524cfa56d8010b589de87ad0f647c96"));
    ("feistel", 40, (1018, 183, "d8db0cae4c638d44e485065f79c6b6f8"));
  ]

let pinned_server = (310, 23, "05fac60645f25893daf2ee9f7e09cb6c")

let test_wire_pinned () =
  let pin name (words, cuts, digest) (words', cuts', digest') =
    check Alcotest.int (name ^ ": batch words") words words';
    check Alcotest.int (name ^ ": cuts") cuts cuts';
    check Alcotest.string (name ^ ": lane digest") digest digest'
  in
  List.iter
    (fun (name, size, expected) ->
      let w = Spec_like.by_name name in
      pin name expected
        (wire_of w.Workload.program (w.Workload.input ~size ~seed:7)))
    pinned_wire;
  let b = Server_sim.generate ~requests:12 ~seed:3 () in
  pin "server" pinned_server
    (wire_of (Server_sim.program ~workers:2 ()) b.Server_sim.input)

(* A recycled batch must not leak state into its next fill. *)
let test_batch_recycling () =
  let enc = Codec.encoder table in
  let b = Codec.batch_create ~events_per_batch:4 in
  let mk = QCheck2.Gen.generate1 ~rand:(Random.State.make [| 7 |]) in
  let first = mk QCheck2.Gen.(list_repeat 4 (event_gen table)) in
  List.iter (Codec.encode enc b) first;
  Codec.batch_clear b;
  check Alcotest.int "cleared" 0 (Codec.batch_length b);
  let second = mk QCheck2.Gen.(list_repeat 4 (event_gen table)) in
  List.iter (Codec.encode enc b) second;
  let v = scratch () in
  List.iteri
    (fun i e ->
      Codec.decode_into table b i v;
      check Alcotest.bool
        (Fmt.str "event %d survives recycling" i)
        true
        (exec_eq e (Event.view_to_exec v)))
    second

(* -- site resolution edges --------------------------------------------- *)

(* Encode one event alone; whether its sets are frame-compact (not
   verbatim in its cut), and whether it decodes back exactly. *)
let encode_one tbl (e : Event.exec) =
  let b = Codec.batch_create ~events_per_batch:1 in
  Codec.encode (Codec.encoder tbl) b e;
  let r0 = Site.row tbl 0 in
  let v = Event.view_create ~func:r0.Site.s_func ~instr:r0.Site.s_instr in
  Codec.decode_into tbl b 0 v;
  (b.Codec.b_verbatim = 0, exec_eq e (Event.view_to_exec v))

(* A machine-shaped event of [row] in activation frame [frame]. *)
let shaped ?(func = fun (r : Site.row) -> r.Site.s_func) (row : Site.row)
    ~frame =
  let base = frame lsl Site.frame_shift in
  let regs offs = Array.to_list (Array.map (fun o -> base + o) offs) in
  let addr = if row.Site.s_mem_read || row.Site.s_mem_write then 17 else -1 in
  {
    Event.step = 3;
    tid = 0;
    func = func row;
    pc = row.Site.s_pc;
    instr = row.Site.s_instr;
    reads =
      (regs row.Site.s_read_offs
      @ if row.Site.s_mem_read then [ addr lsl 1 ] else []);
    writes =
      (regs row.Site.s_write_offs
      @ if row.Site.s_mem_write then [ addr lsl 1 ] else []);
    addr;
    next_pc = row.Site.s_pc + 1;
    input_index = -1;
    value = 5;
  }

(* Every row's interned shape, the one definition encoder and decoder
   share: the compact set lengths count {!Instr.uses}, {!Instr.def} and
   the memory cell, the address lane carries exactly a Load's or
   Store's address or a Read's input index, and a compact event of the
   row decodes to sets of exactly those lengths. *)
let test_interned_shape () =
  let programs =
    List.map (fun (w : Workload.t) -> (w.Workload.name, w.Workload.program))
      Spec_like.all
    @ [ ("server", Server_sim.program ~workers:2 ()) ]
  in
  List.iter
    (fun (name, program) ->
      let tbl = Site.of_program program in
      Array.iteri
        (fun site (row : Site.row) ->
          let instr = row.Site.s_instr in
          let cell b = if b then 1 else 0 in
          let what = Fmt.str "%s site %d" name site in
          check Alcotest.int (what ^ ": reads")
            (List.length (Instr.uses instr) + cell row.Site.s_mem_read)
            row.Site.s_nreads;
          check Alcotest.int (what ^ ": writes")
            ((match Instr.def instr with Some _ -> 1 | None -> 0)
            + cell row.Site.s_mem_write)
            row.Site.s_nwrites;
          check Alcotest.bool (what ^ ": lane") true
            (row.Site.s_lane
            =
            if row.Site.s_mem_read || row.Site.s_mem_write then Site.Addr_lane
            else if row.Site.s_input then Site.Input_lane
            else Site.No_lane);
          let b = Codec.batch_create ~events_per_batch:1 in
          Codec.encode (Codec.encoder tbl) b (shaped row ~frame:3);
          check Alcotest.bool (what ^ ": compact") true
            (b.Codec.b_verbatim = 0);
          let v = Event.view_blank () in
          Codec.decode_into tbl b 0 v;
          check Alcotest.int (what ^ ": decoded reads") row.Site.s_nreads
            v.Event.v_nreads;
          check Alcotest.int (what ^ ": decoded writes") row.Site.s_nwrites
            v.Event.v_nwrites)
        (Site.rows tbl))
    programs

let foreign_raises tbl e =
  match encode_one tbl e with
  | _ -> false
  | exception Invalid_argument _ -> true

(* Sites resolve by the function's physical identity: a copy equal in
   every field (same name, same instruction array) is foreign, and
   the encoder rejects it. *)
let test_copied_func_foreign () =
  let copies = Hashtbl.create 8 in
  let copy (r : Site.row) =
    let f = r.Site.s_func in
    match Hashtbl.find_opt copies f.Func.name with
    | Some c -> c
    | None ->
        let c = { f with Func.name = f.Func.name } in
        Hashtbl.replace copies f.Func.name c;
        c
  in
  for site = 0 to Site.size table - 1 do
    let row = Site.row table site in
    let compact, _ = encode_one table (shaped row ~frame:2) in
    check Alcotest.bool (Fmt.str "site %d: own function compact" site) true
      compact;
    let e = shaped ~func:copy row ~frame:2 in
    check Alcotest.bool "the copy is structurally equal" true
      (e.Event.func = row.Site.s_func && e.Event.func != row.Site.s_func);
    check Alcotest.bool (Fmt.str "site %d: copy raises" site) true
      (foreign_raises table e)
  done

(* A pc one past a function's body is the next function's first site
   id; the event must not be encoded as that site, even when it
   carries the very instruction interned there: it is foreign. *)
let test_pc_past_body_foreign () =
  let p = Spec_like.treesum.Workload.program in
  let tbl = Site.of_program p in
  let funcs = Program.functions p in
  check Alcotest.bool "several functions" true (List.length funcs > 1);
  List.iteri
    (fun i (f : Func.t) ->
      if i < List.length funcs - 1 then begin
        let next = List.nth funcs (i + 1) in
        let row = Site.row tbl (Site.base_of_func tbl next) in
        let e =
          { (shaped row ~frame:1) with Event.func = f; pc = Func.length f }
        in
        check Alcotest.bool (Fmt.str "%s: pc past body raises" f.Func.name)
          true (foreign_raises tbl e)
      end)
    funcs;
  check Alcotest.int "unknown function has no base" (-1)
    (Site.base_of_func tbl alien_func)

(* Frame serials far beyond any test stream's still split exactly by
   the compact check's mask and shift. *)
let test_large_frames_compact () =
  List.iter
    (fun frame ->
      for site = 0 to Site.size table - 1 do
        let row = Site.row table site in
        let compact, exact = encode_one table (shaped row ~frame) in
        check Alcotest.bool (Fmt.str "frame %d site %d compact" frame site) true
          compact;
        check Alcotest.bool (Fmt.str "frame %d site %d exact" frame site) true
          exact
      done)
    [ 1 lsl 20; (1 lsl 20) + 1; (1 lsl 20) + 31; (1 lsl 33) + 5; 1 lsl 40 ]

(* -- whole-run equivalence: wires, filter, runtimes ------------------- *)

let same_result name (a : Parallel.result) (b : Parallel.result) =
  check Alcotest.bool
    (Fmt.str "%s: outcome agrees" name)
    true (a.Parallel.outcome = b.Parallel.outcome);
  check Alcotest.int (Fmt.str "%s: events" name) a.Parallel.events
    b.Parallel.events;
  check Alcotest.int (Fmt.str "%s: sources" name) a.Parallel.sources
    b.Parallel.sources;
  check Alcotest.int (Fmt.str "%s: sink hits" name) a.Parallel.sink_hits
    b.Parallel.sink_hits;
  check Alcotest.int
    (Fmt.str "%s: sink trace hash" name)
    a.Parallel.sink_trace_hash b.Parallel.sink_trace_hash;
  check Alcotest.int
    (Fmt.str "%s: tainted locations" name)
    a.Parallel.tainted_locations b.Parallel.tainted_locations;
  check Alcotest.int (Fmt.str "%s: shadow words" name)
    a.Parallel.shadow_words b.Parallel.shadow_words;
  check Alcotest.int
    (Fmt.str "%s: taint fingerprint" name)
    a.Parallel.taint_fingerprint b.Parallel.taint_fingerprint

(* Every kernel: boxed wire ≡ coded wire ≡ inline, two-domain. *)
let test_wires_two_domain () =
  List.iter
    (fun (w : Workload.t) ->
      let input = w.Workload.input ~size:14 ~seed:5 in
      let inline = Parallel.run_inline w.Workload.program ~input in
      List.iter
        (fun wire ->
          let r =
            ok (Parallel.run_result ~wire ~queue_capacity:8 ~batch_size:16
                w.Workload.program ~input)
          in
          same_result
            (Fmt.str "%s/%a" w.Workload.name Channel.pp_wire wire)
            inline.Parallel.i_result r.Parallel.result;
          check Alcotest.bool
            (Fmt.str "%s: wire reported" w.Workload.name)
            true
            (r.Parallel.wire = wire))
        [ `Boxed; `Coded ])
    Spec_like.all

(* Every kernel: both wires through the benchmark ledger's entry point,
   [run_sharded_result ~shards:1], at the default geometry the ledger
   runs (16 slots of 256 events). *)
let test_wires_sharded () =
  List.iter
    (fun (w : Workload.t) ->
      let input = w.Workload.input ~size:40 ~seed:9 in
      let inline = Parallel.run_inline w.Workload.program ~input in
      List.iter
        (fun wire ->
          let rep =
            ok (Parallel.run_sharded_result ~wire ~shards:1
                w.Workload.program ~input)
          in
          same_result
            (Fmt.str "%s/%a" w.Workload.name Channel.pp_wire wire)
            inline.Parallel.i_result rep.Parallel.s_result;
          check Alcotest.bool
            (Fmt.str "%s: wire reported" w.Workload.name)
            true
            (rep.Parallel.s_wire = wire))
        [ `Boxed; `Coded ])
    Spec_like.all

(* Every kernel: the producer-side liveness filter is invisible in the
   report — bit-identical to the unfiltered run. *)
let test_filter_bit_identical () =
  List.iter
    (fun (w : Workload.t) ->
      let input = w.Workload.input ~size:14 ~seed:5 in
      let inline = Parallel.run_inline w.Workload.program ~input in
      let filtered =
        ok (Parallel.run_result ~forward_filter:true w.Workload.program ~input)
      in
      same_result
        (Fmt.str "%s/filtered" w.Workload.name)
        inline.Parallel.i_result filtered.Parallel.result)
    Spec_like.all

(* Call-dense inputs whose frames reach serial 31 and beyond: a
   register of frame f hashes to filter key 2f + 1, so frames 31, 63,
   ... land on key 63 mod 64 — the bit a 64-keys-per-word bitmap
   cannot hold. *)
let qsort_inputs = [ (380, 1002); (380, 2000); (1350, 1000) ]

let test_filter_bit_identical_qsort () =
  let w = Spec_like.qsort in
  List.iter
    (fun (size, seed) ->
      let input = w.Workload.input ~size ~seed in
      let inline = Parallel.run_inline w.Workload.program ~input in
      let name = Fmt.str "qsort %d/%d" size seed in
      let filtered =
        ok (Parallel.run_result ~forward_filter:true w.Workload.program ~input)
      in
      same_result (name ^ " filtered") inline.Parallel.i_result
        filtered.Parallel.result)
    qsort_inputs

(* The filter against a helper that never lags, in one domain: per
   batch, admit the events, then process the admitted ones, publish
   their taint and advance the epoch.  Deterministic, so a filter
   that loses live taint fails here on every run, not only on the
   interleavings that expose it. *)
let test_filter_emulated_qsort () =
  let module Eng = Parallel.Bool_engine in
  let w = Spec_like.qsort in
  List.iter
    (fun (size, seed) ->
      let program = w.Workload.program in
      let input = w.Workload.input ~size ~seed in
      let inline = Parallel.run_inline program ~input in
      let lf = Livefilter.create ~slots:1 () in
      let eng = Eng.create program in
      let sh = Eng.shadow eng in
      let tainted l = not (Taint.Bool.is_bottom (Eng.Sh.get sh l)) in
      let repopulate () =
        Eng.Sh.fold
          (fun l d () ->
            if not (Taint.Bool.is_bottom d) then Livefilter.publish_loc lf l)
          sh ()
      in
      let pending = ref [] in
      let flush () =
        let admitted = List.rev !pending in
        pending := [];
        List.iter
          (fun e ->
            let v = Event.view_of_exec e in
            Eng.process_view eng v;
            Livefilter.publish lf ~tainted v)
          admitted;
        match List.rev admitted with
        | last :: _ ->
            Livefilter.advance ~repopulate lf ~slot:0 ~step:last.Event.step
        | [] -> ()
      in
      let n = ref 0 in
      let m = Machine.create program ~input in
      Machine.attach m
        (Tool.make
           ~on_exec:(fun e ->
             if Livefilter.admit lf e then pending := e :: !pending;
             incr n;
             if !n mod 64 = 0 then flush ())
           "emulated-helper");
      ignore (Machine.run m);
      flush ();
      let st = Eng.stats eng in
      let name = Fmt.str "qsort %d/%d emulated" size seed in
      check Alcotest.bool (name ^ ": filter dropped events") true
        (Livefilter.filtered lf > 0);
      check Alcotest.int (name ^ ": sink hits")
        inline.Parallel.i_result.Parallel.sink_hits st.Engine.sink_hits;
      check Alcotest.int
        (name ^ ": tainted locations")
        inline.Parallel.i_result.Parallel.tainted_locations
        (fst (Eng.shadow_footprint eng)))
    qsort_inputs

(* A published register of frame 31, 63, 95 (key 63 mod 64) must read
   live: a filterable event reading only it is then forwarded. *)
let test_filter_high_keys_live () =
  List.iter
    (fun frame ->
      let lf = Livefilter.create ~slots:1 () in
      let l = Loc.reg ~frame Reg.r0 in
      let ev step =
        {
          Event.step;
          tid = 0;
          func = alien_func;
          pc = 0;
          instr = Instr.Mov (Reg.r1, Operand.Reg Reg.r0);
          reads = [ l ];
          writes = [];
          addr = -1;
          next_pc = 1;
          input_index = -1;
          value = 0;
        }
      in
      check Alcotest.bool
        (Fmt.str "frame %d: clean read filtered" frame)
        false
        (Livefilter.admit lf (ev 0));
      Livefilter.publish_loc lf l;
      check Alcotest.bool
        (Fmt.str "frame %d: published read forwarded" frame)
        true
        (Livefilter.admit lf (ev 1)))
    [ 31; 63; 95; 1023 ]

(* On a taint-sparse stream the filter must actually drop traffic:
   the forwarded volume strictly shrinks, while the report stays
   whole (the dropped events are counted back in). *)
let test_filter_reduces_forwarding () =
  let w = Spec_like.search in
  let input = w.Workload.input ~size:300 ~seed:1 in
  let r =
    ok (Parallel.run_result ~forward_filter:true w.Workload.program ~input)
  in
  check Alcotest.bool "two-domain: events filtered" true
    (r.Parallel.filtered_events > 0);
  let unfiltered = ok (Parallel.run_result w.Workload.program ~input) in
  check Alcotest.bool "two-domain: forwarded volume shrank" true
    (r.Parallel.result.Parallel.events - r.Parallel.filtered_events
    < unfiltered.Parallel.result.Parallel.events);
  check Alcotest.int "two-domain: report stays whole"
    unfiltered.Parallel.result.Parallel.events
    r.Parallel.result.Parallel.events

(* Under [propagate_control] every event is entangled with per-thread
   control state, so the filter must silently stand down. *)
let test_filter_stands_down_under_control () =
  let w = Spec_like.search in
  let input = w.Workload.input ~size:10 ~seed:2 in
  let policy = Policy.full in
  let inline = Parallel.run_inline ~policy w.Workload.program ~input in
  let r =
    ok (Parallel.run_result ~policy ~forward_filter:true w.Workload.program
        ~input)
  in
  same_result "search/full filtered" inline.Parallel.i_result
    r.Parallel.result;
  check Alcotest.int "filter stood down" 0 r.Parallel.filtered_events

let qcheck_tests =
  List.map Qcheck_run.to_alcotest
    [ roundtrip_prop; foreign_prop; roundtrip_channel_prop;
      filtered_stream_prop; expansion_prop ]

let suite =
  [
    Alcotest.test_case "batch recycling is clean" `Quick
      test_batch_recycling;
    Alcotest.test_case "the interned shape agrees with the instruction"
      `Quick test_interned_shape;
    Alcotest.test_case "a copied function is foreign and raises" `Quick
      test_copied_func_foreign;
    Alcotest.test_case "a pc past the body is not the next site" `Quick
      test_pc_past_body_foreign;
    Alcotest.test_case "frames >= 2^20 stay compact and exact" `Quick
      test_large_frames_compact;
    Alcotest.test_case
      "expanded views equal the live views (kernels, server, faults)"
      `Quick test_expansion;
    Alcotest.test_case "machine streams fit the wire budget" `Quick
      test_wire_budget;
    Alcotest.test_case "machine streams encode to the pinned wire" `Quick
      test_wire_pinned;
    Alcotest.test_case "the generators cover every next-pc shape" `Quick
      test_site_pool;
    Alcotest.test_case "boxed ≡ coded ≡ inline (two-domain, all kernels)"
      `Quick test_wires_two_domain;
    Alcotest.test_case
      "boxed ≡ coded ≡ inline (sharded, both wires, default geometry)"
      `Quick test_wires_sharded;
    Alcotest.test_case "forward filter is bit-identical (all kernels)"
      `Quick test_filter_bit_identical;
    Alcotest.test_case "forward filter is bit-identical (call-dense qsort)"
      `Quick test_filter_bit_identical_qsort;
    Alcotest.test_case "forward filter keeps live taint (emulated qsort)"
      `Quick test_filter_emulated_qsort;
    Alcotest.test_case "published high keys read live" `Quick
      test_filter_high_keys_live;
    Alcotest.test_case "forward filter strictly reduces forwarding" `Quick
      test_filter_reduces_forwarding;
    Alcotest.test_case "forward filter stands down under control taint"
      `Quick test_filter_stands_down_under_control;
  ]
  @ qcheck_tests
