(* Differential tests for the flat paged shadow (Shadow.Make /
   Shadow_pages) against the hashtable reference (Shadow.Make_ref /
   Shadow_ref): identical operation streams must produce bit-identical
   observable state — point lookups, fold contents, and the
   incremental tainted_locations / footprint_words accounting — for
   every taint domain, and a full engine built over either shadow must
   be observationally identical on real kernels. *)

open Dift_isa
open Dift_vm
open Dift_core
open Dift_workloads

let check = Alcotest.check

(* -- a domain-generic operation language --------------------------------

   Taint values are generated as little expression trees over the
   DOMAIN operations themselves, so one generator covers Bool's two
   points, Pc's site records and Input_set's oversized (multi-word)
   sets alike. *)

type vexp =
  | Vbot
  | Vsrc of int * int  (** input_index, step *)
  | Vjoin of vexp * vexp
  | Vwrite of int * int * vexp  (** step, pc, inner *)

type op =
  | Set of int * vexp  (** loc, value *)
  | Clear of int

let rec pp_vexp ppf = function
  | Vbot -> Fmt.string ppf "bot"
  | Vsrc (i, s) -> Fmt.pf ppf "src(%d,%d)" i s
  | Vjoin (a, b) -> Fmt.pf ppf "join(%a,%a)" pp_vexp a pp_vexp b
  | Vwrite (s, pc, v) -> Fmt.pf ppf "wr(%d,%d,%a)" s pc pp_vexp v

let pp_op ppf = function
  | Set (l, v) -> Fmt.pf ppf "set %d %a" l pp_vexp v
  | Clear l -> Fmt.pf ppf "clear %d" l

(* Locations: dense small memory (in-page churn), sparse large memory
   (directory growth in the paged shadow), and register locations in a
   few frames (the other plane).  Built through the Loc constructors,
   so the encoding stays an implementation detail. *)
let loc_gen =
  QCheck2.Gen.(
    oneof
      [
        map Loc.mem (int_bound 200);
        map (fun a -> Loc.mem (a * 4097)) (int_bound 1023);
        (* beyond the first 2^22 words: several directory doublings *)
        map (fun a -> Loc.mem ((1 lsl 22) + (a * 65537))) (int_bound 63);
        map2
          (fun frame r -> Loc.reg ~frame (Reg.make r))
          (int_bound 5)
          (int_bound (Reg.count - 1));
      ])

let vexp_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let src = map2 (fun i s -> Vsrc (i, s)) (int_bound 30) (int_bound 99) in
        if n <= 0 then oneof [ return Vbot; src ]
        else
          frequency
            [
              (1, return Vbot);
              (3, src);
              (* joins of joins: Input_set values spanning many words *)
              (3, map2 (fun a b -> Vjoin (a, b)) (self (n / 2)) (self (n / 2)));
              ( 2,
                map3
                  (fun s pc v -> Vwrite (s, pc, v))
                  (int_bound 99) (int_bound 30)
                  (self (n - 1)) );
            ]))

let op_gen =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun l v -> Set (l, v)) loc_gen vexp_gen);
        (2, map (fun l -> Clear l) loc_gen);
        (* explicit set-to-bottom, distinct from Clear in the API *)
        (1, map (fun l -> Set (l, Vbot)) loc_gen);
      ])

let ops_gen = QCheck2.Gen.(list_size (int_range 0 120) op_gen)

module Diff (D : Taint.DOMAIN) = struct
  module P = Shadow.Make (D)
  module R = Shadow.Make_ref (D)

  let rec value = function
    | Vbot -> D.bottom
    | Vsrc (i, s) -> D.source ~input_index:i ~step:s
    | Vjoin (a, b) -> D.join (value a) (value b)
    | Vwrite (s, pc, v) -> D.at_write ~step:s ~fname:"f" ~pc (value v)

  let sorted_fold fold sh =
    fold (fun l v acc -> (l, v) :: acc) sh []
    |> List.sort (fun (a, _) (b, _) -> Loc.compare a b)

  let assoc_equal a b =
    List.length a = List.length b
    && List.for_all2
         (fun (la, va) (lb, vb) -> Loc.equal la lb && D.equal va vb)
         a b

  (* Apply the stream to both shadows and check every observable. *)
  let agree ops =
    let p = P.create () and r = R.create () in
    let locs = ref [] in
    List.iter
      (fun op ->
        (match op with Set (l, _) | Clear l -> locs := l :: !locs);
        match op with
        | Set (l, ve) ->
            let v = value ve in
            P.set p l v;
            R.set r l v
        | Clear l ->
            P.clear p l;
            R.clear r l)
      ops;
    P.tainted_locations p = R.tainted_locations r
    && P.footprint_words p = R.footprint_words r
    && P.recomputed_footprint_words p = P.footprint_words p
    && R.recomputed_footprint_words r = R.footprint_words r
    && List.for_all (fun l -> D.equal (P.get p l) (R.get r l)) !locs
    && assoc_equal (sorted_fold P.fold p) (sorted_fold R.fold r)

  let property name =
    QCheck2.Test.make ~count:150
      ~name:(Fmt.str "paged shadow ≡ hashtable shadow (%s)" name)
      ~print:Fmt.(str "%a" (list ~sep:(any "; ") pp_op))
      ops_gen agree
end

module Diff_bool = Diff (Taint.Bool)
module Diff_pc = Diff (Taint.Pc)
module Diff_set = Diff (Taint.Input_set)

(* -- hand-picked edge cases --------------------------------------------- *)

module PS = Shadow.Make (Taint.Input_set)

let test_clear_returns_to_empty () =
  let sh = PS.create () in
  let locs =
    [ Loc.mem 0; Loc.mem 4095; Loc.mem 4096; Loc.mem (1 lsl 22);
      Loc.reg ~frame:3 (Reg.make 2) ]
  in
  List.iter
    (fun l ->
      PS.set sh l (Taint.Input_set.source ~input_index:1 ~step:2))
    locs;
  check Alcotest.int "tainted" (List.length locs) (PS.tainted_locations sh);
  List.iter (fun l -> PS.clear sh l) locs;
  check Alcotest.int "tainted after clear" 0 (PS.tainted_locations sh);
  check Alcotest.int "words after clear" 0 (PS.footprint_words sh);
  check Alcotest.int "recomputed after clear" 0
    (PS.recomputed_footprint_words sh);
  check Alcotest.int "fold is empty" 0
    (PS.fold (fun _ _ n -> n + 1) sh 0)

let test_bottom_store_is_noop () =
  let sh = PS.create () in
  (* storing bottom into untouched (even absurdly large) locations
     must not allocate pages or disturb the accounting *)
  PS.set sh (Loc.mem ((1 lsl 30) + 17)) Taint.Input_set.bottom;
  PS.clear sh (Loc.mem 12345);
  check Alcotest.int "still empty" 0 (PS.tainted_locations sh);
  check Alcotest.int "no words" 0 (PS.footprint_words sh);
  check
    Alcotest.(list (pair int int))
    "get still bottom" []
    (PS.fold (fun l _ acc -> (l, 0) :: acc) sh [])

let test_oversized_record_accounting () =
  let sh = PS.create () in
  let big =
    (* a set spanning many words — the oversized-record path of the
       words accounting *)
    List.fold_left
      (fun acc i ->
        Taint.Input_set.join acc
          (Taint.Input_set.source ~input_index:i ~step:i))
      Taint.Input_set.bottom
      (List.init 64 Fun.id)
  in
  let l = Loc.mem 7 in
  PS.set sh l big;
  check Alcotest.bool "multi-word record" true (PS.footprint_words sh > 1);
  check Alcotest.int "recomputed matches incremental"
    (PS.footprint_words sh)
    (PS.recomputed_footprint_words sh);
  (* shrink it back down to a single source: words must follow *)
  PS.set sh l (Taint.Input_set.source ~input_index:0 ~step:0);
  check Alcotest.int "words shrank"
    (PS.recomputed_footprint_words sh)
    (PS.footprint_words sh);
  check Alcotest.int "still one location" 1 (PS.tainted_locations sh)

let test_planes_do_not_alias () =
  let module B = Shadow.Make (Taint.Bool) in
  let sh = B.create () in
  (* Loc.mem 1 and the first register share their upper index bits;
     the planes must keep them apart. *)
  let r = Loc.reg ~frame:0 (Reg.make 0) in
  B.set sh r true;
  check Alcotest.bool "reg set" true (B.get sh r);
  check Alcotest.bool "mem 0 clean" false (B.get sh (Loc.mem 0));
  check Alcotest.bool "mem 1 clean" false (B.get sh (Loc.mem 1));
  check Alcotest.int "one location" 1 (B.tainted_locations sh)

(* -- engine-level differential ------------------------------------------

   The same kernel, input and policy driven through an engine over the
   paged shadow and one over the hashtable reference: every
   statistic, every sink event (kind, step, taint) and the final
   shadow contents must match. *)

module Engine_diff (D : Taint.DOMAIN) = struct
  module EP = Engine.Make (D)
  module ER = Engine.Make_over (Shadow.Make_ref) (D)

  type probe = {
    sinks : (Engine.sink * int * D.t) list;  (** reversed *)
    stats : Engine.stats;
    shadow : (Loc.t * D.t) list;
    footprint : int * int;
  }

  let run_paged ~policy (w : Workload.t) input =
    let m = Machine.create w.Workload.program ~input in
    let eng = EP.create ~policy w.Workload.program in
    let sinks = ref [] in
    EP.on_sink eng (fun s taint e ->
        sinks := (s, e.Event.step, taint) :: !sinks);
    EP.attach eng m;
    ignore (Machine.run m);
    {
      sinks = !sinks;
      stats = EP.stats eng;
      shadow =
        EP.Sh.fold (fun l v acc -> (l, v) :: acc) (EP.shadow eng) []
        |> List.sort (fun (a, _) (b, _) -> Loc.compare a b);
      footprint = EP.shadow_footprint eng;
    }

  let run_ref ~policy (w : Workload.t) input =
    let m = Machine.create w.Workload.program ~input in
    let eng = ER.create ~policy w.Workload.program in
    let sinks = ref [] in
    ER.on_sink eng (fun s taint e ->
        sinks := (s, e.Event.step, taint) :: !sinks);
    ER.attach eng m;
    ignore (Machine.run m);
    {
      sinks = !sinks;
      stats = ER.stats eng;
      shadow =
        ER.Sh.fold (fun l v acc -> (l, v) :: acc) (ER.shadow eng) []
        |> List.sort (fun (a, _) (b, _) -> Loc.compare a b);
      footprint = ER.shadow_footprint eng;
    }

  let check_same name (a : probe) (b : probe) =
    check Alcotest.int (name ^ ": events") a.stats.Engine.events
      b.stats.Engine.events;
    check Alcotest.int (name ^ ": sources") a.stats.Engine.sources
      b.stats.Engine.sources;
    check Alcotest.int (name ^ ": sink hits") a.stats.Engine.sink_hits
      b.stats.Engine.sink_hits;
    check
      Alcotest.(pair int int)
      (name ^ ": footprint") a.footprint b.footprint;
    check Alcotest.int (name ^ ": sink count") (List.length a.sinks)
      (List.length b.sinks);
    List.iter2
      (fun (sa, stepa, ta) (sb, stepb, tb) ->
        check Alcotest.string (name ^ ": sink kind") (Engine.sink_to_string sa)
          (Engine.sink_to_string sb);
        check Alcotest.int (name ^ ": sink step") stepa stepb;
        if not (D.equal ta tb) then
          Alcotest.failf "%s: sink taint differs at step %d: %a vs %a" name
            stepa D.pp ta D.pp tb)
      a.sinks b.sinks;
    check Alcotest.int (name ^ ": shadow size") (List.length a.shadow)
      (List.length b.shadow);
    List.iter2
      (fun (la, va) (lb, vb) ->
        check Alcotest.int (name ^ ": shadow loc") la lb;
        if not (D.equal va vb) then
          Alcotest.failf "%s: taint at %a differs: %a vs %a" name Loc.pp la
            D.pp va D.pp vb)
      a.shadow b.shadow

  let kernel ~policy ~policy_name (w : Workload.t) ~size ~seed =
    let input = w.Workload.input ~size ~seed in
    let name = Fmt.str "%s/%s/%s" D.name w.Workload.name policy_name in
    check_same name (run_paged ~policy w input) (run_ref ~policy w input)
end

module Ediff_bool = Engine_diff (Taint.Bool)
module Ediff_pc = Engine_diff (Taint.Pc)
module Ediff_set = Engine_diff (Taint.Input_set)

let test_engine_differential_bool () =
  List.iter
    (fun k ->
      Ediff_bool.kernel ~policy:Policy.security ~policy_name:"security"
        (Spec_like.by_name k) ~size:20 ~seed:5)
    [ "crc"; "qsort"; "bfs"; "hash" ]

let test_engine_differential_pc () =
  List.iter
    (fun k ->
      Ediff_pc.kernel ~policy:Policy.full ~policy_name:"full"
        (Spec_like.by_name k) ~size:16 ~seed:11)
    [ "crc"; "search"; "rle" ]

let test_engine_differential_input_set () =
  List.iter
    (fun k ->
      Ediff_set.kernel ~policy:Policy.data_only ~policy_name:"data"
        (Spec_like.by_name k) ~size:16 ~seed:7)
    [ "crc"; "matmul"; "sieve" ]

let suite =
  List.map Qcheck_run.to_alcotest
    [ Diff_bool.property "bool"; Diff_pc.property "pc";
      Diff_set.property "input-set" ]
  @ [
      Alcotest.test_case "clear returns paged shadow to empty" `Quick
        test_clear_returns_to_empty;
      Alcotest.test_case "bottom store to untouched page is a no-op" `Quick
        test_bottom_store_is_noop;
      Alcotest.test_case "oversized records keep words accounting exact"
        `Quick test_oversized_record_accounting;
      Alcotest.test_case "mem and reg planes do not alias" `Quick
        test_planes_do_not_alias;
      Alcotest.test_case "engine differential: bool/security kernels" `Quick
        test_engine_differential_bool;
      Alcotest.test_case "engine differential: pc/full kernels" `Quick
        test_engine_differential_pc;
      Alcotest.test_case "engine differential: input-set/data kernels" `Quick
        test_engine_differential_input_set;
    ]
