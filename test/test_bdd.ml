(* BDD correctness: hand cases plus QCheck properties cross-checking
   every operation against OCaml's reference Set implementation. *)

open Dift_bdd

module Int_set = Set.Make (Int)

let check = Alcotest.check

let test_singleton_mem () =
  let man = Bdd.manager () in
  let s = Bdd.singleton man 42 in
  check Alcotest.bool "mem 42" true (Bdd.mem 42 s);
  check Alcotest.bool "not mem 41" false (Bdd.mem 41 s);
  check Alcotest.int "cardinal" 1 (Bdd.cardinal s);
  check Alcotest.(list int) "elements" [ 42 ] (Bdd.elements s)

let test_union_basic () =
  let man = Bdd.manager () in
  let s = Bdd.of_list man [ 3; 1; 2; 3 ] in
  check Alcotest.(list int) "elements" [ 1; 2; 3 ] (Bdd.elements s);
  check Alcotest.int "cardinal" 3 (Bdd.cardinal s)

let test_hash_consing_shares () =
  let man = Bdd.manager () in
  let a = Bdd.of_list man [ 1; 2; 3 ] in
  let b = Bdd.of_list man [ 3; 2; 1 ] in
  check Alcotest.bool "same physical node" true (Bdd.equal a b)

let test_clustered_sets_share_nodes () =
  let man = Bdd.manager () in
  (* 100 windows of 64 adjacent elements: heavy overlap, large sets —
     the regime the paper's lineage sets live in *)
  let sets =
    List.init 100 (fun i -> Bdd.of_list man (List.init 64 (fun j -> i + j)))
  in
  ignore (Bdd.unique_nodes man);
  let live_unique = Bdd.family_node_count sets in
  let sum_individual =
    List.fold_left (fun acc s -> acc + Bdd.node_count s) 0 sets
  in
  check Alcotest.bool
    (Fmt.str "sharing: %d live unique < %d summed" live_unique
       sum_individual)
    true
    (live_unique * 4 < sum_individual * 3);
  (* Per-set compression on a big clustered set — the regime where
     roBDDs beat explicit sets outright. *)
  let big = Bdd.of_list man (List.init 4000 (fun i -> 100 + i)) in
  check Alcotest.int "big cardinal" 4000 (Bdd.cardinal big);
  check Alcotest.bool
    (Fmt.str "big set compresses: %d nodes for 4000 elements"
       (Bdd.node_count big))
    true
    (Bdd.node_count big * 8 < 4000)

let test_empty_and_diff () =
  let man = Bdd.manager () in
  let a = Bdd.of_list man [ 1; 2; 3 ] in
  let b = Bdd.of_list man [ 2 ] in
  let d = Bdd.diff man a b in
  check Alcotest.(list int) "diff" [ 1; 3 ] (Bdd.elements d);
  check Alcotest.bool "a diff a empty" true
    (Bdd.is_empty (Bdd.diff man a a));
  check Alcotest.bool "zero empty" true (Bdd.is_empty Bdd.zero)

(* -- QCheck: random set-algebra terms ------------------------------------- *)

type term =
  | Lit of int list
  | Union of term * term
  | Inter of term * term
  | Diff of term * term

let rec eval_ref = function
  | Lit xs -> Int_set.of_list xs
  | Union (a, b) -> Int_set.union (eval_ref a) (eval_ref b)
  | Inter (a, b) -> Int_set.inter (eval_ref a) (eval_ref b)
  | Diff (a, b) -> Int_set.diff (eval_ref a) (eval_ref b)

let rec eval_bdd man = function
  | Lit xs -> Bdd.of_list man xs
  | Union (a, b) -> Bdd.union man (eval_bdd man a) (eval_bdd man b)
  | Inter (a, b) -> Bdd.inter man (eval_bdd man a) (eval_bdd man b)
  | Diff (a, b) -> Bdd.diff man (eval_bdd man a) (eval_bdd man b)

let term_gen =
  QCheck2.Gen.(
    sized
    @@ fix (fun self n ->
           if n <= 1 then
             map (fun xs -> Lit xs) (list_size (0 -- 8) (0 -- 200))
           else
             oneof
               [
                 map (fun xs -> Lit xs) (list_size (0 -- 8) (0 -- 200));
                 map2
                   (fun a b -> Union (a, b))
                   (self (n / 2)) (self (n / 2));
                 map2
                   (fun a b -> Inter (a, b))
                   (self (n / 2)) (self (n / 2));
                 map2 (fun a b -> Diff (a, b)) (self (n / 2)) (self (n / 2));
               ]))

let prop_term_agrees =
  QCheck2.Test.make ~count:300 ~name:"bdd set algebra agrees with Set"
    term_gen (fun t ->
      let man = Bdd.manager () in
      let reference = Int_set.elements (eval_ref t) in
      let via_bdd = Bdd.elements (eval_bdd man t) in
      reference = via_bdd)

let prop_cardinal =
  QCheck2.Test.make ~count:200 ~name:"bdd cardinal agrees with Set"
    term_gen (fun t ->
      let man = Bdd.manager () in
      Int_set.cardinal (eval_ref t) = Bdd.cardinal (eval_bdd man t))

let prop_mem =
  QCheck2.Test.make ~count:200 ~name:"bdd mem agrees with Set"
    QCheck2.Gen.(pair term_gen (0 -- 220))
    (fun (t, x) ->
      let man = Bdd.manager () in
      Int_set.mem x (eval_ref t) = Bdd.mem x (eval_bdd man t))

let prop_union_idempotent =
  QCheck2.Test.make ~count:100 ~name:"union is idempotent (hash-consed)"
    term_gen (fun t ->
      let man = Bdd.manager () in
      let s = eval_bdd man t in
      Bdd.equal s (Bdd.union man s s))

let suite =
  [
    Alcotest.test_case "singleton/mem" `Quick test_singleton_mem;
    Alcotest.test_case "union basics" `Quick test_union_basic;
    Alcotest.test_case "hash consing shares" `Quick test_hash_consing_shares;
    Alcotest.test_case "clustered sets share nodes" `Quick
      test_clustered_sets_share_nodes;
    Alcotest.test_case "diff and empty" `Quick test_empty_and_diff;
    Qcheck_run.to_alcotest prop_term_agrees;
    Qcheck_run.to_alcotest prop_cardinal;
    Qcheck_run.to_alcotest prop_mem;
    Qcheck_run.to_alcotest prop_union_idempotent;
  ]
