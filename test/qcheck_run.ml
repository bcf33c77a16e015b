(* One QCheck random state per property.  [QCheck_alcotest.to_alcotest]
   rebuilds its default state from the run's one seed at every call,
   so properties that share a generator would all draw the same
   cases.  Here each property draws from the run's seed mixed with its
   own name.  The seed is [QCHECK_SEED] when set, or a fresh one, and
   is printed once: [QCHECK_SEED=<seed>] reproduces the run. *)

let seed =
  lazy
    (let s =
       match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
       | Some s -> s
       | None ->
           Random.self_init ();
           Random.int 1_000_000_000
     in
     Printf.printf "qcheck random seed: %d\n%!" s;
     s)

let to_alcotest test =
  let (QCheck2.Test.Test cell) = test in
  QCheck_alcotest.to_alcotest
    ~rand:
      (Random.State.make
         [| Lazy.force seed; Hashtbl.hash (QCheck2.Test.get_name cell) |])
    test
