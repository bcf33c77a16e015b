(* Crash bundles: for every fault-plan leg the supervised runtime can
   blame — helper crash, application crash, spawn failure — a bundle assembled from the failed run must be written
   atomically, parse back, name the same failing leg as the structured
   error, and carry at least one flight-recorder event from the
   crashing domain (the chaos injection fires on the intercepting
   domain, so the evidence is always on the right ring). *)

open Dift_workloads
open Dift_parallel
module Json = Dift_obs.Json
module Flight = Dift_obs.Flight

let check = Alcotest.check

let kernel name =
  match List.find_opt (fun w -> w.Workload.name = name) Spec_like.all with
  | Some w -> w
  | None -> Alcotest.failf "kernel %s missing" name

let plan s =
  match Chaos.plan_of_string s with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad test plan %S: %s" s e

let geometry =
  {
    Postmortem.g_runtime = "parallel";
    g_queue_capacity = 4;
    g_batch_size = 1;
    g_wire = `Coded;
    g_forward_filter = false;
    g_deadline = None;
    g_degrade = false;
  }

let leg_name : Parallel.leg -> string = function
  | `App -> "app"
  | `Helper -> "helper"
  | `Spawn -> "spawn"
  | `Deadline -> "deadline"

(* The ring that must carry evidence: chaos fires on the intercepting
   domain, and a spawn fault is intercepted by the spawning
   application domain. *)
let crash_domain : Parallel.leg -> string = function
  | `App | `Spawn | `Deadline -> "app"
  | `Helper -> "helper"

(* Write the bundle, read it back through the parser, and run the
   shared assertions.  Returns the parsed bundle for extra checks. *)
let assert_bundle ~expected_leg ~flight ~chaos (e : Parallel.error) geo =
  let j = Postmortem.bundle ~flight ~chaos ~error:e geo in
  let file = Filename.temp_file "dift-bundle" ".json" in
  Postmortem.write ~file j;
  check Alcotest.bool "no temp file left behind" false
    (Sys.file_exists (file ^ ".tmp"));
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  let j =
    match Json.of_string text with
    | Ok j -> j
    | Error err -> Alcotest.failf "bundle does not parse: %s" err
  in
  (match Json.member "schema" j with
  | Some (Json.String s) -> check Alcotest.string "schema tag" Postmortem.schema s
  | _ -> Alcotest.fail "bundle has no schema tag");
  (match Option.bind (Json.member "error" j) (Json.member "leg") with
  | Some (Json.String leg) ->
      check Alcotest.string "bundle blames the expected leg"
        (leg_name expected_leg) leg;
      check Alcotest.string "bundle leg matches the returned error"
        (leg_name e.Parallel.e_leg) leg
  | _ -> Alcotest.fail "bundle names no failing leg");
  (match Json.member "fault_plan" j with
  | Some fp ->
      check Alcotest.bool "at least one fault fired" true
        (match Json.member "fired" fp with
        | Some (Json.Int n) -> n >= 1
        | _ -> false)
  | None -> Alcotest.fail "bundle has no fault plan");
  (let doms =
     match Option.bind (Json.member "flight" j) (Json.member "domains") with
     | Some (Json.List ds) -> ds
     | _ -> Alcotest.fail "bundle has no flight section"
   in
   let wanted = crash_domain expected_leg in
   match
     List.find_opt
       (fun d -> Json.member "name" d = Some (Json.String wanted))
       doms
   with
   | None -> Alcotest.failf "no flight ring named %s" wanted
   | Some d -> (
       match Json.member "events" d with
       | Some (Json.List (_ :: _)) -> ()
       | _ -> Alcotest.failf "flight ring %s recorded no events" wanted));
  j

let run_two_domain plan_s expected_leg () =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:12 ~seed:3 in
  let flight = Flight.create () in
  let chaos = Chaos.create ~flight (plan plan_s) in
  match
    Parallel.run_result ~flight ~chaos ~queue_capacity:4 ~batch_size:1
      w.Workload.program ~input
  with
  | Ok _ -> Alcotest.failf "plan %s must fail the run" plan_s
  | Error e ->
      check Alcotest.bool "failing leg as planned" true
        (e.Parallel.e_leg = expected_leg);
      ignore (assert_bundle ~expected_leg ~flight ~chaos e geometry)

let test_bundle_helper_leg = run_two_domain "pop@2=crash" `Helper
let test_bundle_app_leg = run_two_domain "push@3=crash" `App
let test_bundle_spawn_leg = run_two_domain "spawn@1=crash" `Spawn

(* The optional sections appear when their sources are supplied, and
   the embedded metrics are the post-mortem registry state. *)
let test_bundle_optional_sections () =
  let w = kernel "crc" in
  let input = w.Workload.input ~size:12 ~seed:3 in
  let flight = Flight.create () in
  let reg = Dift_obs.Registry.create () in
  let chaos = Chaos.create ~flight (plan "pop@2=crash") in
  match
    Parallel.run_result ~obs:reg ~flight ~chaos ~queue_capacity:4
      ~batch_size:1 w.Workload.program ~input
  with
  | Ok _ -> Alcotest.fail "plan must fail the run"
  | Error e ->
      let first = Dift_obs.Registry.(to_json (snapshot reg)) in
      let j =
        Postmortem.bundle ~obs:reg ~flight ~chaos ~first_heartbeat:first
          ~extra:[ ("workload", Json.String "crc") ]
          ~error:e geometry
      in
      List.iter
        (fun field ->
          check Alcotest.bool (field ^ " present") true
            (Json.member field j <> None))
        [
          "schema"; "error"; "geometry"; "fault_plan"; "metrics";
          "first_heartbeat"; "flight"; "workload";
        ];
      check Alcotest.bool "metrics carry the forwarder ledger" true
        (match
           Option.bind (Json.member "metrics" j) (Json.member "parallel")
         with
        | Some (Json.Obj _) -> true
        | _ -> false)

let suite =
  [
    Alcotest.test_case "bundle: helper leg" `Quick test_bundle_helper_leg;
    Alcotest.test_case "bundle: app leg" `Quick test_bundle_app_leg;
    Alcotest.test_case "bundle: spawn leg" `Quick test_bundle_spawn_leg;
    Alcotest.test_case "bundle: optional sections" `Quick
      test_bundle_optional_sections;
  ]
