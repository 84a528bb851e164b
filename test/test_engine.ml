module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Err = Probdb_core.Probdb_error
module Stats = Probdb_obs.Stats
module Q = Probdb_workload.Queries
module Gen = Probdb_workload.Gen

let db_for q ~seed ~domain_size =
  let specs =
    List.map (fun (name, arity) -> Gen.spec ~density:0.7 name arity) (L.Fo.relations q)
  in
  Gen.random_tid ~seed ~domain_size specs

let test_safe_queries_use_lifted () =
  List.iter
    (fun (e : Q.entry) ->
      if e.Q.expected = Q.Ptime then begin
        let db = db_for e.Q.query ~seed:3 ~domain_size:2 in
        let a = Test_util.eval db e.Q.query in
        Alcotest.(check string)
          (Printf.sprintf "%s via lifted" e.Q.name)
          "lifted" a.Answer.strategy;
        Test_util.check_float e.Q.name
          (L.Brute_force.probability db e.Q.query)
          a.Answer.value
      end)
    Q.all

let test_hard_queries_fall_to_grounded () =
  (* complete bipartite H0 instance: the lineage contains the triangle
     pattern, so even read-once factorisation refuses *)
  let db = Gen.h0_db ~seed:5 ~n:3 () in
  let a = Test_util.eval db Q.h0.Q.query in
  (* lifted and safe-plan must be skipped, an exact grounded method wins *)
  Alcotest.(check bool) "lifted skipped" true (Test_util.in_chain a E.Lifted);
  Alcotest.(check bool) "safe plan skipped" true (Test_util.in_chain a E.Safe_plan);
  Alcotest.(check string) "OBDD answers" "obdd" a.Answer.strategy;
  Test_util.check_float "exact value"
    (L.Brute_force.probability db Q.h0.Q.query)
    a.Answer.value

(* A larger H0 instance with tiny exact budgets: every exact strategy is
   skipped or tripped. *)
let starved_config =
  { E.default_config with
    E.obdd_max_nodes = 10;
    dpll_max_decisions = 10;
    wmc_max_decisions = 10;
    max_enum_support = 5 }

let test_budget_falls_to_sampling () =
  (* sampling is not an ordinary chain member: the answer is the certified
     (eps,delta) fallback, flagged and with its interval *)
  let db = Gen.h0_db ~seed:2 ~n:10 () in
  let a = Test_util.eval ~config:starved_config db Q.h0.Q.query in
  Alcotest.(check string) "karp-luby answers" "karp-luby" a.Answer.strategy;
  Alcotest.(check bool) "not exact" false a.Answer.exact;
  Alcotest.(check bool) "degraded" true a.Answer.degraded;
  (match a.Answer.confidence with
  | Some c ->
      Alcotest.(check bool) "interval within [0,1]" true
        (0.0 <= c.Answer.ci_low && c.Answer.ci_low <= c.Answer.ci_high
       && c.Answer.ci_high <= 1.0);
      Alcotest.(check bool) "samples drawn" true (c.Answer.samples > 0)
  | None -> Alcotest.fail "a degraded answer carries its confidence interval");
  match a.Answer.stats.Stats.std_error with
  | Some se -> Alcotest.(check bool) "se positive" true (se > 0.0)
  | None -> Alcotest.fail "expected a standard error"

let test_no_degrade_exact_or_typed () =
  (* with degradation off, sampling never answers in place of an exact
     method: the same starved instance is a typed resource error *)
  let db = Gen.h0_db ~seed:2 ~n:10 () in
  let config = { starved_config with E.degrade = None } in
  (match E.eval ~config db Q.h0.Q.query with
  | Error (Err.Exhausted _) -> ()
  | Error e -> Alcotest.fail ("expected Exhausted, got: " ^ Err.render e)
  | Ok a -> Alcotest.failf "expected Exhausted, got %s via %s" (if a.Answer.exact then "exact" else "an estimate") a.Answer.strategy);
  (* Karp–Luby as the whole strategy list is still a strategy *)
  let a = Test_util.eval ~config:{ config with E.strategies = [ E.Karp_luby ] } db Q.h0.Q.query in
  Alcotest.(check string) "karp-luby answers" "karp-luby" a.Answer.strategy;
  Alcotest.(check bool) "estimate, not degraded" false (a.Answer.exact || a.Answer.degraded)

let test_no_method () =
  let db = Gen.h0_db ~seed:2 ~n:10 () in
  let config =
    { E.default_config with
      E.strategies = [ E.Lifted; E.Obdd ]; E.obdd_max_nodes = 10; degrade = None }
  in
  let stats = Stats.create () in
  match E.eval ~config ~stats db Q.h0.Q.query with
  | Error (Err.Exhausted _) ->
      Alcotest.(check int) "two reasons" 2 (List.length stats.Stats.chain)
  | _ -> Alcotest.fail "expected a typed error"

let test_safe_plan_strategy () =
  (* with lifted disabled, hierarchical CQs answer via a safe plan *)
  let db = db_for Q.q_hier.Q.query ~seed:8 ~domain_size:3 in
  let config = { E.default_config with E.strategies = [ E.Safe_plan; E.Dpll ] } in
  let a = Test_util.eval ~config db Q.q_hier.Q.query in
  Alcotest.(check string) "safe-plan answers" "safe-plan" a.Answer.strategy;
  Test_util.check_float "exact"
    (L.Brute_force.probability db Q.q_hier.Q.query)
    a.Answer.value

let test_all_exact_strategies_agree () =
  let db = db_for Q.q_j.Q.query ~seed:12 ~domain_size:2 in
  let truth = L.Brute_force.probability db Q.q_j.Q.query in
  List.iter
    (fun s ->
      let config = { E.default_config with E.strategies = [ s ] } in
      let a = Test_util.eval ~config db Q.q_j.Q.query in
      Test_util.check_float (E.strategy_name s) truth a.Answer.value)
    [ E.Lifted; E.Obdd; E.Dpll; E.World_enum ]

let test_general_fo_via_grounding () =
  (* sentences outside the unate ∃*/∀* fragment still evaluate *)
  let db = db_for (L.Parser.parse_sentence "forall x. exists y. S(x,y)") ~seed:4 ~domain_size:3 in
  let q = L.Parser.parse_sentence "forall x. exists y. S(x,y)" in
  let a = Test_util.eval db q in
  Alcotest.(check bool) "lifted skipped (fragment)" true (Test_util.in_chain a E.Lifted);
  Test_util.check_float "grounded exact" (L.Brute_force.probability db q) a.Answer.value

let test_ranking_limited_query_still_answers () =
  let e = Q.self_join_symmetric in
  let db = db_for e.Q.query ~seed:6 ~domain_size:3 in
  let a = Test_util.eval db e.Q.query in
  Alcotest.(check bool) "lifted rejected it" true (Test_util.in_chain a E.Lifted);
  Test_util.check_float "grounded exact"
    (L.Brute_force.probability db e.Q.query)
    a.Answer.value

let test_symmetric_strategy () =
  (* a materialised symmetric database lets the engine answer #P-hard H0
     exactly via the FO² cell algorithm (Thm. 8.1) *)
  let sym = Probdb_symmetric.Sym_db.make ~n:3 [ ("R", 1, 0.3); ("S", 2, 0.7); ("T", 1, 0.5) ] in
  let db = Probdb_symmetric.Sym_db.to_tid sym in
  let a = Test_util.eval db Q.h0_forall.Q.query in
  Alcotest.(check string) "symmetric answers" "symmetric" a.Answer.strategy;
  Alcotest.(check bool) "lifted was skipped" true (Test_util.in_chain a E.Lifted);
  Test_util.check_float "exact"
    (L.Brute_force.probability db Q.h0_forall.Q.query)
    a.Answer.value;
  (* a non-symmetric db skips the strategy *)
  let db2 = db_for Q.h0.Q.query ~seed:3 ~domain_size:2 in
  let a2 = Test_util.eval db2 Q.h0.Q.query in
  Alcotest.(check bool) "skipped on asymmetric db" true (Test_util.in_chain a2 E.Symmetric)

let test_read_once_strategy () =
  (* with everything cheaper disabled, hierarchical lineages answer via
     read-once factorisation in linear time *)
  let db = db_for Q.q_hier.Q.query ~seed:9 ~domain_size:3 in
  let config = { E.default_config with E.strategies = [ E.Read_once; E.Dpll ] } in
  let a = Test_util.eval ~config db Q.q_hier.Q.query in
  Alcotest.(check string) "read-once answers" "read-once" a.Answer.strategy;
  Test_util.check_float "exact"
    (L.Brute_force.probability db Q.q_hier.Q.query)
    a.Answer.value;
  (* H0's lineage is not read-once *)
  let db2 = db_for Q.h0.Q.query ~seed:9 ~domain_size:3 in
  let a2 = Test_util.eval ~config db2 Q.h0.Q.query in
  Alcotest.(check string) "falls through to dpll" "dpll" a2.Answer.strategy;
  Alcotest.(check bool) "read-once skipped" true (Test_util.in_chain a2 E.Read_once)

let test_answers () =
  let t xs = List.map Core.Value.int xs in
  let r = Core.Relation.of_list "R" [ (t [ 1 ], 0.3); (t [ 2 ], 0.9) ] in
  let s = Core.Relation.of_list "S" [ (t [ 1; 2 ], 0.5); (t [ 2; 2 ], 1.0) ] in
  let db = Core.Tid.make [ r; s ] in
  let q = L.Parser.parse ~free:[ "x" ] "exists y. R(x) && S(x,y)" in
  let results = E.answers ~free:[ "x" ] db q in
  Alcotest.(check int) "two answers" 2 (List.length results);
  List.iter
    (fun (binding, (a : Answer.t)) ->
      let expected =
        List.assoc binding (L.Brute_force.answers db ~free:[ "x" ] q)
      in
      Test_util.check_float "answer" expected a.Answer.value)
    results

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_expected_answer_count () =
  let t xs = List.map Core.Value.int xs in
  let r = Core.Relation.of_list "R" [ (t [ 1 ], 0.3); (t [ 2 ], 0.9) ] in
  let db = Core.Tid.make [ r ] in
  let q = L.Parser.parse ~free:[ "x" ] "R(x)" in
  (* E[#answers] = sum of marginals by linearity *)
  Test_util.check_float "linearity of expectation" 1.2
    (E.expected_answer_count ~free:[ "x" ] db q);
  (* agrees with direct expectation over worlds *)
  let direct =
    Core.Worlds.expectation db (fun w ->
        float_of_int (List.length (Core.World.tuples_of w "R")))
  in
  Test_util.check_float "matches world expectation" direct
    (E.expected_answer_count ~free:[ "x" ] db q)

let test_report_printing () =
  let db = Gen.h0_db ~seed:5 ~n:2 () in
  let a = Test_util.eval db Q.h0.Q.query in
  let s = Format.asprintf "%a" Answer.pp a in
  Alcotest.(check bool) "mentions strategy" true (contains s "obdd");
  Alcotest.(check bool) "mentions skipped lifted" true (contains s "lifted skipped")

(* property: engine = brute force on random TIDs across the zoo *)
let prop_engine_matches_brute_force =
  Test_util.qcheck ~count:40 "engine exact = brute force (zoo x random TIDs)"
    QCheck2.Gen.(int_range 1 500)
    (fun seed ->
      List.for_all
        (fun (e : Q.entry) ->
          let db = db_for e.Q.query ~seed ~domain_size:2 in
          let config = { E.default_config with E.degrade = None } in
          let a = Test_util.eval ~config db e.Q.query in
          let truth = L.Brute_force.probability db e.Q.query in
          a.Answer.exact && Float.abs (a.Answer.value -. truth) < 1e-9)
        Q.all)

let suites =
  [
    ( "engine",
      [
        Alcotest.test_case "safe queries use lifted" `Quick test_safe_queries_use_lifted;
        Alcotest.test_case "hard queries fall to grounded" `Quick test_hard_queries_fall_to_grounded;
        Alcotest.test_case "budgets fall to sampling" `Quick test_budget_falls_to_sampling;
        Alcotest.test_case "no-degrade is exact or a typed error" `Quick
          test_no_degrade_exact_or_typed;
        Alcotest.test_case "no method" `Quick test_no_method;
        Alcotest.test_case "safe-plan strategy" `Quick test_safe_plan_strategy;
        Alcotest.test_case "exact strategies agree" `Quick test_all_exact_strategies_agree;
        Alcotest.test_case "general FO via grounding" `Quick test_general_fo_via_grounding;
        Alcotest.test_case "beyond-rules query still answers" `Quick test_ranking_limited_query_still_answers;
        Alcotest.test_case "symmetric strategy" `Quick test_symmetric_strategy;
        Alcotest.test_case "read-once strategy" `Quick test_read_once_strategy;
        Alcotest.test_case "non-Boolean answers" `Quick test_answers;
        Alcotest.test_case "expected answer count" `Quick test_expected_answer_count;
        Alcotest.test_case "report printing" `Quick test_report_printing;
        prop_engine_matches_brute_force;
      ] );
  ]
