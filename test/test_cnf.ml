(* The clause-database WMC engine (lib/cnf) against its two reference
   semantics: brute-force weighted model counting on small formulas, and
   the tree DPLL solver on randomized lineage — monotone and non-monotone,
   across the cache/components config matrix, with fault injection. *)

module F = Probdb_boolean.Formula
module W = Probdb_boolean.Brute_wmc
module Cnf = Probdb_cnf.Cnf
module Wmc = Probdb_cnf.Wmc
module Dpll = Probdb_dpll.Dpll
module Circuit = Probdb_kc.Circuit
module Guard = Probdb_guard.Guard

let probs x = 0.15 +. (0.07 *. float_of_int x)

let x0 = F.var 0
let x1 = F.var 1
let x2 = F.var 2
let x3 = F.var 3

(* (x0 v x1)(x0 v x2)(x1 v x2) — connected, CNF-shaped *)
let triangle = F.conj [ F.disj2 x0 x1; F.disj2 x0 x2; F.disj2 x1 x2 ]

(* ---------- the bridge ---------- *)

let test_direct_translation () =
  let c = Cnf.translate triangle in
  Alcotest.(check bool) "direct (no gates)" false c.Cnf.clausified;
  Alcotest.(check int) "3 vars" 3 c.Cnf.nvars;
  Alcotest.(check int) "3 clauses" 3 (Array.length c.Cnf.clauses);
  (* negative literals are still CNF-shaped *)
  let c' = Cnf.translate (F.conj2 (F.disj2 (F.neg x0) x1) (F.disj2 x0 (F.neg x2))) in
  Alcotest.(check bool) "negated literals direct" false c'.Cnf.clausified;
  (* a DNF is not, and falls back to clausification *)
  let dnf = F.disj2 (F.conj2 x0 x1) (F.conj2 x2 x3) in
  Alcotest.(check bool) "as_cnf refuses DNF" true (F.as_cnf dnf = None);
  let c'' = Cnf.translate dnf in
  Alcotest.(check bool) "DNF clausified" true c''.Cnf.clausified;
  Alcotest.(check bool) "gates added" true (c''.Cnf.nvars > c''.Cnf.n_orig)

let test_constants () =
  Test_util.check_float "true" 1.0 (Wmc.probability ~prob:probs F.tru);
  Test_util.check_float "false" 0.0 (Wmc.probability ~prob:probs F.fls);
  Test_util.check_float "single var" (probs 2) (Wmc.probability ~prob:probs x2);
  Test_util.check_float "negated var" (1.0 -. probs 2)
    (Wmc.probability ~prob:probs (F.neg x2))

(* ---------- counting against brute force ---------- *)

let test_simple_counts () =
  let r = Wmc.count ~prob:probs triangle in
  Test_util.check_float "triangle" (W.probability probs triangle) r.Wmc.prob;
  Alcotest.(check bool) "made decisions" true (r.Wmc.stats.Wmc.decisions > 0);
  Alcotest.(check bool) "propagated units" true (r.Wmc.stats.Wmc.propagations > 0);
  Alcotest.(check bool) "tracked trail depth" true (r.Wmc.stats.Wmc.max_trail > 0)

let test_trace_is_valid_decision_dnnf () =
  let r = Wmc.count ~prob:probs triangle in
  Alcotest.(check bool) "trace valid" true (Result.is_ok (Circuit.check r.Wmc.circuit));
  Alcotest.(check bool) "trace within decision-DNNF" true
    (Circuit.kind ~order:None r.Wmc.circuit <> Circuit.Extended);
  Test_util.check_float "trace wmc" r.Wmc.prob (Circuit.wmc probs r.Wmc.circuit);
  Alcotest.(check int) "trace_size = circuit size" (Circuit.size r.Wmc.circuit)
    r.Wmc.trace_size

let test_components_fire () =
  (* (x0 v x1) ∧ (x2 v x3): splits into two residual components at the root *)
  let f = F.conj2 (F.disj2 x0 x1) (F.disj2 x2 x3) in
  let r = Wmc.count ~prob:probs f in
  Test_util.check_float "probability" (W.probability probs f) r.Wmc.prob;
  Alcotest.(check bool) "components detected" true (r.Wmc.stats.Wmc.components >= 2);
  let r' =
    Wmc.count ~config:{ Wmc.default_config with Wmc.use_components = false }
      ~prob:probs f
  in
  Test_util.check_float "same without components" r.Wmc.prob r'.Wmc.prob;
  Alcotest.(check bool) "components save decisions" true
    (r.Wmc.stats.Wmc.decisions <= r'.Wmc.stats.Wmc.decisions)

let test_decision_limit () =
  match
    Wmc.count ~config:{ Wmc.default_config with Wmc.max_decisions = 1 } ~prob:probs
      triangle
  with
  | exception Wmc.Decision_limit 1 -> ()
  | _ -> Alcotest.fail "expected Decision_limit"

(* A formula with enough distinct components to overflow a 2-entry cache:
   a chain of independent clause pairs. *)
let chained n =
  F.conj (List.init n (fun i -> F.disj2 (F.var (2 * i)) (F.var ((2 * i) + 1))))

let test_cache_bounded () =
  let f = chained 8 in
  let r =
    Wmc.count ~config:{ Wmc.default_config with Wmc.max_cache_entries = 2 }
      ~prob:probs f
  in
  Test_util.check_float "correct with tiny cache" (W.probability probs f) r.Wmc.prob;
  Alcotest.(check bool) "evictions happened" true (r.Wmc.stats.Wmc.cache_evictions > 0);
  Alcotest.(check bool) "cache stayed bounded" true (r.Wmc.stats.Wmc.cache_entries <= 2)

let test_guard_budget_caps_cache () =
  let g = Guard.create () in
  Guard.set_budget g "wmc.cache_entries" 2;
  let f = chained 8 in
  let r = Wmc.count ~guard:g ~prob:probs f in
  Test_util.check_float "correct under budget cap" (W.probability probs f) r.Wmc.prob;
  Alcotest.(check bool) "budget bound respected" true
    (r.Wmc.stats.Wmc.cache_entries <= 2)

(* ---------- fault injection: trips must not corrupt anything ---------- *)

let test_guard_trip_degrades_cleanly () =
  let fault = Guard.Trip_at_poll { poll = 2; resource = Guard.Fault } in
  (match Wmc.count ~guard:(Guard.create ~fault ()) ~prob:probs triangle with
  | exception Guard.Exhausted trip ->
      Alcotest.(check string) "tripped at the decision site" "wmc.decide" trip.Guard.site
  | _ -> Alcotest.fail "expected Exhausted");
  (* a fresh run afterwards is untouched by the aborted one *)
  Test_util.check_float "clean after trip" (W.probability probs triangle)
    (Wmc.probability ~prob:probs triangle)

(* ---------- the property suite (this is what `make check-wmc` runs) ---------- *)

let gen_formula =
  QCheck2.Gen.(
    sized_size (int_range 0 8) @@ fix (fun self n ->
        if n = 0 then
          oneof [ return F.tru; return F.fls; map F.var (int_range 0 6) ]
        else
          oneof
            [
              map F.var (int_range 0 6);
              map F.neg (self (n - 1));
              map2 F.conj2 (self (n / 2)) (self (n / 2));
              map2 F.disj2 (self (n / 2)) (self (n / 2));
            ]))

(* Random monotone CNF: the shape of universal-query lineage, translated
   directly (no gates). *)
let gen_monotone_cnf =
  QCheck2.Gen.(
    let clause = map (fun vs -> F.disj (List.map F.var vs)) (list_size (1 -- 3) (0 -- 7)) in
    map F.conj (list_size (1 -- 6) clause))

(* Non-monotone CNF: negated literals allowed, still directly translated. *)
let gen_signed_cnf =
  QCheck2.Gen.(
    let literal =
      map2 (fun v sign -> if sign then F.var v else F.neg (F.var v)) (0 -- 7) bool
    in
    let clause = map F.disj (list_size (1 -- 3) literal) in
    map F.conj (list_size (1 -- 6) clause))

let configs =
  [
    ("default", Wmc.default_config);
    ("no-cache", { Wmc.default_config with Wmc.use_cache = false });
    ("no-components", { Wmc.default_config with Wmc.use_components = false });
    ( "plain",
      { Wmc.default_config with Wmc.use_cache = false; Wmc.use_components = false } );
  ]

let agrees_everywhere f =
  let expected = W.probability probs f in
  List.for_all
    (fun (_, cfg) ->
      Float.abs (Wmc.probability ~config:cfg ~prob:probs f -. expected) < 1e-9
      && Float.abs
           (Wmc.probability ~config:cfg ~force_clausify:true ~prob:probs f -. expected)
         < 1e-9)
    configs

let prop_matches_brute_force =
  Test_util.qcheck ~count:200 "WMC (all configs, both translations) = brute force"
    gen_formula agrees_everywhere

let prop_monotone_cnf_matches_dpll =
  Test_util.qcheck ~count:200 "WMC = tree DPLL on monotone CNF lineage"
    gen_monotone_cnf (fun f ->
      let expected = Dpll.probability ~prob:probs f in
      List.for_all
        (fun (_, cfg) ->
          Float.abs (Wmc.probability ~config:cfg ~prob:probs f -. expected) < 1e-9)
        configs)

let prop_signed_cnf_matches_dpll =
  Test_util.qcheck ~count:200 "WMC = tree DPLL on non-monotone CNF" gen_signed_cnf
    (fun f ->
      let expected = Dpll.probability ~prob:probs f in
      Float.abs (Wmc.probability ~prob:probs f -. expected) < 1e-9)

let prop_trace_wmc_agrees =
  Test_util.qcheck ~count:200 "trace WMC = reported probability" gen_monotone_cnf
    (fun f ->
      let r = Wmc.count ~prob:probs f in
      Result.is_ok (Circuit.check r.Wmc.circuit)
      && Circuit.kind ~order:None r.Wmc.circuit <> Circuit.Extended
      && Float.abs (Circuit.wmc probs r.Wmc.circuit -. r.Wmc.prob) < 1e-9)

(* Deterministic trips at every poll depth: the solver either finishes with
   the right answer or raises Exhausted; either way a fresh solve right
   after is correct (nothing global to corrupt). *)
let prop_fault_injection_clean =
  Test_util.qcheck ~count:100 "guard trips mid-solve degrade cleanly"
    QCheck2.Gen.(pair gen_monotone_cnf (1 -- 20))
    (fun (f, poll) ->
      let expected = W.probability probs f in
      let fault = Guard.Trip_at_poll { poll; resource = Guard.Fault } in
      let first =
        match Wmc.probability ~guard:(Guard.create ~fault ()) ~prob:probs f with
        | p -> Float.abs (p -. expected) < 1e-9
        | exception Guard.Exhausted _ -> true
      in
      first && Float.abs (Wmc.probability ~prob:probs f -. expected) < 1e-9)

(* The star family of the e16 benchmark: one hub variable in every clause.
   Here the clause database provably mirrors the tree solver float for
   float, not just up to tolerance. *)
let test_star_bit_identical () =
  let star n =
    F.conj (List.init n (fun i -> F.disj2 (F.var 0) (F.var (i + 1))))
  in
  List.iter
    (fun n ->
      let f = star n in
      let tree = Dpll.probability ~prob:probs f in
      let wmc = Wmc.probability ~prob:probs f in
      if not (Float.equal tree wmc) then
        Alcotest.failf "star %d: tree %.17g <> wmc %.17g" n tree wmc)
    [ 1; 2; 5; 17; 50 ]

(* ---------- engine integration ---------- *)

module E = Probdb_engine.Engine
module L = Probdb_logic
module Q = Probdb_workload.Queries
module Gen = Probdb_workload.Gen

let test_engine_wmc_on_universal_query () =
  (* ∀x∀y R(x)∨S(x,y)∨T(y) (Thm. 2.2 as stated) grounds to CNF-shaped
     lineage on an asymmetric db: the auto dispatcher reaches the WMC
     strategy before OBDD/DPLL *)
  let q = Q.h0_forall.Q.query in
  let db = Gen.h0_db ~seed:7 ~n:3 () in
  let stats = Probdb_obs.Stats.create () in
  let a = Test_util.eval ~stats db q in
  Alcotest.(check string) "wmc answers" "wmc" a.Probdb_engine.Answer.strategy;
  Test_util.check_float "exact value" (L.Brute_force.probability db q)
    a.Probdb_engine.Answer.value;
  (match stats.Probdb_obs.Stats.wmc with
  | Some w ->
      Alcotest.(check bool) "wmc stats recorded" true
        (w.Probdb_obs.Stats.wmc_decisions > 0)
  | None -> Alcotest.fail "wmc stats missing");
  match stats.Probdb_obs.Stats.circuit with
  | Some c ->
      Alcotest.(check bool) "circuit recorded" true (c.Probdb_obs.Stats.nodes > 0)
  | None -> Alcotest.fail "circuit stats missing"

let test_engine_wmc_skips_dnf_lineage_in_auto () =
  (* H0 is existential — DNF lineage — so in auto mode the WMC strategy
     steps aside with a reason and OBDD still answers (the seed behaviour) *)
  let db = Gen.h0_db ~seed:5 ~n:3 () in
  let a = Test_util.eval db Q.h0.Q.query in
  Alcotest.(check string) "obdd still answers H0" "obdd" a.Probdb_engine.Answer.strategy;
  Alcotest.(check bool) "wmc skipped with a reason" true (Test_util.in_chain a E.Wmc)

let test_engine_wmc_forced_on_dnf () =
  (* explicitly requested, WMC clausifies the DNF lineage and still agrees *)
  let db = Gen.h0_db ~seed:5 ~n:3 () in
  let config = { E.default_config with E.strategies = [ E.Wmc ] } in
  let a = Test_util.eval ~config db Q.h0.Q.query in
  Alcotest.(check string) "wmc answers when forced" "wmc" a.Probdb_engine.Answer.strategy;
  Test_util.check_float "same value" (L.Brute_force.probability db Q.h0.Q.query)
    a.Probdb_engine.Answer.value

let suites =
  [
    ( "cnf",
      [
        Alcotest.test_case "direct translation" `Quick test_direct_translation;
        Alcotest.test_case "constants" `Quick test_constants;
      ] );
    ( "wmc",
      [
        Alcotest.test_case "simple counts" `Quick test_simple_counts;
        Alcotest.test_case "trace is valid decision-DNNF" `Quick
          test_trace_is_valid_decision_dnnf;
        Alcotest.test_case "components fire" `Quick test_components_fire;
        Alcotest.test_case "decision limit" `Quick test_decision_limit;
        Alcotest.test_case "bounded cache evicts" `Quick test_cache_bounded;
        Alcotest.test_case "guard budget caps cache" `Quick test_guard_budget_caps_cache;
        Alcotest.test_case "guard trip degrades cleanly" `Quick
          test_guard_trip_degrades_cleanly;
        Alcotest.test_case "star family bit-identical to tree" `Quick
          test_star_bit_identical;
        prop_matches_brute_force;
        prop_monotone_cnf_matches_dpll;
        prop_signed_cnf_matches_dpll;
        prop_trace_wmc_agrees;
        prop_fault_injection_clean;
      ] );
    ( "wmc-engine",
      [
        Alcotest.test_case "universal query answers via wmc" `Quick
          test_engine_wmc_on_universal_query;
        Alcotest.test_case "auto mode skips DNF lineage" `Quick
          test_engine_wmc_skips_dnf_lineage_in_auto;
        Alcotest.test_case "forced wmc clausifies DNF" `Quick
          test_engine_wmc_forced_on_dnf;
      ] );
  ]
