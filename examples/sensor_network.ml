(* Uncertain sensor data (the classic probabilistic-database motivation):
   unreliable sensors may have detected events in zones. The coverage
   query "every zone is watched by a working sensor" is H0-shaped and
   #P-hard, so this example shows the whole toolbox from the paper in one
   place: exact grounded inference while it fits, plan bounds (Sec. 6),
   Karp-Luby sampling, and the symmetric closed form (Sec. 8) for the
   fleet-design variant.

   Run with: dune exec examples/sensor_network.exe *)

module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module P = Probdb_plans
module Sym = Probdb_symmetric
module Gen = Probdb_workload.Gen

let () =
  Format.printf "== Sensor network coverage under uncertainty ==@.@.";
  (* Broken(s): sensor s is broken. Covers(s,z): link from sensor to zone
     is up. Dark(z): zone z has no independent backup. The "blackout"
     event: some sensor is broken, its link to some zone is up... we use
     the H0 shape: ∃s∃z Broken(s) ∧ Covers(s,z) ∧ Dark(z). *)
  let n = 7 in
  let db =
    Gen.random_tid ~seed:2026 ~domain_size:n
      [ Gen.spec ~density:1.0 "Broken" 1;
        Gen.spec ~density:0.8 "Covers" 2;
        Gen.spec ~density:1.0 "Dark" 1 ]
  in
  let blackout =
    L.Parser.parse_sentence "exists s z. Broken(s) && Covers(s,z) && Dark(z)"
  in
  Format.printf "%d sensors/zones, %d uncertain tuples@.@." n (Core.Tid.support_size db);

  (* The engine: lifted inference refuses (the query is non-hierarchical,
     hence #P-hard), grounded compilation answers exactly at this size. *)
  let a = Result.get_ok (E.eval db blackout) in
  Format.printf "p(blackout risk) = %a@.@." Answer.pp a;

  (* Plan bounds (Thm. 6.1): instant, any scale. *)
  (match L.Ucq.of_sentence blackout with
  | [ cq ], L.Ucq.Direct ->
      let b = P.Bounds.bracket db cq in
      Format.printf "plan bounds: %.6f ≤ p ≤ %.6f (%d plans, no inference needed)@."
        b.P.Bounds.lower b.P.Bounds.upper b.P.Bounds.plans_tried
  | _ -> ());

  (* Karp-Luby sampling: scales to sizes where exact methods die. *)
  let big =
    Gen.random_tid ~seed:2027 ~domain_size:40
      [ Gen.spec ~density:1.0 "Broken" 1;
        Gen.spec ~density:0.8 "Covers" 2;
        Gen.spec ~density:1.0 "Dark" 1 ]
  in
  let config =
    { E.default_config with
      E.strategies = [ E.Karp_luby ]; E.kl_samples = 50_000 }
  in
  let a_big = Result.get_ok (E.eval ~config big blackout) in
  Format.printf "@.at n = 40 (%d tuples), sampling takes over:@  %a@.@."
    (Core.Tid.support_size big) Answer.pp a_big;

  (* Fleet design: if every sensor/link/zone were identical (a symmetric
     database, Sec. 8), coverage probability has a polynomial closed form —
     evaluate it across fleet sizes to pick a deployment. *)
  Format.printf "fleet design with identical components (symmetric closed form):@.";
  Format.printf "  %-6s %-12s@." "n" "p(no blackout)";
  List.iter
    (fun n ->
      (* no blackout = ∀s∀z ¬Broken ∨ ¬Covers ∨ ¬Dark; by symmetry of the
         closed form this is H0 with complemented probabilities *)
      let p = Sym.Closed_forms.h0 ~n ~p_r:(1. -. 0.1) ~p_s:(1. -. 0.8) ~p_t:(1. -. 0.3) in
      Format.printf "  %-6d %.6f@." n p)
    [ 5; 10; 20; 50; 100 ];
  Format.printf
    "@.(10%%-broken sensors, 80%%-up links, 30%%-dark zones; Sec. 8's O(n²) sum —@.\
     the same query that is #P-hard on the asymmetric fleet above)@."
