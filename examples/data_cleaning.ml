(* Data cleaning / deduplication (one of the motivating applications in the
   paper's introduction, citing ProbClean): a matcher has produced uncertain
   "same-entity" links between customer records; we query the probabilistic
   database that the links induce.

   Run with: dune exec examples/data_cleaning.exe *)

module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module P = Probdb_plans

let v = Core.Value.str

let () =
  (* Customer records from two source systems. Deterministic facts are
     tuples with probability 1. *)
  let record =
    Core.Relation.make
      (Core.Schema.make "Record" [ "id" ])
      (List.map (fun r -> ([ v r ], 1.0))
         [ "crm_17"; "crm_42"; "web_03"; "web_11"; "web_29" ])
  in
  (* The matcher's output: pairs of records that may denote the same
     customer, with its confidence as the tuple probability. *)
  let same_as =
    Core.Relation.make
      (Core.Schema.make "SameAs" [ "a"; "b" ])
      [
        ([ v "crm_17"; v "web_03" ], 0.92);
        ([ v "crm_17"; v "web_11" ], 0.15);
        ([ v "crm_42"; v "web_11" ], 0.87);
        ([ v "crm_42"; v "web_29" ], 0.45);
        ([ v "web_03"; v "web_11" ], 0.08);
      ]
  in
  (* Records flagged as VIP customers in either system, also uncertain
     (they came from a fuzzy attribute match). *)
  let vip =
    Core.Relation.make
      (Core.Schema.make "Vip" [ "id" ])
      [ ([ v "crm_17" ], 0.95); ([ v "web_29" ], 0.6) ]
  in
  (* Records with recent activity, from a noisy log join. *)
  let active =
    Core.Relation.make
      (Core.Schema.make "Active" [ "id" ])
      [ ([ v "web_03" ], 0.7); ([ v "web_11" ], 0.55); ([ v "web_29" ], 0.8) ]
  in
  let db = Core.Tid.make [ record; same_as; vip; active ] in

  Format.printf "== Deduplication under uncertainty ==@.@.";

  (* Q1: is there any duplicate at all? (Safe: single atom.) *)
  let q1 = L.Parser.parse_sentence "exists a b. SameAs(a,b)" in
  Format.printf "p(some duplicate exists)          = %.6f@." (E.probability db q1);

  (* Q2: is some VIP involved in a duplicate? Hierarchical join: the engine
     answers by lifted inference. *)
  let q2 = L.Parser.parse_sentence "exists a b. Vip(a) && SameAs(a,b)" in
  let a2 = Result.get_ok (E.eval db q2) in
  Format.printf "p(a VIP has a duplicate)          = %.6f  [%s]@."
    a2.Answer.value a2.Answer.strategy;

  (* Q3: per-record probability of being duplicated — a non-Boolean query. *)
  Format.printf "@.per-record duplication marginals:@.";
  let q3 = L.Parser.parse ~free:[ "a" ] "exists b. SameAs(a,b) || SameAs(b,a)" in
  List.iter
    (fun (binding, (a : Answer.t)) ->
      Format.printf "  %-8s %.6f@."
        (Core.Value.to_string (List.hd binding))
        a.Answer.value)
    (E.answers ~free:[ "a" ] db q3);

  (* Q4: a *hard* query — a VIP record linked to a recently-active record.
     This is H0-shaped (non-hierarchical), hence #P-hard: lifted inference
     refuses, the engine answers exactly by grounded compilation, and the
     Sec. 6 plan bounds bracket it with no inference at all. *)
  let q4 = L.Parser.parse_sentence "exists a b. Vip(a) && SameAs(a,b) && Active(b)" in
  let a4 = Result.get_ok (E.eval db q4) in
  Format.printf "@.p(VIP linked to an active record) = %.6f  [%s]@."
    a4.Answer.value a4.Answer.strategy;
  (match L.Ucq.of_sentence q4 with
  | [ cq ], L.Ucq.Direct ->
      let b = P.Bounds.bracket db cq in
      Format.printf "  plan bounds (Thm 6.1): [%.6f, %.6f] over %d plans@."
        b.P.Bounds.lower b.P.Bounds.upper b.P.Bounds.plans_tried
  | _ -> ());

  (* Q5: a cleanliness constraint — no record matches two distinct CRM
     records. How likely is the matcher's output to be consistent? *)
  let q5 =
    L.Parser.parse_sentence
      "forall a b. SameAs(a,b) && SameAs(b,a) => Vip(a)"
  in
  Format.printf "@.p(symmetric links only among VIPs) = %.6f@." (E.probability db q5)
