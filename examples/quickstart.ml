(* Quickstart: build a tuple-independent database, ask Boolean and
   non-Boolean queries, and look at what the engine did.

   Run with: dune exec examples/quickstart.exe *)

module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer

let () =
  (* A TID is a set of relations whose tuples carry marginal probabilities
     (Fig. 1 of the paper). Here: people who *may* be researchers, and
     papers they *may* have authored. *)
  let person name = Core.Value.str name in
  let paper id = Core.Value.int id in
  let researcher =
    Core.Relation.make
      (Core.Schema.make "Researcher" [ "who" ])
      [ ([ person "ada" ], 0.9); ([ person "bob" ], 0.4); ([ person "cam" ], 0.75) ]
  in
  let author =
    Core.Relation.make
      (Core.Schema.make "Author" [ "who"; "paper" ])
      [
        ([ person "ada"; paper 1 ], 0.8);
        ([ person "ada"; paper 2 ], 0.6);
        ([ person "bob"; paper 2 ], 0.5);
        ([ person "cam"; paper 3 ], 0.3);
      ]
  in
  let db = Core.Tid.make [ researcher; author ] in
  Format.printf "Database:@.%a@.@." Core.Tid.pp db;

  (* Boolean query: is some paper authored by a researcher? The concrete
     syntax is plain FO; quantified identifiers are variables. *)
  let q = L.Parser.parse_sentence "exists x y. Researcher(x) && Author(x,y)" in
  let answer = Result.get_ok (E.eval db q) in
  Format.printf "p(%a) =@.  %a@.@." L.Fo.pp q Answer.pp answer;

  (* The query is hierarchical, so the engine used lifted inference: exact
     and polynomial-time. Compare with exhaustive enumeration: *)
  Format.printf "world enumeration agrees: %.9f@.@." (L.Brute_force.probability db q);

  (* Non-Boolean query: for each person, the probability that they are a
     researcher with at least one paper. *)
  let open_q = L.Parser.parse ~free:[ "x" ] "exists y. Researcher(x) && Author(x,y)" in
  Format.printf "Per-person marginals:@.";
  List.iter
    (fun (binding, (a : Answer.t)) ->
      Format.printf "  %s : %.6f (via %s)@."
        (String.concat ", " (List.map Core.Value.to_string binding))
        a.Answer.value a.Answer.strategy)
    (E.answers ~free:[ "x" ] db open_q);

  (* A constraint-style query (Example 2.1): every authored paper has a
     researcher author — a universally quantified sentence. *)
  let constr = L.Parser.parse_sentence "forall x y. Author(x,y) => Researcher(x)" in
  Format.printf "@.p(every author is a researcher) = %.6f@." (E.probability db constr)
