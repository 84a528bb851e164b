(* Shared helpers for the test suites. *)

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The answer of [Engine.eval]; a typed error fails the test with its
   rendering. *)
let eval ?config ?stats db q =
  match Probdb_engine.Engine.eval ?config ?stats db q with
  | Ok a -> a
  | Error e -> Alcotest.failf "Engine.eval: %s" (Probdb_core.Probdb_error.render e)

(* Whether [s] was tried and skipped (or tripped) before the answer. *)
let in_chain (a : Probdb_engine.Answer.t) s =
  List.exists
    (fun step ->
      Probdb_engine.Answer.step_strategy step = Probdb_engine.Engine.strategy_name s)
    a.Probdb_engine.Answer.chain

(* The TID of Fig. 1(a) of the paper: R(x) with p1..p3, S(x,y) with q1..q6. *)
let fig1_probs =
  ([ 0.5; 0.6; 0.7 ], [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ])

let fig1_tid () =
  let open Probdb_core in
  let p, q = fig1_probs in
  let a i = Value.Str (Printf.sprintf "a%d" i) in
  let b i = Value.Str (Printf.sprintf "b%d" i) in
  let r =
    Relation.make (Schema.make "R" [ "x" ])
      (List.mapi (fun i p -> ([ a (i + 1) ], p)) p)
  in
  let s_tuples = [ (1, 1); (1, 2); (2, 3); (2, 4); (2, 5); (4, 6) ] in
  let s =
    Relation.make (Schema.make "S" [ "x"; "y" ])
      (List.map2 (fun (x, y) q -> ([ a x; b y ], q)) s_tuples q)
  in
  Tid.make [ r; s ]

(* The closed-form probability of Example 2.1 for the Fig. 1 database. *)
let example_2_1_expected () =
  let p, q = fig1_probs in
  let p1, p2, _p3 = (List.nth p 0, List.nth p 1, List.nth p 2) in
  let q1, q2, q3, q4, q5, q6 =
    ( List.nth q 0, List.nth q 1, List.nth q 2, List.nth q 3, List.nth q 4,
      List.nth q 5 )
  in
  (p1 +. ((1. -. p1) *. (1. -. q1) *. (1. -. q2)))
  *. (p2 +. ((1. -. p2) *. (1. -. q3) *. (1. -. q4) *. (1. -. q5)))
  *. (1. -. q6)
