(* E12 — whole-engine ablation: every strategy on every query, with the
   dispatcher's choice highlighted. This is the survey's "who wins where"
   in one table. *)

module Core = Probdb_core
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Err = Probdb_core.Probdb_error
module Gen = Probdb_workload.Gen
module Q = Probdb_workload.Queries

let strategies =
  [ E.Lifted; E.Safe_plan; E.Read_once; E.Obdd; E.Dpll; E.Karp_luby; E.World_enum ]

let db_for q ~n =
  let specs =
    List.map (fun (name, arity) -> Gen.spec ~density:0.8 name arity) (L.Fo.relations q)
  in
  Gen.random_tid ~seed:23 ~domain_size:n specs

let cell db q s =
  let config =
    { E.default_config with
      E.strategies = [ s ]; E.kl_samples = 30_000; E.degrade = None }
  in
  let refused reason =
    let short = if String.length reason > 18 then String.sub reason 0 18 ^ "…" else reason in
    "✗ " ^ short
  in
  match Common.time (fun () -> E.eval ~config db q) with
  | Ok a, dt ->
      let mark = if a.Answer.exact then "" else "~" in
      Printf.sprintf "%s%.4f %s" mark a.Answer.value (Common.pretty_time dt)
  | Error (Err.No_method ((_, reason) :: _)), _ -> refused reason
  | Error (Err.Exhausted { detail; _ }), _ -> refused detail
  | Error _, _ -> "✗"

let matrix () =
  Common.section "per-strategy results (value + time; ~ marks sampling; ✗ = method refuses)";
  let queries =
    [ (Q.q_hier, 4); (Q.q_j, 3); (Q.q_w, 2); (Q.h0, 3); (Q.self_join_symmetric, 3) ]
  in
  let rows =
    List.map
      (fun ((e : Q.entry), n) ->
        let db = db_for e.Q.query ~n in
        e.Q.name :: List.map (cell db e.Q.query) strategies)
      queries
  in
  Common.table (("query" :: List.map E.strategy_name strategies) :: rows)

let dispatcher () =
  Common.section "dispatcher choices (default configuration)";
  let queries = [ (Q.q_hier, 4); (Q.q_j, 3); (Q.q_w, 2); (Q.h0, 3); (Q.self_join_symmetric, 3) ] in
  let rows =
    List.map
      (fun ((e : Q.entry), n) ->
        let db = db_for e.Q.query ~n in
        match E.eval db e.Q.query with
        | Ok a ->
            [ e.Q.name;
              a.Answer.strategy;
              Common.f6 a.Answer.value;
              String.concat "; " (List.map Answer.step_strategy a.Answer.chain) ]
        | Error err -> [ e.Q.name; "✗ " ^ Err.render err; ""; "" ])
      queries
  in
  Common.table ([ "query"; "answered by"; "value"; "skipped" ] :: rows)

(* The cost of the probes themselves: the same auto-dispatched query with
   tracing off (the default — every probe is one atomic load) and on. The
   disabled number is the one that matters for production; docs/PERF.md
   records it. *)
let tracing_overhead () =
  Common.section "tracing overhead (engine-auto on q_j, per-query medians)";
  let db = db_for Q.q_j.Q.query ~n:3 in
  let q = Q.q_j.Q.query in
  let reps = 100 in
  let batch () =
    for _ = 1 to reps do
      ignore (E.probability db q)
    done
  in
  let off = Common.timed ~repeat:5 batch /. float_of_int reps in
  Probdb_obs.Trace.enable ();
  let on_ = Common.timed ~repeat:5 batch /. float_of_int reps in
  Probdb_obs.Trace.disable ();
  Probdb_obs.Trace.clear ();
  Common.table
    [ [ "tracing"; "time/query"; "overhead" ];
      [ "disabled"; Common.pretty_time off; "-" ];
      [ "enabled"; Common.pretty_time on_;
        Printf.sprintf "%+.1f%%" (100.0 *. ((on_ /. off) -. 1.0)) ] ]

let run () =
  Common.header "E12: engine ablation — every method on every query";
  matrix ();
  dispatcher ();
  tracing_overhead ()

let bechamel_tests =
  let db = db_for Q.q_j.Q.query ~n:3 in
  [
    Bechamel.Test.make ~name:"e12/engine-auto-qj"
      (Bechamel.Staged.stage (fun () -> E.probability db Q.q_j.Q.query));
  ]
