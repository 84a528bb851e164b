(* The probdb command-line interface.

   A TID lives on disk as a directory of CSV files (one per relation, rows
   are "v1,...,vk,probability") or as a packed binary container (.pdb,
   written by `probdb pack`, opened via mmap in O(header) time). Every
   --db flag accepts either form. Queries are first-order sentences in
   the concrete syntax of Probdb_logic.Parser.

     probdb eval     --db data/ --stats "exists x y. R(x) && S(x,y)"
     probdb explain  --db data/ "exists x y. R(x) && S(x,y)"
     probdb prepare  "exists x y. R(x) && S(x,y) && T('a',y)"
     probdb classify "forall x y. R(x) || S(x,y) || T(y)"
     probdb plan     --db data/ "exists x y. R(x) && S(x,y) && T(y)"
     probdb lineage  --db data/ "exists x y. R(x) && S(x,y)"
     probdb compile  --db data/ "exists x y. R(x) && S(x,y)"
     probdb pack     data/ data.pdb
     probdb serve    --db data.pdb
     probdb gen      --out data/ --domain 10 R:1:0.5 S:2:0.3 *)

open Cmdliner

module Core = Probdb_core
module Err = Probdb_core.Probdb_error
module L = Probdb_logic
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Lift = Probdb_lifted.Lift
module Lineage = Probdb_lineage.Lineage
module P = Probdb_plans
module Obs = Probdb_obs
module Stats = Probdb_obs.Stats
module Prepare = Probdb_prepare.Prepare
module Serve = Probdb_serve.Serve
module Top = Probdb_serve.Top
module Serve_client = Probdb_serve.Client
module Storage = Probdb_storage.Storage

let query_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc:"The query sentence.")

(* A plain string, not [Arg.dir]: a missing path must reach the typed
   I/O error path (exit 2), not cmdliner's generic CLI error. *)
let db_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "db" ] ~docv:"DB"
        ~doc:
          "The TID: a directory of CSV relations (one file per relation) or \
           a packed container written by $(b,probdb pack) (opened via mmap \
           in O(header) time; the format is sniffed).")

let free_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "free" ] ~docv:"VARS" ~doc:"Comma-separated free variables of a non-Boolean query.")

(* Usage-class failure: rendered by the top-level handler, exit code 5. *)
let fail fmt = Printf.ksprintf (fun s -> Err.raise_ (Err.Usage { message = s })) fmt

let with_query ?(free = []) text k =
  match L.Parser.parse ~free text with
  | q -> k q
  | exception L.Parser.Error msg -> Err.raise_ (Err.Parse { message = msg })

(* Typed [Io]/[Csv] errors propagate to the top-level handler. *)
let with_db path k = k (Core.Csv_io.load_any path)

(* When the TID came from a packed container, record what opening and
   evaluating actually cost against the mapped file. *)
let record_storage db (stats : Stats.t) =
  match Storage.backing db with
  | None -> ()
  | Some st ->
      stats.Stats.storage <-
        Some
          { Stats.st_path = Storage.path st;
            st_file_bytes = Storage.file_size st;
            st_open_s = Storage.open_seconds st;
            st_bytes_mapped = Storage.bytes_mapped st;
            st_cols_mapped = Storage.cols_mapped st;
            st_rels_materialized = Storage.relations_materialized st }

(* ---------- eval ---------- *)

let strategy_conv =
  let parse = function
    | "auto" -> Ok None
    | s -> (
        match E.strategy_of_name s with
        | Some strategy -> Ok (Some strategy)
        | None -> Error (`Msg (Printf.sprintf "unknown method %S" s)))
  in
  Arg.conv (parse, fun ppf m ->
      Format.pp_print_string ppf
        (match m with None -> "auto" | Some s -> E.strategy_name s))

let method_arg =
  Arg.(
    value
    & opt strategy_conv None
    & info [ "method" ] ~docv:"METHOD"
        ~doc:
          "One of auto, lifted, symmetric, safe-plan, read-once, wmc, obdd, \
           dpll, karp-luby, world-enum. ($(b,wmc) is the clause-database \
           counter; explicitly selected it clausifies non-CNF lineage.)")

let samples_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "samples" ] ~docv:"N"
        ~doc:
          "Sample budget for karp-luby (default 100000 as a strategy, 20000 \
           as the degraded fallback).")

let deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock deadline for exact inference, in milliseconds. When it \
           trips, the engine degrades to the (eps,delta)-approximation.")

let eps_arg =
  Arg.(
    value
    & opt float 0.1
    & info [ "eps" ] ~docv:"EPS"
        ~doc:"Relative error target of the degraded approximation.")

let delta_arg =
  Arg.(
    value
    & opt float 0.05
    & info [ "delta" ] ~docv:"DELTA"
        ~doc:"Failure probability of the degraded approximation.")

let no_degrade_arg =
  Arg.(
    value & flag
    & info [ "no-degrade" ]
        ~doc:
          "Fail (exit 6 or 7) instead of degrading to the \
           (eps,delta)-approximation when exact inference is exhausted.")

let max_ie_terms_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-ie-terms" ] ~docv:"N"
        ~doc:"Budget on lifted inclusion-exclusion terms.")

let max_plan_rows_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-plan-rows" ] ~docv:"N"
        ~doc:"Budget on intermediate plan rows.")

let domains_arg =
  Arg.(
    value
    & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "OCaml domains for parallel evaluation (default 1, sequential). \
           Above 1, lifted inference forks independent branches and \
           karp-luby samples in parallel batches; sampling results are \
           identical for a given --seed at any domain count.")

let no_plan_cache_arg =
  Arg.(
    value & flag
    & info [ "no-plan-cache" ]
        ~doc:
          "Run the prepared pipeline without retaining compiled plans (a \
           capacity-0 cache): every evaluation re-prepares from scratch. The \
           pipeline is identical either way, so answers never change — only \
           the prepare timings do. Setting $(b,PROBDB_NO_PLAN_CACHE) in the \
           environment does the same.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Trace lifted-inference rule applications.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print per-query statistics (phase timings, rule counts, circuit sizes).")

let stats_json_arg =
  Arg.(
    value & flag
    & info [ "stats-json" ]
        ~doc:"Emit the per-query statistics as JSON on stdout (schema: docs/STATS.md).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record an event trace of the evaluation and write it to $(docv) \
           as Chrome trace_event JSON (open in Perfetto or chrome://tracing; \
           schema: docs/TRACING.md).")

let metrics_json_arg =
  Arg.(
    value & flag
    & info [ "metrics-json" ]
        ~doc:
          "After the evaluation, emit the process-wide metrics registry \
           (counters, gauges, histograms) as JSON on stdout.")

let setup_verbose verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Lift.log_src (Some Logs.Debug)
  end

(* Parse into the stats record so [--stats] reports parse time too. *)
let with_timed_query stats ?(free = []) text k =
  match Stats.time_phase stats Stats.Parse (fun () -> L.Parser.parse ~free text) with
  | q -> k q
  | exception L.Parser.Error msg -> Err.raise_ (Err.Parse { message = msg })

let print_stats_json stats = print_endline (Obs.Json.to_string ~pretty:true (Stats.to_json stats))

let config_of_cli meth samples deadline_ms eps delta no_degrade max_ie_terms
    max_plan_rows domains =
  let default_fallback_samples =
    match E.default_config.E.degrade with Some d -> d.E.max_samples | None -> 20_000
  in
  let base =
    { E.default_config with
      E.kl_samples = Option.value samples ~default:E.default_config.E.kl_samples }
  in
  let base = match meth with None -> base | Some s -> { base with E.strategies = [ s ] } in
  let degrade =
    (* An explicit --method karp-luby runs sampling as the strategy itself,
       not as a degradation. *)
    if no_degrade || meth = Some E.Karp_luby then None
    else
      Some
        { E.eps;
          delta;
          max_samples = Option.value samples ~default:default_fallback_samples }
  in
  { base with
    E.deadline_s = Option.map (fun ms -> float_of_int ms /. 1000.0) deadline_ms;
    max_ie_terms;
    max_plan_rows;
    degrade;
    domains = max 1 domains }

let eval_run db_dir text free meth samples deadline_ms eps delta no_degrade
    max_ie_terms max_plan_rows domains no_plan_cache verbose show_stats
    stats_json trace_file metrics_json =
  setup_verbose verbose;
  if trace_file <> None then Obs.Trace.enable ();
  (* The trace file is written also when the evaluation raises — a trace of
     the failing run is exactly what one wants to look at. *)
  Fun.protect
    ~finally:(fun () ->
      match trace_file with
      | Some path ->
          Obs.Trace.disable ();
          (* typed Io error (exit 2) on an unwritable path, not a raw
             [Sys_error] escaping through [Fun.Finally_raised] *)
          Err.guard_io ~path (fun () -> Obs.Trace.write path)
      | None -> ())
  @@ fun () ->
  Obs.Trace.with_span ~cat:"engine" "probdb.eval" @@ fun () ->
  with_db db_dir @@ fun db ->
  let stats = Stats.create () in
  stats.Stats.query <- Some text;
  with_timed_query stats ~free text @@ fun q ->
  (* the prepared pipeline always runs; [--no-plan-cache] only drops
     retention (capacity 0), so a non-Boolean query's groundings share one
     cached artifact unless caching is off *)
  let plan_cache =
    if no_plan_cache then Prepare.Cache.create ~capacity:0 ()
    else Prepare.Cache.create_default ()
  in
  let config =
    { (config_of_cli meth samples deadline_ms eps delta no_degrade max_ie_terms
         max_plan_rows domains)
      with E.plan_cache = Some plan_cache }
  in
  let finish () =
    if metrics_json then
      print_endline (Obs.Json.to_string ~pretty:true (Obs.Metrics.to_json ()));
    `Ok ()
  in
  match free with
  | [] -> (
      match E.eval ~config ~stats db q with
      | Ok a ->
          record_storage db a.Answer.stats;
          if stats_json then print_stats_json a.Answer.stats
          else begin
            Format.printf "%a@." Answer.pp a;
            if show_stats then Format.printf "%a" Stats.pp a.Answer.stats
          end;
          finish ()
      | Error e -> Err.raise_ e)
  | _ ->
      let answers = E.answers ~config ~free db q in
      List.iter (fun (_, (a : Answer.t)) -> record_storage db a.Answer.stats) answers;
      if stats_json then
        print_endline
          (Obs.Json.to_string ~pretty:true
             (Obs.Json.Obj
                [ ("query", Obs.Json.Str text);
                  ( "bindings",
                    Obs.Json.List
                      (List.map
                         (fun (binding, (a : Answer.t)) ->
                           Obs.Json.Obj
                             [ ( "binding",
                                 Obs.Json.List
                                   (List.map
                                      (fun v -> Obs.Json.Str (Core.Value.to_string v))
                                      binding) );
                               ("stats", Stats.to_json a.Answer.stats) ])
                         answers) ) ]))
      else
        List.iter
          (fun (binding, (a : Answer.t)) ->
            Format.printf "%s -> %a@."
              (String.concat ", " (List.map Core.Value.to_string binding))
              Answer.pp a;
            if show_stats then Format.printf "%a" Stats.pp a.Answer.stats)
          answers;
      finish ()

let eval_cmd =
  let term =
    Term.(
      ret
        (const eval_run $ db_arg $ query_arg $ free_arg $ method_arg $ samples_arg
       $ deadline_arg $ eps_arg $ delta_arg $ no_degrade_arg $ max_ie_terms_arg
       $ max_plan_rows_arg $ domains_arg $ no_plan_cache_arg $ verbose_arg
       $ stats_arg $ stats_json_arg $ trace_arg $ metrics_json_arg))
  in
  Cmd.v (Cmd.info "eval" ~doc:"Evaluate a query's probability on a TID.") term

(* ---------- explain ---------- *)

(* A Logs reporter that appends every rendered message to a list — used to
   capture the lifted-inference derivation trace for [probdb explain]. *)
let capture_reporter out =
  { Logs.report =
      (fun _src _level ~over k msgf ->
        msgf (fun ?header:_ ?tags:_ fmt ->
            Format.kasprintf
              (fun s ->
                out s;
                over ();
                k ())
              fmt)) }

let explain_run db_dir text deadline_ms eps delta no_degrade =
  with_db db_dir @@ fun db ->
  let stats = Stats.create () in
  stats.Stats.query <- Some text;
  with_timed_query stats text @@ fun q ->
  Format.printf "query:     %a@." L.Fo.pp q;
  (match L.Ucq.of_sentence q with
  | ucq, mode ->
      Format.printf "UCQ form:  %a (%s)@." L.Ucq.pp ucq
        (match mode with L.Ucq.Direct -> "direct" | L.Ucq.Complemented -> "complemented")
  | exception L.Ucq.Unsupported msg ->
      Format.printf "UCQ form:  outside the unate fragment (%s)@." msg);
  let verdict, _ =
    Stats.time_phase stats Stats.Classify (fun () -> (Lift.classify q, ()))
  in
  Format.printf "safety:    %a@." Lift.pp_verdict verdict;
  (* run the engine while capturing the lifted derivation *)
  let trace = ref [] in
  let saved_reporter = Logs.reporter () in
  Logs.set_reporter (capture_reporter (fun s -> trace := s :: !trace));
  Logs.Src.set_level Lift.log_src (Some Logs.Debug);
  let config = config_of_cli None None deadline_ms eps delta no_degrade None None 1 in
  let result = E.eval ~config ~stats db q in
  Logs.Src.set_level Lift.log_src None;
  Logs.set_reporter saved_reporter;
  match result with
  | Error e -> Err.raise_ e
  | Ok a ->
      Format.printf "strategy:  %s%s@." a.Answer.strategy
        (if a.Answer.degraded then " (degraded from exact inference)" else "");
      (match a.Answer.confidence with
      | Some c ->
          Format.printf "answer:    %.9g in [%.9g, %.9g] at confidence %g (%d samples)@."
            a.Answer.value c.Answer.ci_low c.Answer.ci_high (1.0 -. c.Answer.delta)
            c.Answer.samples
      | None ->
          Format.printf "answer:    %.9g%s%s@." a.Answer.value
            (if a.Answer.exact then " (exact)" else "")
            (match a.Answer.stats.Stats.std_error with
            | Some e when not a.Answer.exact ->
                Printf.sprintf " (±%.2g at 95%%)" (1.96 *. e)
            | _ -> ""));
      List.iter
        (fun step -> Format.printf "chain:     %a@." Answer.pp_step step)
        a.Answer.chain;
      let derivation = List.rev !trace in
      if derivation <> [] then begin
        Format.printf "@.lifted-rule derivation:@.";
        List.iter (fun line -> Format.printf "  %s@." line) derivation
      end;
      (* for safe plans, show the plan itself *)
      (if String.equal a.Answer.strategy (E.strategy_name E.Safe_plan) then
         match L.Ucq.of_sentence q with
         | ucq, L.Ucq.Direct -> (
             match L.Ucq.minimize ucq with
             | [ cq ] -> (
                 match P.Plan.safe_plan cq with
                 | Some plan -> Format.printf "@.safe plan: %s@." (P.Plan.to_string plan)
                 | None -> ())
             | _ -> ())
         | _ | (exception L.Ucq.Unsupported _) -> ());
      (match a.Answer.stats.Stats.circuit with
      | Some c ->
          Format.printf "@.compiled circuit: %s, %d nodes, %d edges@."
            c.Stats.circuit_class c.Stats.nodes c.Stats.edges
      | None -> ());
      Format.printf "@.--- stats ---@.%a" Stats.pp a.Answer.stats;
      `Ok ()

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Explain how a query is evaluated: strategy choice, the degradation \
          chain (skips and resource trips), the lifted-rule derivation trace, \
          the safe plan or compiled-circuit size, and per-phase timings.")
    Term.(
      ret
        (const explain_run $ db_arg $ query_arg $ deadline_arg $ eps_arg $ delta_arg
       $ no_degrade_arg))

(* ---------- prepare ---------- *)

let prepare_run text free =
  with_query ~free text @@ fun q ->
  let key, params = Prepare.key_of_query q in
  Format.printf "key:        %s@." key;
  Format.printf "parameters: %d%s@." (Array.length params)
    (if Array.length params = 0 then ""
     else
       Printf.sprintf " (%s)"
         (String.concat ", "
            (List.map Core.Value.to_string (Array.to_list params))));
  if not (L.Fo.is_sentence q) then begin
    (* open formulas are evaluated per grounding ([--free]); each grounding
       binds different constants into the same structural key, so one
       cached artifact serves all of them *)
    Format.printf
      "open formula: prepared per grounding at execution; every grounding \
       shares the artifact cached under this key@.";
    `Ok ()
  end
  else begin
    let b = Prepare.prepare q in
    let a = b.Prepare.artifact in
    (match Prepare.bind_ucq b with
    | Ok (ucq, mode) ->
        Format.printf "UCQ form:   %a (%s)@." L.Ucq.pp ucq
          (match mode with
          | L.Ucq.Direct -> "direct"
          | L.Ucq.Complemented -> "complemented")
    | Error msg -> Format.printf "UCQ form:   outside the unate fragment (%s)@." msg);
    (* verdict details mention template constants; render the internal
       NUL-prefixed parameter markers as the $i of the key *)
    let verdict_s =
      let s = Format.asprintf "%a" Lift.pp_verdict a.Prepare.verdict in
      let b = Buffer.create (String.length s) in
      String.iteri
        (fun i c ->
          if c = '\x00' then begin
            if i + 1 < String.length s && s.[i + 1] = 'p' then
              Buffer.add_char b '$'
          end
          else if not (c = 'p' && i > 0 && s.[i - 1] = '\x00') then
            Buffer.add_char b c)
        s;
      Buffer.contents b
    in
    Format.printf "safety:     %s@." verdict_s;
    (match Prepare.bind_plan b with
    | Some plan ->
        Format.printf "safe plan:  %s@." (P.Plan.to_string plan);
        Format.printf
          "execution:  warm cache hits promote safe-plan to the front and \
           run this plan directly (parse/classify/plan read ~0)@."
    | None ->
        Format.printf "safe plan:  none cached (%s)@."
          (Option.value a.Prepare.plan_skip ~default:"not a single CQ"));
    `Ok ()
  end

let prepare_cmd =
  Cmd.v
    (Cmd.info "prepare"
       ~doc:
         "Show what the prepare/execute split caches for a query: the \
          structural key (constants lifted to \\$i parameters), the \
          parameter binding, the cached UCQ form, the safety verdict, and \
          the compiled template plan (if any). The same key is what \
          $(b,probdb eval) and $(b,probdb serve) share plans under.")
    Term.(ret (const prepare_run $ query_arg $ free_arg))

(* ---------- classify ---------- *)

let classify_run text =
  with_query text @@ fun q ->
  Format.printf "query: %a@." L.Fo.pp q;
  Format.printf "monotone: %b, unate: %b@." (L.Fo.is_monotone q) (L.Fo.is_unate q);
  (match L.Ucq.of_sentence q with
  | ucq, mode ->
      Format.printf "UCQ form (%s): %a@."
        (match mode with L.Ucq.Direct -> "direct" | L.Ucq.Complemented -> "complemented")
        L.Ucq.pp ucq;
      (match L.Ucq.minimize ucq with
      | [ cq ] when L.Cq.is_self_join_free cq ->
          Format.printf "single self-join-free CQ: %s (Thm 4.3)@."
            (if L.Cq.is_hierarchical cq then "hierarchical => PTIME"
             else "non-hierarchical => #P-hard")
      | _ -> ())
  | exception L.Ucq.Unsupported msg -> Format.printf "outside the unate fragment: %s@." msg);
  Format.printf "lifted rules: %a@." Lift.pp_verdict (Lift.classify q);
  Format.printf "basic rules only: %a@." Lift.pp_verdict
    (Lift.classify ~config:Lift.basic_rules_only q);
  `Ok ()

let classify_cmd =
  Cmd.v
    (Cmd.info "classify" ~doc:"Report the data complexity of a query (dichotomy).")
    Term.(ret (const classify_run $ query_arg))

(* ---------- plan ---------- *)

let plan_run db_dir text =
  with_db db_dir @@ fun db ->
  with_query text @@ fun q ->
  match L.Ucq.of_sentence q with
  | exception L.Ucq.Unsupported msg -> fail "not a UCQ: %s" msg
  | ucq, mode -> (
      if mode = L.Ucq.Complemented then fail "plans need an existential query"
      else
        match L.Ucq.minimize ucq with
        | [ cq ] when L.Cq.is_self_join_free cq ->
            (match P.Plan.safe_plan cq with
            | Some plan ->
                Format.printf "safe plan: %s@." (P.Plan.to_string plan);
                Format.printf "p(Q) = %.9g (exact)@." (P.Plan.boolean_prob db plan)
            | None ->
                Format.printf "no safe plan (query is not hierarchical)@.";
                let b = P.Bounds.bracket db cq in
                Format.printf "bounds over %d plans (Thm 6.1): %.9g <= p(Q) <= %.9g@."
                  b.P.Bounds.plans_tried b.P.Bounds.lower b.P.Bounds.upper;
                List.iter
                  (fun plan ->
                    Format.printf "  %-50s value %.9g%s@." (P.Plan.to_string plan)
                      (P.Plan.boolean_prob db plan)
                      (if P.Plan.is_safe plan then " (safe)" else ""))
                  (P.Plan.enumerate cq));
            `Ok ()
        | _ -> fail "plans support single self-join-free CQs")

let plan_cmd =
  Cmd.v
    (Cmd.info "plan" ~doc:"Show safe plans or Thm 6.1 bounds for a CQ.")
    Term.(ret (const plan_run $ db_arg $ query_arg))

(* ---------- lineage ---------- *)

let dnf_flag =
  Arg.(value & flag & info [ "dnf" ] ~doc:"Print the DNF clauses instead of the formula.")

let lineage_run db_dir text dnf =
  with_db db_dir @@ fun db ->
  with_query text @@ fun q ->
  let ctx = Lineage.create db in
  if dnf then
    match L.Ucq.of_sentence q with
    | exception L.Ucq.Unsupported msg -> fail "not a UCQ: %s" msg
    | ucq, _ ->
        let clauses = Lineage.dnf_of_ucq ctx ucq in
        List.iter
          (fun clause ->
            print_endline
              (String.concat " & "
                 (List.map
                    (fun v -> Probdb_boolean.Var_pool.label (Lineage.pool ctx) v)
                    clause)))
          clauses;
        Printf.printf "(%d clauses)\n" (List.length clauses);
        `Ok ()
  else begin
    let f = Lineage.of_query ctx q in
    let label v = Probdb_boolean.Var_pool.label (Lineage.pool ctx) v in
    Format.printf "%a@." (Probdb_boolean.Formula.pp ~label ()) f;
    Printf.printf "(%d variables, %d nodes)\n"
      (Probdb_boolean.Formula.var_count f)
      (Probdb_boolean.Formula.size f);
    `Ok ()
  end

let lineage_cmd =
  Cmd.v
    (Cmd.info "lineage" ~doc:"Ground a query into its Boolean lineage.")
    Term.(ret (const lineage_run $ db_arg $ query_arg $ dnf_flag))

(* ---------- compile ---------- *)

let compile_run db_dir text =
  with_db db_dir @@ fun db ->
  with_query text @@ fun q ->
  let ctx = Lineage.create db in
  let f = Lineage.of_query ctx q in
  Printf.printf "lineage: %d variables, %d nodes\n"
    (Probdb_boolean.Formula.var_count f) (Probdb_boolean.Formula.size f);
  let m = Probdb_kc.Obdd.manager ~max_nodes:5_000_000 ~order:(Probdb_kc.Obdd.default_order f) () in
  (match Probdb_kc.Obdd.of_formula m f with
  | bdd ->
      Printf.printf "OBDD: %d nodes, wmc = %.9g\n" (Probdb_kc.Obdd.size bdd)
        (Probdb_kc.Obdd.wmc m (Lineage.prob ctx) bdd)
  | exception Probdb_kc.Obdd.Node_limit n -> Printf.printf "OBDD: exceeded %d nodes\n" n);
  let r = Probdb_dpll.Dpll.count ~prob:(Lineage.prob ctx) f in
  Printf.printf
    "decision-DNNF trace: %d nodes (%d decisions, %d cache hits, %d component splits), wmc = %.9g\n"
    r.Probdb_dpll.Dpll.trace_size r.Probdb_dpll.Dpll.stats.Probdb_dpll.Dpll.decisions
    r.Probdb_dpll.Dpll.stats.Probdb_dpll.Dpll.cache_hits
    r.Probdb_dpll.Dpll.stats.Probdb_dpll.Dpll.component_splits r.Probdb_dpll.Dpll.prob;
  `Ok ()

let compile_cmd =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a query's lineage to OBDD and decision-DNNF.")
    Term.(ret (const compile_run $ db_arg $ query_arg))

(* ---------- serve ---------- *)

let host_arg =
  Arg.(
    value
    & opt string Serve.default_config.Serve.host
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address (an IP literal).")

let port_arg =
  Arg.(
    value
    & opt int Serve.default_config.Serve.port
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port; 0 picks an ephemeral port (printed on startup).")

let workers_arg =
  Arg.(
    value
    & opt int Serve.default_config.Serve.workers
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains draining the request queue (engine concurrency).")

let queue_arg =
  Arg.(
    value
    & opt int Serve.default_config.Serve.queue_capacity
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Request-queue bound. A full queue sheds requests with a typed \
           $(b,overloaded) error instead of queueing unboundedly.")

let degrade_above_arg =
  Arg.(
    value
    & opt int Serve.default_config.Serve.degrade_above
    & info [ "degrade-above" ] ~docv:"N"
        ~doc:
          "Queue-depth watermark. A request admitted above it is answered \
           with the certified (eps,delta)-approximation when that is \
           cheaper than exact inference for its query template, as \
           measured on earlier requests; cheaper exact templates stay \
           exact. 0 disables degradation under load.")

let serve_deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Default per-request deadline applied when a request carries none. \
           Queue wait counts against it (admission control).")

let stall_deadline_arg =
  Arg.(
    value
    & opt int Serve.default_config.Serve.worker_stall_deadline_ms
    & info [ "stall-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Worker stall watchdog: a worker busy on one request past this \
           deadline is abandoned (the request answered with a typed \
           $(b,internal) error) and a replacement worker domain is spawned. \
           0 disables the watchdog.")

let chaos_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chaos" ] ~docv:"SEED:RATE[:SITES]"
        ~doc:
          "Arm deterministic fault injection: every named chaos site \
           (accept/read/write faults, worker crashes and stalls, guard \
           trips) fails with probability RATE on a schedule derived from \
           SEED — the same seed and rate replay the same injections \
           (docs/SERVING.md, chaos runbook). An optional comma-separated \
           SITES list restricts injection to those sites. Equivalent to \
           setting $(b,PROBDB_CHAOS).")

let slow_query_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-query-ms" ] ~docv:"MS"
        ~doc:
          "Log requests taking MS milliseconds or longer as NDJSON records \
           (request_id, strategy chain, phase timings, verdict — schema in \
           docs/SERVING.md). 0 logs every request.")

let slow_query_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "slow-query-log" ] ~docv:"PATH"
        ~doc:
          "Append slow-query records to PATH instead of stderr (requires \
           $(b,--slow-query-ms)).")

let openmetrics_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "openmetrics" ] ~docv:"PORT"
        ~doc:
          "Also serve a Prometheus/OpenMetrics text exposition over HTTP on \
           PORT (0 picks an ephemeral port, printed on startup).")

let slo_p99_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slo-p99-ms" ] ~docv:"MS"
        ~doc:
          "p99 latency objective: requests over MS milliseconds count \
           against a 1% miss budget, reported as the rolling \
           $(b,p99_burn_rate) gauge.")

let slo_availability_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slo-availability" ] ~docv:"FRAC"
        ~doc:
          "Availability objective in (0, 1), e.g. 0.999: errors plus shed \
           requests against the failure budget is the rolling \
           $(b,availability_burn_rate) gauge.")

let no_telemetry_arg =
  Arg.(
    value & flag
    & info [ "no-telemetry" ]
        ~doc:
          "Disable windowed metrics and server-side request-id minting \
           (client-supplied request ids still propagate). The overhead \
           bench's baseline.")

let serve_run db_dir host port workers queue degrade_above deadline_ms
    stall_deadline_ms chaos eps delta samples no_plan_cache slow_query_ms
    slow_query_log openmetrics slo_p99_ms slo_availability no_telemetry =
  (match chaos with
  | None -> ()
  | Some s -> (
      match Probdb_chaos.Chaos.parse_cli s with
      | Ok (spec, only) -> Probdb_chaos.Chaos.arm ?only spec
      | Error msg -> fail "--chaos: %s" msg));
  (match slow_query_ms with
  | Some ms when ms < 0.0 -> fail "--slow-query-ms: must be >= 0"
  | _ -> ());
  (match slo_availability with
  | Some a when not (a > 0.0 && a < 1.0) ->
      fail "--slo-availability: must be in (0, 1)"
  | _ -> ());
  (match (slow_query_log, slow_query_ms) with
  | Some _, None -> fail "--slow-query-log requires --slow-query-ms"
  | _ -> ());
  with_db db_dir @@ fun db ->
  let engine =
    let default_fallback_samples =
      match E.default_config.E.degrade with Some d -> d.E.max_samples | None -> 20_000
    in
    { E.default_config with
      E.kl_samples = Option.value samples ~default:E.default_config.E.kl_samples;
      degrade =
        Some
          { E.eps;
            delta;
            max_samples = Option.value samples ~default:default_fallback_samples };
      (* [None] lets [Serve.start] create the shared default-capacity cache
         (honouring PROBDB_NO_PLAN_CACHE); the flag forces capacity 0 *)
      plan_cache =
        (if no_plan_cache then Some (Prepare.Cache.create ~capacity:0 ())
         else None)
    }
  in
  let config =
    { Serve.host;
      port;
      workers;
      queue_capacity = queue;
      degrade_above;
      default_deadline_ms = deadline_ms;
      worker_stall_deadline_ms = stall_deadline_ms;
      engine;
      telemetry = not no_telemetry;
      slow_query_ms;
      slow_query_log;
      openmetrics_port = openmetrics;
      slo_p99_ms;
      slo_availability }
  in
  let server = Serve.start ~config db in
  Printf.printf
    "probdb serve: listening on %s:%d (%d workers, queue %d, degrade above %d)\n%!"
    host (Serve.port server) workers queue degrade_above;
  (match Serve.openmetrics_port server with
  | Some p -> Printf.printf "probdb serve: openmetrics on http://%s:%d/\n%!" host p
  | None -> ());
  (* SIGINT/SIGTERM drain: stop accepting, finish in-flight work, exit 0.
     The handler must not block (it runs on the main thread), so the stop
     itself goes to a fresh thread and [wait] below observes it. *)
  let graceful _ =
    ignore (Thread.create (fun () -> Serve.stop ~mode:`Drain server) ())
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle graceful)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful)
   with Invalid_argument _ | Sys_error _ -> ());
  Serve.wait server;
  `Ok ()

let serve_cmd =
  let term =
    Term.(
      ret
        (const serve_run $ db_arg $ host_arg $ port_arg $ workers_arg $ queue_arg
       $ degrade_above_arg $ serve_deadline_arg $ stall_deadline_arg
       $ chaos_arg $ eps_arg $ delta_arg $ samples_arg $ no_plan_cache_arg
       $ slow_query_ms_arg $ slow_query_log_arg $ openmetrics_arg
       $ slo_p99_ms_arg $ slo_availability_arg $ no_telemetry_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a long-lived concurrent query server: line-delimited JSON over \
          TCP, bounded request queue, degradation then shedding under \
          overload (protocol and operations: docs/SERVING.md).")
    term

(* ---------- top ---------- *)

let top_addr_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"HOST:PORT" ~doc:"Server address, e.g. 127.0.0.1:7433.")

let top_interval_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "interval" ] ~docv:"S" ~doc:"Refresh interval in seconds.")

let top_frames_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "frames" ] ~docv:"N"
        ~doc:"Render N frames then exit (for scripts and tests).")

let top_once_arg =
  Arg.(
    value & flag
    & info [ "once" ] ~doc:"Render a single frame and exit (= --frames 1).")

let top_run addr interval frames once =
  let host, port =
    match String.rindex_opt addr ':' with
    | Some i -> (
        let host = String.sub addr 0 i in
        let port_s = String.sub addr (i + 1) (String.length addr - i - 1) in
        match int_of_string_opt port_s with
        | Some p when p > 0 && p < 65536 -> (host, p)
        | _ -> fail "top: bad port in %S" addr)
    | None -> fail "top: expected HOST:PORT, got %S" addr
  in
  if not (interval > 0.0) then fail "top: --interval must be > 0";
  let frames = if once then Some 1 else frames in
  (match
     Top.run ~host ~port ~interval_s:interval ?frames ()
   with
  | () -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Err.raise_
        (Err.Io
           { path = addr; message = "connect: " ^ Unix.error_message e })
  | exception Serve_client.Connection_closed ->
      Err.raise_ (Err.Io { path = addr; message = "connection closed" }));
  `Ok ()

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running probdb server: rolling qps \
          sparkline, 1m latency quantiles, error/shed/degraded/cache rates, \
          SLO burn, strategy wins, chaos and slow-query status.")
    Term.(
      ret
        (const top_run $ top_addr_arg $ top_interval_arg $ top_frames_arg
       $ top_once_arg))

(* ---------- pack ---------- *)

let pack_src_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"SRC"
        ~doc:"The TID to pack: a CSV directory (or an existing container to repack).")

let pack_out_arg =
  Arg.(
    required & pos 1 (some string) None
    & info [] ~docv:"OUT" ~doc:"The packed container to write (conventionally .pdb).")

let pack_verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "After writing, re-open the container and recompute every data \
           segment's checksum (reads the whole file back).")

let pack_run src out verify =
  with_db src @@ fun db ->
  Storage.pack db out;
  let st = Storage.open_file out in
  Fun.protect
    ~finally:(fun () -> Storage.close st)
    (fun () ->
      if verify then Storage.verify st;
      let rels = Storage.relations st in
      let tuples = List.fold_left (fun acc (_, _, n) -> acc + n) 0 rels in
      Printf.printf "packed %d relations (%d tuples) into %s (%d bytes)%s\n"
        (List.length rels) tuples out (Storage.file_size st)
        (if verify then ", checksums verified" else "");
      `Ok ())

let pack_cmd =
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Pack a TID into a versioned, checksummed binary container that \
          every $(b,--db) flag accepts. Columns and probabilities become \
          page-aligned mmap segments, so opening is O(header) — \
          milliseconds for tens of millions of tuples — and safe plans \
          scan the mapped arrays in place (format: docs/STORAGE.md).")
    Term.(ret (const pack_run $ pack_src_arg $ pack_out_arg $ pack_verify_arg))

(* ---------- gen ---------- *)

let out_arg =
  Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")

let domain_arg =
  Arg.(value & opt int 10 & info [ "domain" ] ~docv:"N" ~doc:"Domain size.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let specs_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"SPEC" ~doc:"Relation specs of the form name:arity:density.")

let gen_run out domain seed specs =
  let parse_spec s =
    match String.split_on_char ':' s with
    | [ name; arity; density ] -> (
        match int_of_string_opt arity, float_of_string_opt density with
        | Some a, Some d -> Ok (Probdb_workload.Gen.spec ~density:d name a)
        | _ -> Error s)
    | _ -> Error s
  in
  let parsed = List.map parse_spec specs in
  match List.find_opt Result.is_error parsed with
  | Some (Error s) -> fail "bad spec %S (want name:arity:density)" s
  | _ ->
      let specs = List.map Result.get_ok parsed in
      let db = Probdb_workload.Gen.random_tid ~seed ~domain_size:domain specs in
      Core.Csv_io.save_dir out db;
      Printf.printf "wrote %d relations (%d tuples) to %s\n"
        (List.length (Core.Tid.relations db))
        (Core.Tid.support_size db) out;
      `Ok ()

let gen_cmd =
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic TID as CSV files.")
    Term.(ret (const gen_run $ out_arg $ domain_arg $ seed_arg $ specs_arg))

(* ---------- main ---------- *)

(* Exit codes (documented in README.md):
   0 ok | 2 io | 3 csv | 4 parse | 5 usage | 6 no method | 7 exhausted.
   [~catch:false] lets typed errors reach this handler instead of
   cmdliner's backtrace printer. *)
let () =
  let info =
    Cmd.info "probdb" ~version:"1.0.0"
      ~doc:"A probabilistic database engine (PODS'20 'Probabilistic Databases for All')."
  in
  let code =
    try
      Cmd.eval ~catch:false
        (Cmd.group info
           [ eval_cmd; explain_cmd; prepare_cmd; classify_cmd; plan_cmd; lineage_cmd;
             compile_cmd; pack_cmd; serve_cmd; top_cmd; gen_cmd ])
    with
    (* [Fun.protect] wraps a raising cleanup (e.g. the trace writer hitting
       an unwritable path) in [Finally_raised]; unwrap so typed errors keep
       their exit codes instead of escaping as a backtrace. *)
    | Err.Error e | Fun.Finally_raised (Err.Error e) ->
        prerr_endline ("probdb: " ^ Err.render e);
        Err.exit_code e
    | Sys_error msg | Fun.Finally_raised (Sys_error msg) ->
        prerr_endline ("probdb: " ^ msg);
        2
  in
  exit code
