module Core = Probdb_core
module Fo = Probdb_logic.Fo
module Ucq = Probdb_logic.Ucq
module Lift = Probdb_lifted.Lift
module Lineage = Probdb_lineage.Lineage
module Obdd = Probdb_kc.Obdd
module Dpll = Probdb_dpll.Dpll
module Wmc = Probdb_cnf.Wmc
module Plan = Probdb_plans.Plan
module Prepare = Probdb_prepare.Prepare
module Karp_luby = Probdb_approx.Karp_luby
module Stats = Probdb_obs.Stats
module Clock = Probdb_obs.Clock
module Trace = Probdb_obs.Trace
module Metrics = Probdb_obs.Metrics
module Json = Probdb_obs.Json
module Guard = Probdb_guard.Guard
module Error = Probdb_core.Probdb_error
module Par = Probdb_par.Par

type strategy =
  | Lifted
  | Symmetric
  | Safe_plan
  | Read_once
  | Wmc
  | Obdd
  | Dpll
  | Karp_luby
  | World_enum

let strategy_name = function
  | Lifted -> "lifted"
  | Symmetric -> "symmetric"
  | Safe_plan -> "safe-plan"
  | Read_once -> "read-once"
  | Wmc -> "wmc"
  | Obdd -> "obdd"
  | Dpll -> "dpll"
  | Karp_luby -> "karp-luby"
  | World_enum -> "world-enum"

let strategy_of_name = function
  | "lifted" -> Some Lifted
  | "symmetric" -> Some Symmetric
  | "safe-plan" -> Some Safe_plan
  | "read-once" -> Some Read_once
  | "wmc" -> Some Wmc
  | "obdd" -> Some Obdd
  | "dpll" -> Some Dpll
  | "karp-luby" -> Some Karp_luby
  | "world-enum" -> Some World_enum
  | _ -> None

type degrade = { eps : float; delta : float; max_samples : int }

type config = {
  strategies : strategy list;
  obdd_max_nodes : int;
  dpll_max_decisions : int;
  wmc_max_decisions : int;
  kl_samples : int;
  max_enum_support : int;
  seed : int;
  deadline_s : float option;
  max_ie_terms : int option;
  max_plan_rows : int option;
  heap_watermark_words : int option;
  fault : Guard.fault option;
  degrade : degrade option;
  force_degraded : bool;
  domains : int;
  parent_guard : Guard.t option;
  plan_cache : Prepare.Cache.t option;
}

let default_config =
  { strategies =
      [ Lifted; Symmetric; Safe_plan; Read_once; Wmc; Obdd; Dpll; Karp_luby;
        World_enum ];
    obdd_max_nodes = 200_000;
    dpll_max_decisions = 2_000_000;
    wmc_max_decisions = 2_000_000;
    kl_samples = 100_000;
    max_enum_support = 22;
    seed = 42;
    deadline_s = None;
    max_ie_terms = None;
    max_plan_rows = None;
    heap_watermark_words = None;
    fault = None;
    degrade = Some { eps = 0.1; delta = 0.05; max_samples = 20_000 };
    force_degraded = false;
    domains = 1;
    parent_guard = None;
    plan_cache = None }

(* The serving-time backpressure config: skip every exact strategy and go
   straight to the (ε,δ) Karp–Luby fallback, keeping whatever degrade
   accuracy targets the base config carries (installing the defaults when
   degradation was off). The strategy list is kept so the degradation
   chain can record each skipped strategy — a degraded answer must say
   why it degraded. Used by [probdb serve] when the request queue passes
   its degrade watermark. *)
let force_degrade config =
  { config with
    force_degraded = true;
    degrade =
      (match config.degrade with
      | Some _ as d -> d
      | None -> default_config.degrade) }

(* Process-wide metrics (aggregating across queries, unlike [Stats.t]).
   The per-strategy win counters are resolved once, not per answer. *)
let m_queries = Metrics.counter "engine.queries"

let m_degraded = Metrics.counter "engine.degraded"

let m_latency = Metrics.histogram "engine.query_latency_s"

let m_wins =
  List.map
    (fun s -> (s, Metrics.counter ("engine.strategy." ^ strategy_name s)))
    default_config.strategies

let count_win s = Metrics.incr (List.assoc s m_wins)

(* The evaluation-config echo surfaced as the [config] section of
   --stats-json: enough to re-run the query the same way. *)
let opt_json f = function None -> Json.Null | Some v -> f v

let config_fields config =
  [ ( "strategies",
      Json.List (List.map (fun s -> Json.Str (strategy_name s)) config.strategies) );
    ("domains", Json.Int config.domains);
    ("seed", Json.Int config.seed);
    ("deadline_s", opt_json (fun f -> Json.Float f) config.deadline_s);
    ("kl_samples", Json.Int config.kl_samples);
    ("obdd_max_nodes", Json.Int config.obdd_max_nodes);
    ("dpll_max_decisions", Json.Int config.dpll_max_decisions);
    ("wmc_max_decisions", Json.Int config.wmc_max_decisions);
    ("max_enum_support", Json.Int config.max_enum_support);
    ("max_ie_terms", opt_json (fun n -> Json.Int n) config.max_ie_terms);
    ("max_plan_rows", opt_json (fun n -> Json.Int n) config.max_plan_rows);
    ("heap_watermark_words", opt_json (fun n -> Json.Int n) config.heap_watermark_words);
    ("plan_cache", Json.Bool (config.plan_cache <> None));
    ( "degrade",
      opt_json
        (fun d ->
          Json.Obj
            [ ("eps", Json.Float d.eps);
              ("delta", Json.Float d.delta);
              ("max_samples", Json.Int d.max_samples) ])
        config.degrade ) ]

let echo_config stats config =
  if stats.Stats.config = [] then stats.Stats.config <- config_fields config

(* What one strategy attempt came to: an exact value, a sampled one with
   its standard error, a refusal, or a guard trip. *)
type attempt =
  | Exact of float
  | Sampled of { value : float; std_error : float }
  | Skip of string
  | Trip of Guard.trip

(* Guard assembly: all knobs off means the shared no-op guard, so the
   default configuration pays nothing at the poll sites. *)
let guard_of_config config =
  match
    ( config.deadline_s,
      config.heap_watermark_words,
      config.fault,
      config.max_ie_terms,
      config.max_plan_rows,
      config.parent_guard )
  with
  | None, None, None, None, None, None -> Guard.unlimited
  | _ ->
      let g =
        Guard.create ?parent:config.parent_guard ?deadline_s:config.deadline_s
          ?heap_watermark_words:config.heap_watermark_words ?fault:config.fault ()
      in
      Option.iter (fun n -> Guard.set_budget g "lifted.ie_terms" n) config.max_ie_terms;
      Option.iter (fun n -> Guard.set_budget g "plan.rows" n) config.max_plan_rows;
      g

(* [domains = 1] means no pool at all: every strategy takes the exact
   sequential path it always took, so single-domain behaviour (results,
   RNG streams, poll counts) is unchanged by the parallel runtime. *)
let pool_of_config config =
  if config.domains > 1 then Some (Par.create ~domains:config.domains ()) else None

let record_pool stats = function
  | None -> ()
  | Some p ->
      stats.Stats.domains_used <- Par.domains p;
      stats.Stats.par_tasks <- Par.tasks_run p

let try_lifted stats guard pool db q =
  let rule_stats = Lift.fresh_stats () in
  match Lift.probability ~stats:rule_stats ~guard ?pool db q with
  | p ->
      stats.Stats.lifted <- Some (Lift.obs_counts rule_stats);
      Exact p
  | exception Lift.Unsafe msg -> Skip ("rules fail: " ^ msg)
  | exception Ucq.Unsupported msg -> Skip ("fragment: " ^ msg)

(* A materialised TID is symmetric (Sec. 8) when every relation lists all
   |DOM|^arity possible tuples at one shared probability. *)
let as_symmetric db =
  let n = Core.Tid.domain_size db in
  let expected_domain = List.init n (fun i -> Core.Value.Int i) in
  if n = 0 || not (List.equal Core.Value.equal (Core.Tid.domain db) expected_domain)
  then None
  else
    let rec complete acc = function
      | [] -> Some (List.rev acc)
      | rel :: rest -> (
          let arity = Core.Relation.arity rel in
          if arity < 1 || arity > 2 then None
          else
            let possible = int_of_float (Float.pow (float_of_int n) (float_of_int arity)) in
            if Core.Relation.cardinal rel <> possible then None
            else
              match
                List.sort_uniq compare (List.map snd (Core.Relation.rows rel))
              with
              | [ p ] -> complete ((Core.Relation.name rel, arity, p) :: acc) rest
              | _ -> None)
    in
    match complete [] (Core.Tid.relations db) with
    | Some rels -> ( try Some (Probdb_symmetric.Sym_db.make ~n rels) with Invalid_argument _ -> None)
    | None -> None

let try_symmetric guard db q =
  match as_symmetric db with
  | None -> Skip "database is not symmetric"
  | Some sym -> (
      match Probdb_symmetric.Wfomc.probability ~guard sym q with
      | p -> Exact p
      | exception Probdb_symmetric.Wfomc.Unsupported msg -> Skip ("FO2 fragment: " ^ msg))

(* The prepared variants below consume the cached structural artifact
   instead of re-deriving it: [Prepare.bind_ucq]/[bind_plan] substitute the
   actual constants back into the template-level UCQ/plan. Data-dependent
   checks (standard probabilities, read-once-ness, guard trips) still run
   here — only structure was cached. With [prepared = None] each function
   is byte-for-byte the legacy cold path. *)

let ucq_of ?prepared q =
  match prepared with
  | Some b -> Prepare.bind_ucq b
  | None -> (
      match Ucq.of_sentence q with
      | r -> Ok r
      | exception Ucq.Unsupported msg -> Error msg)

(* The monotone DNF lineage of a query in the UCQ fragment, with the mode
   that maps its probability back to the query's. Read-once factorisation
   and both Karp–Luby paths consume it; [Error] carries the skip reason. *)
let monotone_dnf ?prepared db q =
  match ucq_of ?prepared q with
  | Error msg -> Error ("fragment: " ^ msg)
  | Ok (ucq, mode) -> (
      if
        List.exists
          (List.exists (fun (a : Probdb_logic.Cq.atom) -> a.Probdb_logic.Cq.comp))
          ucq
      then Error "complemented atoms (lineage is not a monotone DNF)"
      else
        let ctx = Lineage.create db in
        match Lineage.dnf_of_ucq ctx ucq with
        | exception Invalid_argument msg -> Error msg
        | clauses -> Ok (ctx, clauses, mode))

let try_read_once ?prepared db q =
  match monotone_dnf ?prepared db q with
  | Error reason -> Skip reason
  | Ok (ctx, clauses, mode) -> (
      match Probdb_kc.Read_once.probability (Lineage.prob ctx) clauses with
      | Some p -> Exact (Ucq.apply_mode mode p)
      | None -> Skip "lineage is not read-once")

let run_safe_plan stats guard db plan =
  let p, plan_counts, rows = Plan.boolean_prob_counting ~guard db plan in
  stats.Stats.plan <- Some plan_counts;
  stats.Stats.rows_processed <- stats.Stats.rows_processed + rows;
  Exact p

let try_safe_plan ?prepared stats guard db q =
  match prepared with
  | Some b -> (
      (* prepare already planned the template; binding the constants back
         in is the only Plan-phase work left *)
      match Stats.time_phase stats Stats.Plan (fun () -> Prepare.bind_plan b) with
      | Some plan -> run_safe_plan stats guard db plan
      | None ->
          Skip
            (Option.value ~default:"no safe plan (non-hierarchical)"
               (Prepare.plan_skip b)))
  | None -> (
      match Ucq.of_sentence q with
      | exception Ucq.Unsupported msg -> Skip ("fragment: " ^ msg)
      | ucq, Ucq.Complemented ->
          ignore ucq;
          Skip "universal sentence (plans handle positive CQs only)"
      | ucq, Ucq.Direct -> (
          match Ucq.minimize ucq with
          | [ cq ]
            when Probdb_logic.Cq.is_self_join_free cq
                 && not (List.exists (fun (a : Probdb_logic.Cq.atom) -> a.Probdb_logic.Cq.comp) cq)
            -> (
              match Stats.time_phase stats Stats.Plan (fun () -> Plan.safe_plan cq) with
              | Some plan -> run_safe_plan stats guard db plan
              | None -> Skip "no safe plan (non-hierarchical)")
          | [ _ ] -> Skip "CQ has self-joins or negated atoms"
          | _ -> Skip "not a single CQ"))

let try_obdd config stats guard db q =
  let ctx = Lineage.create db in
  match Lineage.of_query ctx q with
  | exception Invalid_argument msg -> Skip msg
  | f -> (
      let manager =
        Obdd.manager ~max_nodes:config.obdd_max_nodes ~guard
          ~order:(Obdd.default_order f) ()
      in
      match Obdd.of_formula manager f with
      | bdd ->
          stats.Stats.circuit <- Some (Obdd.obs_counts bdd);
          Exact (Obdd.wmc manager (Lineage.prob ctx) bdd)
      | exception Obdd.Node_limit n ->
          (* solver-internal cap: same class of event as a guard budget *)
          Trip
            { Guard.resource = Guard.Work "obdd.nodes";
              site = "obdd.mk";
              limit = float_of_int n;
              spent = float_of_int n })

let try_wmc config stats guard db q =
  let ctx = Lineage.create db in
  match Lineage.of_query ctx q with
  | exception Invalid_argument msg -> Skip msg
  | f -> (
      (* In the auto chain the clause-database counter only claims lineage
         it translates directly — universal (CNF-shaped) sentences — and
         leaves DNF lineage to OBDD/DPLL, whose heuristics fit it better.
         As the only configured strategy (--method wmc) it was explicitly
         requested, so anything else goes through Tseitin clausification. *)
      if config.strategies <> [ Wmc ] && Probdb_boolean.Formula.as_cnf f = None then
        Skip "lineage is not CNF-shaped (force with --method wmc)"
      else
        let wmc_config =
          { Wmc.default_config with Wmc.max_decisions = config.wmc_max_decisions }
        in
        match Wmc.count ~config:wmc_config ~guard ~prob:(Lineage.prob ctx) f with
        | r ->
            stats.Stats.wmc <- Some (Wmc.obs_counts r.Wmc.stats);
            stats.Stats.circuit <- Some (Probdb_kc.Circuit.obs_counts r.Wmc.circuit);
            stats.Stats.memo_hit_rate <-
              Stats.hit_rate ~hits:r.Wmc.stats.Wmc.cache_hits
                ~queries:r.Wmc.stats.Wmc.cache_queries;
            Exact r.Wmc.prob
        | exception Wmc.Decision_limit n ->
            Trip
              { Guard.resource = Guard.Work "wmc.decisions";
                site = "wmc.decide";
                limit = float_of_int n;
                spent = float_of_int n })

let try_dpll config stats guard db q =
  let ctx = Lineage.create db in
  match Lineage.of_query ctx q with
  | exception Invalid_argument msg -> Skip msg
  | f -> (
      let dpll_config =
        { Dpll.default_config with Dpll.max_decisions = config.dpll_max_decisions }
      in
      match Dpll.count ~config:dpll_config ~guard ~prob:(Lineage.prob ctx) f with
      | r ->
          stats.Stats.dpll <- Some (Dpll.obs_counts r.Dpll.stats);
          stats.Stats.circuit <- Some (Probdb_kc.Circuit.obs_counts r.Dpll.circuit);
          stats.Stats.memo_hit_rate <-
            Stats.hit_rate ~hits:r.Dpll.stats.Dpll.cache_hits
              ~queries:r.Dpll.stats.Dpll.cache_queries;
          Exact r.Dpll.prob
      | exception Dpll.Decision_limit n ->
          Trip
            { Guard.resource = Guard.Work "dpll.decisions";
              site = "dpll.shannon";
              limit = float_of_int n;
              spent = float_of_int n })

(* The DNF Karp–Luby samples: the monotone lineage, on standard
   probabilities only (the estimator's weights must be probabilities). *)
let sampling_dnf ?prepared db q =
  if not (Core.Tid.is_standard db) then Error "non-standard probabilities"
  else monotone_dnf ?prepared db q

let kl_estimate ?guard config pool ~samples ctx clauses =
  let prob = Lineage.prob ctx in
  match pool with
  | Some pool ->
      Karp_luby.estimate_par ~seed:config.seed ?guard ~pool ~samples ~prob clauses
  | None -> Karp_luby.estimate ~seed:config.seed ?guard ~samples ~prob clauses

let try_karp_luby ?prepared config guard pool db q =
  match sampling_dnf ?prepared db q with
  | Error reason -> Skip reason
  | Ok (ctx, clauses, mode) ->
      let est = kl_estimate ~guard config pool ~samples:config.kl_samples ctx clauses in
      Sampled
        { value = Ucq.apply_mode mode est.Karp_luby.mean;
          std_error = est.Karp_luby.std_error }

let try_world_enum config db q =
  if Core.Tid.support_size db > config.max_enum_support then
    Skip
      (Printf.sprintf "support %d exceeds enumeration budget %d"
         (Core.Tid.support_size db) config.max_enum_support)
  else Exact (Probdb_logic.Brute_force.probability db q)

let attempt ?prepared config stats guard pool db q s =
  let run () =
    match s with
    | Lifted -> try_lifted stats guard pool db q
    | Symmetric -> try_symmetric guard db q
    | Safe_plan -> try_safe_plan ?prepared stats guard db q
    | Read_once -> try_read_once ?prepared db q
    | Wmc -> try_wmc config stats guard db q
    | Obdd -> try_obdd config stats guard db q
    | Dpll -> try_dpll config stats guard db q
    | Karp_luby -> try_karp_luby ?prepared config guard pool db q
    | World_enum -> try_world_enum config db q
  in
  (* Every trial is a span on the trace timeline and a GC-delta region:
     the trace shows which strategy the time went to, the stats show which
     strategy the allocation went to. *)
  let run () =
    Stats.with_gc stats (fun () ->
        Trace.with_span ~cat:"strategy" (strategy_name s) run)
  in
  match run () with r -> r | exception Guard.Exhausted trip -> Trip trip

(* Prepared-pipeline gating: the prepared path is active when the caller
   hands over an artifact or the config carries a cache. With a cached
   template plan, Safe_plan is promoted to the front of the strategy list —
   running the compiled columnar plan instead of re-deriving the answer by
   lifted recursion is the whole point of the warm path. The promotion is a
   pure function of the artifact, so cold misses, warm hits and a disabled
   (capacity-0) cache order the strategies identically and answers cannot
   drift with cache state. *)
let acquire_prepared config stats prepared q =
  match (prepared, config.plan_cache) with
  | (Some _ as p), _ -> p
  | None, Some cache when Fo.is_sentence q ->
      Some (Prepare.Cache.of_query ~stats cache q)
  | None, _ -> None

let promote_safe_plan prepared strategies =
  match prepared with
  | Some b
    when b.Prepare.artifact.Prepare.plan <> None && List.mem Safe_plan strategies
    ->
      Safe_plan :: List.filter (fun s -> s <> Safe_plan) strategies
  | _ -> strategies

(* The (ε,δ) fallback: Karp–Luby on the monotone DNF lineage, with the
   sample count from the classical FPRAS bound capped at [max_samples].
   Runs unguarded — sampling is the one method whose cost is fixed up
   front, so completion is guaranteed. Returns [None] when the query has
   no monotone DNF lineage to sample (complemented atoms, non-standard
   probabilities, outside the UCQ fragment). *)
let kl_fallback ?prepared config pool ~eps ~delta ~max_samples db q =
  match sampling_dnf ?prepared db q with
  | Error _ -> None
  | Ok (ctx, clauses, mode) ->
      let m = max 1 (List.length clauses) in
      let samples =
        min (Karp_luby.required_samples ~eps ~delta ~clauses:m) max_samples
      in
      let est = kl_estimate config pool ~samples ctx clauses in
      let lo, hi = Karp_luby.confidence_interval ~delta est in
      let v = Ucq.apply_mode mode est.Karp_luby.mean in
      let lo, hi =
        match mode with
        | Ucq.Direct -> (lo, hi)
        | Ucq.Complemented -> (1.0 -. hi, 1.0 -. lo)
      in
      Some
        ( v,
          est.Karp_luby.std_error,
          { Answer.ci_low = lo; ci_high = hi; eps; delta; samples } )

let eval ?(config = default_config) ?stats ?prepared db q =
  if not (Fo.is_sentence q) then
    invalid_arg "Engine.eval: open formula (use Engine.answers)";
  let stats = match stats with Some s -> s | None -> Stats.create () in
  if stats.Stats.query = None then
    stats.Stats.query <- Some (Format.asprintf "%a" Fo.pp q);
  Metrics.incr m_queries;
  echo_config stats config;
  let guard = guard_of_config config in
  let pool = pool_of_config config in
  let prepared = acquire_prepared config stats prepared q in
  (* Karp–Luby is a strategy of its own only as the whole list (--method
     karp-luby); otherwise it is reachable only through the certified
     fallback, so every answer is exact, degraded with a confidence
     interval, or a typed error. *)
  let strategies =
    if config.strategies = [ Karp_luby ] then config.strategies
    else List.filter (fun s -> s <> Karp_luby) config.strategies
  in
  let strategies = promote_safe_plan prepared strategies in
  let finish_stats chain =
    stats.Stats.chain <- Answer.chain_to_stats chain;
    stats.Stats.skipped <-
      List.map (fun s -> (Answer.step_strategy s, Answer.step_detail s)) chain
  in
  let answer s ~value ?std_error ?confidence chain =
    finish_stats chain;
    record_pool stats pool;
    stats.Stats.strategy <- Some (strategy_name s);
    stats.Stats.probability <- Some value;
    stats.Stats.exact <- std_error = None;
    stats.Stats.std_error <- std_error;
    Option.iter
      (fun c ->
        stats.Stats.degraded <- true;
        stats.Stats.ci_low <- Some c.Answer.ci_low;
        stats.Stats.ci_high <- Some c.Answer.ci_high;
        stats.Stats.samples <- Some c.Answer.samples;
        Metrics.incr m_degraded)
      confidence;
    count_win s;
    Metrics.observe m_latency (Stats.total_s stats);
    Result.Ok
      { Answer.value;
        exact = std_error = None;
        strategy = strategy_name s;
        degraded = confidence <> None;
        confidence;
        chain;
        stats }
  in
  let fail chain =
    finish_stats chain;
    let tripped =
      List.find_map
        (function
          | Answer.Tripped { resource; site; detail; _ } -> Some (resource, site, detail)
          | Answer.Skipped _ -> None)
        chain
    in
    match tripped with
    | Some (resource, site, detail) -> Result.Error (Error.Exhausted { resource; site; detail })
    | None ->
        Result.Error
          (Error.No_method
             (List.map (fun s -> (Answer.step_strategy s, Answer.step_detail s)) chain))
  in
  let degrade_or_fail chain =
    match config.degrade with
    | None -> fail chain
    | Some { eps; delta; max_samples } -> (
        let result, dt =
          Clock.time (fun () ->
              Stats.with_gc stats (fun () ->
                  Trace.with_span ~cat:"strategy" "karp-luby.fallback" (fun () ->
                      kl_fallback ?prepared config pool ~eps ~delta ~max_samples db q)))
        in
        Stats.record_phase stats Stats.Solve dt;
        match result with
        | None -> fail chain
        | Some (value, std_error, confidence) ->
            answer Karp_luby ~value ~std_error ~confidence chain)
  in
  let rec go chain = function
    | [] -> degrade_or_fail (List.rev chain)
    | s :: rest when config.force_degraded ->
        (* backpressure degradation: no exact strategy runs, but each one
           is recorded as skipped so the degradation chain says why the
           answer is an (ε,δ) interval *)
        go
          (Answer.Skipped
             { strategy = strategy_name s;
               reason = "skipped: degraded under load (backpressure)" }
          :: chain)
          rest
    | s :: rest -> (
        (* [Plan.safe_plan] time lands in the Plan phase inside the attempt;
           subtract it so Classify/Solve only get what is really theirs. *)
        let plan_before = stats.Stats.plan_s in
        let result, dt =
          Clock.time (fun () -> attempt ?prepared config stats guard pool db q s)
        in
        let dt = Float.max 0.0 (dt -. (stats.Stats.plan_s -. plan_before)) in
        match result with
        | Exact value ->
            Stats.record_phase stats Stats.Solve dt;
            answer s ~value (List.rev chain)
        | Sampled { value; std_error } ->
            Stats.record_phase stats Stats.Solve dt;
            answer s ~value ~std_error (List.rev chain)
        | Skip reason ->
            Stats.record_phase stats Stats.Classify dt;
            go (Answer.Skipped { strategy = strategy_name s; reason } :: chain) rest
        | Trip trip ->
            Stats.record_phase stats Stats.Classify dt;
            go (Answer.step_of_trip ~strategy:(strategy_name s) trip :: chain) rest)
  in
  go [] strategies

let eval_exn ?config db q =
  match eval ?config db q with Ok a -> a | Error e -> Error.raise_ e

let probability ?config db q = (eval_exn ?config db q).Answer.value

let answers ?config ~free db q =
  let undeclared = List.filter (fun v -> not (List.mem v free)) (Fo.free_vars q) in
  if undeclared <> [] then
    invalid_arg
      (Printf.sprintf "Engine.answers: undeclared free variables %s"
         (String.concat ", " undeclared));
  let domain = Core.Tid.domain db in
  let rec bindings = function
    | [] -> [ [] ]
    | _ :: rest ->
        let tails = bindings rest in
        List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) domain
  in
  bindings free
  |> List.filter_map (fun binding ->
         let ground =
           List.fold_left2 (fun f x v -> Fo.subst_const x v f) q free binding
         in
         let a = eval_exn ?config db ground in
         if a.Answer.value > 0.0 then Some (binding, a) else None)
  |> List.sort (fun (a, _) (b, _) -> Core.Tuple.compare a b)

let expected_answer_count ?config ~free db q =
  List.fold_left
    (fun acc (_, a) -> acc +. a.Answer.value)
    0.0
    (answers ?config ~free db q)
