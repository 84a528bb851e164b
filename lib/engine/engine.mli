(** The PQE engine: a dispatcher over every inference method in the
    repository.

    This is the "probabilistic database system" the paper's results add up
    to. Given a query, the engine tries, in order:

    + {e lifted inference} (Sec. 5) — polynomial time, exact, succeeds
      exactly on safe queries of the unate ∃*/∀* fragment;
    + {e symmetric WFOMC} (Sec. 8) — when the database happens to be
      symmetric (every possible tuple listed at one probability per
      relation), any FO² sentence is polynomial, including #P-hard ones
      like H0;
    + a {e safe extensional plan} (Sec. 6) — exact on hierarchical
      self-join-free CQs, evaluated with plain relational operators;
    + {e read-once factorisation} — when the monotone DNF lineage is
      read-once (e.g. any hierarchical CQ lineage), probability in linear
      time (Golumbic et al., Sec. 7 context);
    + {e clause-database WMC} (Sec. 7) — exact, grounded; a sharpSAT-style
      counter ([Probdb_cnf.Wmc]) with watched-literal propagation,
      component decomposition and a bounded component cache. In the auto
      chain it claims exactly the CNF-shaped (universal) lineages it
      translates directly; picked explicitly ([--method wmc] /
      [strategies = [Wmc]]) it clausifies anything;
    + {e knowledge compilation to OBDD} (Sec. 7) — exact, grounded; blows
      up on hard queries and is capped by a node budget;
    + {e DPLL with caching and components} (Sec. 7) — exact, grounded,
      capped by a decision budget;
    + {e Karp–Luby sampling} on the DNF lineage — an FPRAS for monotone
      UCQs. It runs as a strategy only when it is the whole list
      ([--method karp-luby]); otherwise it is reached only through the
      certified (ε,δ) fallback of {!eval} when everything exact has
      failed;
    + {e possible-world enumeration} — the last resort for tiny databases.

    Every answer reports which method produced it and why the earlier ones
    were skipped — the paper's narrative (who wins where) as an API. *)

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

val strategy_name : strategy -> string

val strategy_of_name : string -> strategy option
(** Inverse of {!strategy_name} — the one name table shared by the CLI's
    [--method] parser and the serve protocol's ["method"] field. [None] on
    unknown names (and on ["auto"], which means "no override"). *)

type degrade = {
  eps : float;  (** target relative error of the fallback approximation *)
  delta : float;  (** target failure probability *)
  max_samples : int;
      (** hard cap on Monte-Carlo samples, so the fallback itself has a
          bounded cost (the FPRAS bound [4m·ln(2/δ)/ε²] can be huge) *)
}

type config = {
  strategies : strategy list;  (** tried in order *)
  obdd_max_nodes : int;
  dpll_max_decisions : int;
  wmc_max_decisions : int;
      (** decision cap of the clause-database WMC strategy (its component
          cache is additionally bounded, see [Probdb_cnf.Wmc.config]) *)
  kl_samples : int;
  max_enum_support : int;
  seed : int;
  deadline_s : float option;
      (** wall-clock deadline across all strategies (monotonic clock) *)
  max_ie_terms : int option;
      (** budget on lifted inclusion–exclusion terms (["lifted.ie_terms"]) *)
  max_plan_rows : int option;
      (** budget on plan intermediate-relation rows (["plan.rows"]) *)
  heap_watermark_words : int option;  (** major-heap watermark *)
  fault : Probdb_guard.Guard.fault option;
      (** deterministic fault injection, for tests *)
  degrade : degrade option;
      (** [Some _]: {!eval} falls back to the (ε,δ) Karp–Luby approximation
          when every exact strategy is skipped or tripped. [None]: {!eval}
          fails instead, so the answer is exact or a typed error. Either
          way Karp–Luby stays out of the main strategy loop unless it is
          the only configured strategy. *)
  force_degraded : bool;
      (** when set (by {!force_degrade}), {!eval} skips every exact
          strategy — recording each as a skipped step in the degradation
          chain — and answers directly with the (ε,δ) fallback. *)
  domains : int;
      (** OCaml domains for the parallel runtime ([probdb.par]). At [1]
          (the default) no pool is created and every strategy runs its
          exact sequential path. Above [1], a {!Probdb_par.Par.pool} is
          shared by lifted inference (independent branches) and Karp–Luby
          sampling ({!Probdb_approx.Karp_luby.estimate_par}, whose
          batch-indexed RNG streams make the estimate identical at any
          domain count); [stats] reports [domains_used] / [par_tasks]. *)
  parent_guard : Probdb_guard.Guard.t option;
      (** when set, the per-evaluation guard is created with this parent,
          linking cancellation: {!Probdb_guard.Guard.cancel} on the parent
          interrupts the evaluation at its next poll. A long-running
          server passes one server-wide guard here so a hard shutdown can
          stop every in-flight query cooperatively. *)
  plan_cache : Probdb_prepare.Prepare.Cache.t option;
      (** when set, {!eval} runs the prepared pipeline: the
          query's structural key (constants lifted to parameters) is looked
          up in this shared compiled-plan cache, a miss builds and caches
          the artifact (UCQ reduction, minimisation, classification,
          template safe plan), and execution binds the constants back into
          the cached artifact. When the artifact carries a safe plan,
          [Safe_plan] is promoted to the front of the strategy list, so
          warm evaluations of safe queries run the compiled columnar plan
          directly — parse/classify/plan phase timings read ~0 on hits.
          [stats] reports the lookup in its [prepare] block. A capacity-0
          cache runs the identical pipeline without retaining anything —
          that is what [--no-plan-cache] installs, so caching can never
          change an answer. [None] (the default) is the legacy
          every-eval-reclassifies behaviour. *)
}

val default_config : config
(** All nine strategies in the order above; 200k OBDD nodes, 2M decisions
    (DPLL and WMC each), 100k Karp–Luby samples; no deadline, no budgets,
    no fault; degradation on at [eps = 0.1], [delta = 0.05], at most 20k
    samples; one domain (sequential). *)

val force_degrade : config -> config
(** The serving-time backpressure transform: set [force_degraded] so
    {!eval} skips every exact method — each recorded as a skipped step in
    the degradation chain — and answers directly with the (ε,δ)
    Karp–Luby fallback, a certified confidence-interval answer at a cost
    bounded by [degrade.max_samples], which is what an overloaded server
    wants instead of queueing exact work. Keeps the base config's [degrade]
    targets, installing {!default_config}'s when degradation was off.
    Queries with no monotone DNF lineage to sample still come back as
    [Error (No_method _)]. *)

val eval :
  ?config:config ->
  ?stats:Probdb_obs.Stats.t ->
  ?prepared:Probdb_prepare.Prepare.bound ->
  Probdb_core.Tid.t ->
  Probdb_logic.Fo.t ->
  (Answer.t, Probdb_core.Probdb_error.t) result
(** Tries the configured strategies in order and returns the first
    answer — the one strategy loop of the engine. Always-on
    instrumentation: phase timings and per-solver counters are recorded
    into [stats] (a fresh record when not supplied) and returned in the
    answer. Pass [?stats] to carry CLI-side timings (e.g. parse time) into
    the same record.

    - a {!Probdb_guard.Guard.t} built from the config's [deadline_s],
      budgets, heap watermark and [fault] interrupts runaway strategies;
      each interruption is recorded as a typed [Tripped] step in the
      answer's degradation chain (solver-internal caps — OBDD nodes, DPLL
      decisions — are recorded the same way);
    - when every exact strategy is skipped or tripped and [config.degrade]
      is [Some _], the engine degrades to the Karp–Luby
      (ε,δ)-approximation (unguarded but sample-capped, so it always
      terminates) and returns a [degraded] answer with its confidence
      interval;
    - instead of raising, failures come back as
      [Error (Exhausted _)] (some strategy tripped a resource and no
      fallback applied) or [Error (No_method _)] (nothing was applicable).

    @param config strategy list and budgets (default {!default_config}).
    @param stats the record to fill; freshly created when absent.
    @param prepared a pre-resolved artifact binding for [q] (e.g. from
      {!Probdb_prepare.Prepare.Cache.resolve_text}); when absent and
      [config.plan_cache] is set, the engine resolves one itself.
    @raise Invalid_argument on open formulas — use {!answers}. *)

val probability : ?config:config -> Probdb_core.Tid.t -> Probdb_logic.Fo.t -> float
(** The value of {!eval}'s answer under [config].

    @raise Probdb_core.Probdb_error.Error when {!eval} returns an error. *)

val answers :
  ?config:config -> free:string list -> Probdb_core.Tid.t -> Probdb_logic.Fo.t ->
  (Probdb_core.Value.t list * Answer.t) list
(** Non-Boolean queries: runs {!eval} under [config] on the Boolean query
    obtained by binding the free variables to each combination of domain
    values, and keeps the bindings with positive probability, sorted by
    binding. Each answer is exactly what {!eval} returns for that
    grounding — exact, or degraded with a confidence interval.

    @raise Invalid_argument when [q] has free variables not in [free].
    @raise Probdb_core.Probdb_error.Error with the first grounding's error
      (typed [No_method] or [Exhausted]) when {!eval} fails on it. *)

val expected_answer_count :
  ?config:config -> free:string list -> Probdb_core.Tid.t -> Probdb_logic.Fo.t -> float
(** Expected number of answers of a non-Boolean query, by linearity of
    expectation: the sum of the per-binding marginals of {!answers}. *)
