(* The traced run (--trace 1): per-layer numbers, measured from outside.

   It replays the workload's request stream in-process, one request at a
   time, through the public functions of each layer the server calls —
   Protocol.parse, Parser.parse, Prepare.Cache.of_query, Engine.eval and
   the reply rendering — recording a span around each call (name, start,
   end, parent, request id) in memory. Each request also runs once without
   spans, so the difference is the tracing overhead and each request's
   layer self times can be reconciled with its untraced in-process latency.

   Grounded layers (lineage, WMC, OBDD, DPLL, Karp–Luby) run inside
   Engine.eval, out of reach of an outside span; they are measured by
   calling them again alone on each distinct (query, database) the stream
   sent to them: Lineage.of_query directly, and the engine with
   [strategies = [s]], the same budgets and [degrade = None] for each
   strategy the chain attempted.

   The serving workload also runs its nominal segment and one overload burst against a
   `probdb serve` child for the client-side layers (residual latency, shed
   and degraded shares, ping and stats round trips, generator lag). *)

module Core = Probdb_core
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module Cache = Probdb_prepare.Prepare.Cache
module Protocol = Probdb_serve.Protocol
module Json = Probdb_obs.Json
module Stats = Probdb_obs.Stats
module Storage = Probdb_storage.Storage
module Lineage = Probdb_lineage.Lineage

(* ---------- spans ---------- *)

type span = { id : int; name : string; req : int; parent : int; t0 : float; t1 : float }

let spans : span list ref = ref []
let next_id = ref 0

let span ~req ~parent name f =
  let id = !next_id in
  incr next_id;
  let t0 = Util.now () in
  let r = f id in
  spans := { id; name; req; parent; t0; t1 = Util.now () } :: !spans;
  r

let dur s = s.t1 -. s.t0

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("id", Json.Int s.id); ("name", Json.Str s.name); ("req", Json.Int s.req);
                ("parent", Json.Int s.parent); ("start_s", Json.Float s.t0); ("end_s", Json.Float s.t1) ]));
      output_char oc '\n')
    (List.rev !spans);
  close_out oc

(* Children lie inside their parent, and every self time is >= 0. *)
let self_times () =
  let by_id = Hashtbl.create 4096 and child_sum = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) !spans;
  let nested = ref true in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let p = Hashtbl.find by_id s.parent in
        if s.t0 < p.t0 || s.t1 > p.t1 then nested := false;
        Hashtbl.replace child_sum s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.parent))
      end)
    !spans;
  let self s = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.id) in
  let nonneg = List.for_all (fun s -> self s >= -1e-9) !spans in
  (self, !nested && nonneg)

(* ---------- the in-process request path ---------- *)

let grounded = [ "read-once"; "wmc"; "obdd"; "dpll"; "karp-luby"; "world-enum" ]

(* The reply to an eval, built as the server builds it (Serve.answer_json,
   which the library does not export, for a request without "stats"), with
   a minted request id; an in-process replay is never degraded under load. *)
let render ~id (a : Answer.t) =
  let confidence (c : Answer.confidence) =
    Json.Obj
      [ ("ci_low", Json.Float c.ci_low); ("ci_high", Json.Float c.ci_high); ("eps", Json.Float c.eps);
        ("delta", Json.Float c.delta); ("samples", Json.Int c.samples) ]
  in
  let step s =
    Json.Obj
      [ ("strategy", Json.Str (Answer.step_strategy s)); ("kind", Json.Str (Answer.step_kind s));
        ("detail", Json.Str (Answer.step_detail s)) ]
  in
  Json.to_string
    (Protocol.response_ok ~request_id:(Probdb_obs.Request_id.mint ()) ~id
       (Json.Obj
          ([ ("value", Json.Float a.value); ("exact", Json.Bool a.exact);
             ("strategy", Json.Str a.strategy); ("degraded", Json.Bool a.degraded);
             ("degraded_under_load", Json.Bool false) ]
          @ (match a.confidence with Some c -> [ ("confidence", confidence c) ] | None -> [])
          @ [ ("chain", Json.List (List.map step a.chain)) ])))

type replayed = {
  q : Inputs.request;
  weight : int;  (** occurrences of this request the replay stands for *)
  total_ms : float;  (** in-process latency, untraced pass *)
  eval_ms : float;  (** Engine.eval alone, untraced pass *)
  answer : (Answer.t, Core.Probdb_error.t) result;  (** traced pass *)
  plain_answer : (Answer.t, Core.Probdb_error.t) result;  (** untraced pass *)
  hit : bool;  (** plan-cache hit in the traced pass *)
  root : int;  (** id of the traced pass's request span *)
}

(* How a layer call is wrapped: in a span, or not at all. *)
type wrap = { sp : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { sp = (fun _ f -> f ()) }

(* One request through the layers. *)
let handle { sp } ~cache ~config db ~id line =
  let r =
    sp "protocol.parse" (fun () ->
        match Protocol.parse line with
        | Ok { Protocol.op = Protocol.Eval r; _ } -> r
        | _ -> Util.fail "replay: bad request line %s" line)
  in
  let fo = sp "logic.parse" (fun () -> Probdb_logic.Parser.parse ~free:[] r.Protocol.query) in
  let prepared, hit =
    sp "prepare" (fun () ->
        let before = (Cache.counters cache).hits in
        let b = Cache.of_query cache fo in
        (b, (Cache.counters cache).hits > before))
  in
  let t = Util.now () in
  let answer = sp "engine.eval" (fun () -> E.eval ~config ~prepared db fo) in
  let eval_s = Util.now () -. t in
  (match answer with Ok a -> ignore (sp "protocol.render" (fun () -> render ~id a)) | Error _ -> ());
  (answer, hit, eval_s)

(* Each request runs once untraced and once traced, back to back, each pass
   with its own plan cache; which goes first alternates, so neither pass is
   favoured by a warmer heap or warmer CPU caches. *)
let replay ~config ~db_of (items : (Inputs.request * int) list) =
  let pass () =
    let cache = Cache.create_default () in
    (cache, { config with E.plan_cache = Some cache })
  in
  let cache_u, config_u = pass () and cache_t, config_t = pass () in
  let rs =
    List.mapi
      (fun i ((q : Inputs.request), weight) ->
        let line = Openloop.request_line ~id:i q.text and db = db_of q in
        let plain () =
          Gc.minor ();
          let t = Util.now () in
          let answer, _, eval_s = handle untraced ~cache:cache_u ~config:config_u db ~id:(Json.Int i) line in
          ((Util.now () -. t) *. 1000.0, eval_s *. 1000.0, answer)
        in
        let traced () =
          Gc.minor ();
          span ~req:i ~parent:(-1) "request" (fun root ->
              let w = { sp = (fun name f -> span ~req:i ~parent:root name (fun _ -> f ())) } in
              let answer, hit, _ = handle w ~cache:cache_t ~config:config_t db ~id:(Json.Int i) line in
              (answer, hit, root))
        in
        let (total_ms, eval_ms, plain_answer), (answer, hit, root) =
          if i mod 2 = 0 then
            let p = plain () in
            (p, traced ())
          else
            let t = traced () in
            (plain (), t)
        in
        { q; weight; total_ms; eval_ms; answer; plain_answer; hit; root })
      items
  in
  (rs, cache_t)

(* ---------- weighted summaries ---------- *)

let expand xs = List.concat_map (fun (x, w) -> List.init w (fun _ -> x)) xs
let wmedian xs = Util.or_zero (Util.median (expand xs))
let wquantile q xs = Util.or_zero (Util.quantile q (expand xs))

let wmean xs =
  let n = List.fold_left (fun a (_, w) -> a + w) 0 xs in
  if n = 0 then 0.0 else List.fold_left (fun a (x, w) -> a +. (x *. float_of_int w)) 0.0 xs /. float_of_int n

(* ---------- grounded layers, called alone ---------- *)

type solo = { s_ms : float; s_stats : Stats.t; s_answer : (Answer.t, Core.Probdb_error.t) result }

let solo_run ~req db fo strategy =
  let stats = Stats.create () in
  let config = { E.default_config with E.strategies = [ strategy ]; degrade = None } in
  let t = Util.now () in
  let a = span ~req ~parent:(-1) ("solo." ^ E.strategy_name strategy) (fun _ -> E.eval ~config ~stats db fo) in
  { s_ms = (Util.now () -. t) *. 1000.0; s_stats = stats; s_answer = a }

type probe = {
  p_weight : int;
  lineage_ms : float;
  lineage_vars : int;
  solos : (string * solo) list;  (** each attempted strategy, alone *)
  wasted_ms : float;  (** solo times of the strategies tripped before the winner *)
  kl : (float * int * bool option) option;  (** ms, samples, interval covers the reference *)
}

let tripped (a : Answer.t) =
  List.filter_map (function Answer.Tripped { strategy; _ } -> Some strategy | Answer.Skipped _ -> None) a.chain

let probe ~reference ~req db (r : replayed) =
  match r.answer with
  | Error _ -> None
  | Ok a when not (List.mem a.strategy grounded || tripped a <> []) -> None
  | Ok a ->
      let fo = Probdb_logic.Parser.parse_sentence r.q.text in
      let t = Util.now () in
      let vars =
        span ~req ~parent:(-1) "lineage" (fun _ ->
            let ctx = Lineage.create db in
            ignore (Lineage.of_query ctx fo);
            Probdb_boolean.Var_pool.size (Lineage.pool ctx))
      in
      let lineage_ms = (Util.now () -. t) *. 1000.0 in
      let attempted =
        tripped a @ if a.exact && List.mem a.strategy grounded then [ a.strategy ] else []
      in
      let solos =
        List.filter_map
          (fun name -> Option.map (fun s -> (name, solo_run ~req db fo s)) (E.strategy_of_name name))
          attempted
      in
      let wasted_ms =
        List.fold_left
          (fun acc name -> acc +. match List.assoc_opt name solos with Some s -> s.s_ms | None -> 0.0)
          0.0 (tripped a)
      in
      let kl =
        let t = Util.now () in
        match
          span ~req ~parent:(-1) "kl" (fun _ ->
              E.eval ~config:(E.force_degrade E.default_config) db fo)
        with
        | Ok ({ confidence = Some c; _ } as k) ->
            let covered =
              match Check.of_answer ~reference k with Check.Degraded_ok { covered } -> covered | _ -> None
            in
            Some ((Util.now () -. t) *. 1000.0, c.samples, covered)
        | _ -> None
      in
      Some { p_weight = r.weight; lineage_ms; lineage_vars = vars; solos; wasted_ms; kl }

(* ---------- the run ---------- *)

let m = Measure.m

(* A request reconciles when its layer self times, the root span left
   out, add up to its untraced in-process latency within max(0.25 ms,
   25%): a request of a millisecond or more fails when a layer taking a
   quarter of it is missing from the trace. At least 80% of requests must
   reconcile: two runs of one request differ by more now and then, when
   major GC work lands in one of them (89-98% reconciled in the runs this
   was set from). The stream totals must agree within 5%. *)
let reconcile_tolerance ms = Float.max 0.25 (0.25 *. ms)
let reconcile_rule = "max(0.25 ms, 25%)"
let reconcile_share = 0.8
let reconcile_total = 0.05

let batch_replays = 5

let run ~probdb ~dir (inp : Inputs.t) ~reference =
  let serve = inp.serve <> None in
  (* client side: the nominal segment and one overload burst, then idle probes *)
  let client =
    match inp.serve with
    | None -> None
    | Some plan ->
      let _, srv = Measure.setup_server ~probdb ~path:(Inputs.packed_path dir) ~reference inp in
      let rung r = Openloop.run_rung ~port:srv.port ~reference ~stats_every:Measure.stats_every r in
      let nominal = rung plan.nominal in
      let top = rung (List.hd plan.overloads) in
      let c = Openloop.connect srv.port in
      let probe line n =
        List.init n (fun _ ->
            let t = Util.now () in
            ignore (Openloop.call c line);
            Util.now () -. t)
      in
      let ping = probe "{\"op\":\"ping\"}" 200 and stats = probe "{\"op\":\"stats\"}" 20 in
      Openloop.close c;
      Openloop.stop_server srv;
      Some (nominal, top, ping, stats)
  in
  (* in-process: load the same database the server or the batch holds *)
  let open_ms, mapped, csv_load_s, dbs =
    if serve then begin
      let opens =
        List.init 5 (fun _ ->
            let t = Util.now () in
            let st = Storage.open_file (Inputs.packed_path dir) in
            ((Util.now () -. t) *. 1000.0, st))
      in
      List.iteri (fun i (_, st) -> if i < 4 then Storage.close st) opens;
      let st = snd (List.nth opens 4) in
      (Util.median (List.map fst opens), Some st, 0.0, [| Storage.tid st |])
    end
    else
      let t = Util.now () in
      let dbs = Measure.load_pool dir inp in
      (0.0, None, Util.now () -. t, dbs)
  in
  (* the stream: the first nominal segment for the serving workloads; for
     the batch each distinct (query, database) up to [batch_replays] times,
     together weighted by its multiplicity — replaying the whole pass twice
     would not fit a run *)
  let items =
    match inp.serve with
    | Some plan -> Array.to_list (Array.map (fun (_, q) -> (q, 1)) plan.nominal.sched)
    | None ->
      let counts = Hashtbl.create 32 in
      Array.iter
        (fun (q : Inputs.request) ->
          Hashtbl.replace counts (q.text, q.db)
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts (q.text, q.db))))
        inp.stream;
      List.concat_map
        (fun (q : Inputs.request) ->
          match Hashtbl.find_opt counts (q.text, q.db) with
          | Some w ->
              Hashtbl.remove counts (q.text, q.db);
              let r = min w batch_replays in
              List.init r (fun i -> (q, if i = r - 1 then w - (w / r * (r - 1)) else w / r))
          | None -> [])
        (Array.to_list inp.stream)
  in
  let config = if serve then Probdb_serve.Serve.default_config.engine else E.default_config in
  let db_of (q : Inputs.request) = dbs.(q.db) in
  let rs, cache = replay ~config ~db_of items in
  let self, nested = self_times () in
  (* per replayed request (request i has id i): the sum of its layer self
     times, leaving out the root span, whose self time is whatever no layer
     covers; and the root's duration, the traced in-process latency *)
  let layer_ms = Hashtbl.create 4096 and traced_ms = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      if s.req >= 0 then
        if s.parent < 0 then Hashtbl.replace traced_ms s.req (1000.0 *. dur s)
        else
          Hashtbl.replace layer_ms s.req
            ((1000.0 *. self s) +. Option.value ~default:0.0 (Hashtbl.find_opt layer_ms s.req)))
    !spans;
  let sums = List.mapi (fun i r -> (r, Hashtbl.find layer_ms i, Hashtbl.find traced_ms i)) rs in
  let reconciled =
    List.filter
      (fun ((r : replayed), layers, _) -> Float.abs (layers -. r.total_ms) <= reconcile_tolerance r.total_ms)
      sums
  in
  let weight_of xs = List.fold_left (fun a ((r : replayed), _, _) -> a + r.weight) 0 xs in
  let reconciled_frac = Util.frac (weight_of reconciled) (weight_of sums) in
  let total f = List.fold_left (fun a ((r : replayed), _, _ as x) -> a +. (f x *. float_of_int r.weight)) 0.0 sums in
  let layer_total = total (fun (_, layers, _) -> layers)
  and untraced_total = total (fun ((r : replayed), _, _) -> r.total_ms) in
  let totals_agree = Float.abs (layer_total -. untraced_total) <= reconcile_total *. untraced_total in
  let overhead_ms = wmean (List.map (fun ((r : replayed), _, traced) -> (traced -. r.total_ms, r.weight)) sums) in
  let rel_diff = List.map (fun ((r : replayed), layers, _) -> Float.abs (layers -. r.total_ms) /. r.total_ms) sums in
  (* the answers of both passes are checked like any other *)
  let outcomes =
    List.concat_map
      (fun (r : replayed) ->
        let o = function
          | Ok a -> Check.of_answer ~reference:(reference r.q) a
          | Error e -> Check.Typed_error (Core.Probdb_error.render e)
        in
        List.init r.weight (fun _ -> o r.answer) @ List.init r.weight (fun _ -> o r.plain_answer))
      rs
  in
  let self_us name pred =
    wmedian
      (List.filter_map
         (fun s ->
           if s.name = name && pred s then Some (self s *. 1e6, 1) else None)
         !spans)
  in
  let hit_roots = Hashtbl.create 64 in
  List.iter (fun (r : replayed) -> Hashtbl.replace hit_roots r.root r.hit) rs;
  let is_hit s = Option.value ~default:false (Hashtbl.find_opt hit_roots s.parent) in
  (* a replayed miss stands for one miss; its other occurrences would hit *)
  let misses = List.length (List.filter (fun (r : replayed) -> not r.hit) rs) in
  let total_w = List.fold_left (fun a (r : replayed) -> a + r.weight) 0 rs in
  let answers = List.filter_map (fun (r : replayed) -> match r.answer with Ok a -> Some (r, a) | Error _ -> None) rs in
  let won name = List.filter (fun ((_ : replayed), (a : Answer.t)) -> a.strategy = name) answers in
  (* grounded probes, once per distinct (query, database) *)
  let probes =
    let seen = Hashtbl.create 32 in
    List.filter_map
      (fun (r : replayed) ->
        match Hashtbl.find_opt seen (r.q.text, r.q.db) with
        | Some p -> (match p with Some p -> Some { p with p_weight = r.weight } | None -> None)
        | None ->
            let p = probe ~reference:(reference r.q) ~req:(-1) (db_of r.q) r in
            Hashtbl.replace seen (r.q.text, r.q.db) p;
            p)
      rs
  in
  let solo_metric name f =
    wmedian (List.filter_map (fun p -> Option.map (fun s -> (f s, p.p_weight)) (List.assoc_opt name p.solos)) probes)
  in
  let wasted =
    (* every answer counts; those without grounded trips wasted nothing *)
    let probed = List.fold_left (fun a p -> a +. (p.wasted_ms *. float_of_int p.p_weight)) 0.0 probes in
    probed /. float_of_int (max 1 total_w)
  in
  let attempts = List.map (fun ((r : replayed), a) -> (float_of_int (List.length (tripped a) + 1), r.weight)) answers in
  let n_answers = List.fold_left (fun a (_, w) -> a + w) 0 attempts in
  let n_attempts = List.fold_left (fun a (x, w) -> a +. (x *. float_of_int w)) 0.0 attempts in
  let count_w xs = float_of_int (List.fold_left (fun a ((r : replayed), _) -> a + r.weight) 0 xs) in
  let strategies = List.map E.strategy_name E.default_config.strategies in
  let kls = List.filter_map (fun p -> Option.map (fun k -> (k, p.p_weight)) p.kl) probes in
  let covered = List.filter_map (fun ((_, _, c), w) -> Option.map (fun c -> (c, w)) c) kls in
  let stat_of name f = solo_metric name (fun s -> f s.s_stats) in
  (* a tripped DPLL run fills no counters; its typed error says what it spent *)
  let decisions s =
    match (s.s_stats.Stats.dpll, s.s_answer) with
    | Some d, _ -> float_of_int d.branches
    | None, Error (Core.Probdb_error.Exhausted { detail; _ }) -> (
        match String.index_opt detail '(' with
        | Some i -> (try Scanf.sscanf (String.sub detail i (String.length detail - i)) "(spent %d)" float_of_int with _ -> 0.0)
        | None -> 0.0)
    | None, _ -> 0.0
  in
  let client_metrics =
    match client with
    | None -> []
    | Some (nominal, top, ping, stats) ->
        let residual =
          List.filter_map
            (fun ((s : Openloop.sample), (r : replayed)) ->
              if Check.ok s.outcome then Some (Openloop.latency_ms s -. r.eval_ms, 1) else None)
            (List.combine (Array.to_list nominal.samples) rs)
        in
        let n_top = Array.length top.samples in
        [ ("client.ping_rtt_us", Util.median ping *. 1e6);
          ("serve.stats_op_ms", Util.median stats *. 1000.0);
          ("serve.residual_p50_ms", wmedian residual);
          ("serve.residual_p99_ms", wquantile 0.99 residual);
          ("serve.shed_frac", Util.frac (Openloop.count (fun s -> s.outcome = Check.Shed) top) n_top);
          ("serve.degraded_load_frac", Util.frac (Openloop.count (fun s -> s.degraded_load) top) n_top);
          ("loadgen.lag_p99_ms", Float.max (Openloop.lag_p99_ms nominal) (Openloop.lag_p99_ms top)) ]
  in
  let client_value name = Util.or_zero (Option.value ~default:0.0 (List.assoc_opt name client_metrics)) in
  let metrics =
    [ m "protocol.parse_us" "us" (self_us "protocol.parse" (fun _ -> true));
      m "protocol.render_us" "us" (self_us "protocol.render" (fun _ -> true));
      m "client.ping_rtt_us" "us" (client_value "client.ping_rtt_us");
      m "serve.residual_p50_ms" "ms" (client_value "serve.residual_p50_ms");
      m "serve.residual_p99_ms" "ms" (client_value "serve.residual_p99_ms");
      m "serve.shed_frac" "frac" (client_value "serve.shed_frac");
      m "serve.degraded_load_frac" "frac" (client_value "serve.degraded_load_frac");
      m "serve.stats_op_ms" "ms" (client_value "serve.stats_op_ms");
      m "logic.parse_us" "us" (self_us "logic.parse" (fun _ -> true));
      m "prepare.hit_us" "us" (self_us "prepare" is_hit);
      m "prepare.miss_us" "us" (self_us "prepare" (fun s -> not (is_hit s)));
      m "prepare.hit_rate" "frac" (Util.frac (total_w - misses) total_w);
      m "prepare.evictions" "count" (float_of_int (Cache.counters cache).evictions);
      m "engine.eval_p50_ms" "ms" (wmedian (List.map (fun (r : replayed) -> (r.eval_ms, r.weight)) rs));
      m "engine.eval_p99_ms" "ms" (wquantile 0.99 (List.map (fun (r : replayed) -> (r.eval_ms, r.weight)) rs));
      m "engine.attempts_per_answer" "count" (n_attempts /. float_of_int (max 1 n_answers));
      m "engine.useful_attempt_frac" "frac" (float_of_int n_answers /. Float.max 1.0 n_attempts);
      m "engine.wasted_ms" "ms" wasted ]
    @ List.map (fun s -> m ("engine.wins." ^ s) "count" (count_w (won s))) strategies
    @ List.map
        (fun s ->
          m ("engine.trips." ^ s) "count"
            (count_w (List.filter (fun (_, a) -> List.mem s (tripped a)) answers)))
        strategies
    @ [ m "exec.plan_ms" "ms" (wmedian (List.map (fun ((r : replayed), _) -> (r.eval_ms, r.weight)) (won "safe-plan")));
        m "exec.rows_in_per_answer" "count"
          (wmean (List.map (fun ((r : replayed), (a : Answer.t)) -> (float_of_int a.stats.rows_processed, r.weight)) (won "safe-plan")));
        m "storage.open_ms" "ms" open_ms;
        m "storage.mapped_frac" "frac"
          (match mapped with Some st -> Util.frac (Storage.bytes_mapped st) (Storage.file_size st) | None -> 0.0);
        m "core.csv_load_s" "s" csv_load_s;
        m "lifted.ms" "ms" (wmedian (List.map (fun ((r : replayed), _) -> (r.eval_ms, r.weight)) (won "lifted")));
        m "lineage.ms" "ms" (wmedian (List.map (fun p -> (p.lineage_ms, p.p_weight)) probes));
        m "lineage.vars" "count" (wmedian (List.map (fun p -> (float_of_int p.lineage_vars, p.p_weight)) probes));
        m "wmc.ms" "ms" (solo_metric "wmc" (fun s -> s.s_ms));
        m "wmc.decisions" "count"
          (stat_of "wmc" (fun st -> match st.Stats.wmc with Some w -> float_of_int w.wmc_decisions | None -> 0.0));
        m "wmc.cache_hit_rate" "frac"
          (stat_of "wmc" (fun st ->
               match st.Stats.wmc with
               | Some w -> Util.frac w.wmc_cache_hits w.wmc_cache_queries
               | None -> 0.0));
        m "obdd.ms" "ms" (solo_metric "obdd" (fun s -> s.s_ms));
        m "obdd.nodes" "count"
          (stat_of "obdd" (fun st -> match st.Stats.circuit with Some c -> float_of_int c.nodes | None -> 0.0));
        m "dpll.ms" "ms" (solo_metric "dpll" (fun s -> s.s_ms));
        m "dpll.decisions" "count" (solo_metric "dpll" decisions);
        m "kl.ms" "ms" (wmedian (List.map (fun ((ms, _, _), w) -> (ms, w)) kls));
        m "kl.samples" "count" (wmedian (List.map (fun ((_, n, _), w) -> (float_of_int n, w)) kls));
        m "kl.ci_coverage" "frac" (wmean (List.map (fun (c, w) -> ((if c then 1.0 else 0.0), w)) covered));
        m "loadgen.lag_p99_ms" "ms" (client_value "loadgen.lag_p99_ms");
        m "trace.overhead_ms" "ms" overhead_ms;
        m "trace.reconciled_frac" "frac" reconciled_frac ]
  in
  write_spans (Filename.concat dir "spans.jsonl");
  Printf.printf
    "  trace: %d spans (%s); %d/%d requests reconcile within %s (need %.0f%%); \
     |layer sum - untraced| / untraced p50 %.3f p90 %.3f p99 %.3f; \
     layer sums %.1f ms vs untraced %.1f ms (need within %.0f%%)\n"
    (List.length !spans) (if nested then "nested, self times >= 0" else "NOT NESTED") (List.length reconciled)
    (List.length sums) reconcile_rule (100.0 *. reconcile_share)
    (Util.median rel_diff) (Util.quantile 0.9 rel_diff) (Util.quantile 0.99 rel_diff)
    layer_total untraced_total (100.0 *. reconcile_total);
  let extra = [ m "replayed_requests" "count" (float_of_int (List.length rs)) ] in
  (metrics, extra, outcomes, nested && reconciled_frac >= reconcile_share && totals_agree)
