(* The untraced measurement of each workload: set-up, the open-loop rungs
   against a `probdb serve` child, and the closed-loop batch. *)

module Core = Probdb_core
module E = Probdb_engine.Engine
module Json = Probdb_obs.Json
module Cache = Probdb_prepare.Prepare.Cache

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* ---------- SLO of the serving workload ---------- *)

(* A rung meets the SLO when its p99 is within the latency limit, at most
   1% of its requests failed, and its backlog is not growing. *)
let p99_limit_ms = 250.0
let failed_limit = 0.01
let meets_slo = Openloop.meets_slo ~p99_limit_ms ~failed_limit

(* one stats op per second on the load connection: an operator's scrape *)
let stats_every = 1.0

(* Set-ups per run; setup_s is their median. They are spread through the
   run, so that a stretch of host contention moves a few of them and not
   the median. *)
let setups = 11

(* Exact answers over ok answers (exact or degraded). Over requests sent,
   as exact_frac is, the share also counts the shed requests, whose number
   follows the host's speed more than the server's policy. *)
let exact_answer_frac outcomes =
  Util.frac (List.length (List.filter Check.exact outcomes)) (List.length (List.filter Check.ok outcomes))

(* ---------- serving workload ---------- *)

(* Server start until ping answers, then one warm-up pass (one request per
   query structure). *)
let setup_server ~probdb ~path ~reference (inp : Inputs.t) =
  let t0 = Util.now () in
  let srv = Openloop.start_server ~probdb ~db:path in
  let c = Openloop.connect srv.port in
  if not (Probdb_serve.Client.ok (Openloop.call c "{\"op\":\"ping\"}")) then Util.fail "ping failed";
  List.iteri
    (fun i (q : Inputs.request) ->
      let resp = Openloop.call c (Openloop.request_line ~id:i q.text) in
      match Openloop.classify ~reference:(reference q) resp with
      | Check.Exact_ok | Check.Degraded_ok _ -> ()
      | o -> Util.fail "warm-up %s: %s" q.text (Check.name o))
    inp.shapes;
  Openloop.close c;
  (Util.now () -. t0, srv)

(* [n] more set-ups of servers that are stopped again, made while the
   server under test is idle between two phases *)
let extra_setups ~probdb ~path ~reference inp n =
  List.init n (fun _ ->
      let dt, srv = setup_server ~probdb ~path ~reference inp in
      Openloop.stop_server srv;
      dt)

let print_setups times =
  Printf.printf "  set-ups: %s s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") times))

let rung_line (r : Openloop.rung_result) =
  let n = Array.length r.samples in
  let c o = Openloop.count (fun s -> Check.name s.outcome = o) r in
  Printf.printf
    "  rung %-13s sent %5d  exact %5d degraded %4d shed %5d no-method %4d timeout %d wrong %d  \
     p50 %8.2f ms  p99 %8.2f ms  ok/s %7.1f  lag p99 %.2f ms%s\n"
    r.rung.label n (c "exact") (c "degraded") (c "shed") (c "no-method") (c "timeout") (c "wrong")
    (Util.median (Openloop.latencies r))
    (Util.quantile 0.99 (Openloop.latencies r))
    (Openloop.ok_per_s r) (Openloop.lag_p99_ms r)
    (if meets_slo r then "" else if Openloop.backlog_growing r then "  misses SLO, backlog growing" else "  misses SLO")

(* A rung is valid only when the generator kept to its schedule: its send
   lag p99 stays under this bound, which sits above the 5-9 ms scheduling
   stalls an idle 2-core VM shows at p99 for a plain timed sleep. *)
let lag_bound_ms = 25.0

let shape_line (r : Openloop.rung_result) =
  let shapes = List.sort_uniq compare (Array.to_list (Array.map (fun (s : Openloop.sample) -> s.q.shape) r.samples)) in
  Printf.printf "    %s by shape:" r.rung.label;
  List.iter
    (fun sh ->
      let l = List.filter_map (fun (s : Openloop.sample) -> if s.q.shape = sh then Some (Openloop.latency_ms s) else None) (Array.to_list r.samples) in
      Printf.printf " %s n=%d p50=%.2f p90=%.2f" sh (List.length l) (Util.median l) (Util.quantile 0.9 l))
    shapes;
  print_newline ()

(* One repeat of the ladder climbs until a rung misses the SLO: the rungs
   above it cannot count, so they are not sent. Its max_qps_at_slo is the
   ok replies per second of its highest passing rung. *)
let climb run ladder =
  let rec go acc = function
    | [] -> List.rev acc
    | r :: rest ->
        let res = run r in
        if meets_slo res then go (res :: acc) rest else List.rev (res :: acc)
  in
  go [] ladder

let max_qps climb =
  match List.rev (List.filter meets_slo climb) with r :: _ -> Openloop.ok_per_s r | [] -> 0.0

let serve_run ~probdb ~dir (inp : Inputs.t) ~reference =
  let plan = Option.get inp.serve in
  let path = Inputs.packed_path dir in
  (* three set-ups before the load, the last of which is the server under
     test, then one after each round and one at the end *)
  let times = ref (extra_setups ~probdb ~path ~reference inp 2) in
  let dt, srv = setup_server ~probdb ~path ~reference inp in
  times := !times @ [ dt ];
  let between () = times := !times @ extra_setups ~probdb ~path ~reference inp 1 in
  let run = Openloop.run_rung ~port:srv.port ~reference ~stats_every in
  let nominal = run plan.nominal in
  let rounds =
    List.map2
      (fun ladder burst ->
        let c = climb run ladder in
        let o = run burst in
        between ();
        (c, o))
      plan.ladders plan.overloads
  in
  between ();
  let rss = Util.vm_hwm_mb (string_of_int srv.pid) in
  Openloop.stop_server srv;
  let climbs, bursts = List.split rounds in
  let results = nominal :: List.concat_map (fun (c, o) -> c @ [ o ]) rounds in
  print_setups !times;
  if List.length !times <> setups then Util.fail "%d set-ups, expected %d" (List.length !times) setups;
  let setup_s = Util.median !times in
  List.iter rung_line results;
  shape_line nominal;
  let all = List.concat_map (fun r -> Array.to_list r.Openloop.samples) results in
  (* a late generator invalidates a rung's timing, not the server's
     answers: the rung is flagged and counted, and [correct] stays about
     the answers *)
  let invalid = List.filter (fun r -> Openloop.lag_p99_ms r > lag_bound_ms) results in
  List.iter (fun (r : Openloop.rung_result) -> Printf.printf "  rung %s INVALID: generator lag p99 above %.0f ms\n" r.rung.label lag_bound_ms) invalid;
  let share p xs = Util.frac (List.length (List.filter p xs)) (List.length xs) in
  let samples_of = List.concat_map (fun (r : Openloop.rung_result) -> Array.to_list r.samples) in
  let nominal_samples = Array.to_list nominal.samples in
  let burst_samples = samples_of bursts in
  let ladder_max = List.map max_qps climbs and goodputs = List.map Openloop.steady_ok_per_s bursts in
  let extra =
    m "max_qps_at_slo" "1/s" (Util.median ladder_max)
    :: List.mapi (fun i v -> m (Printf.sprintf "ladder%d_max_qps" (i + 1)) "1/s" v) ladder_max
    @ List.mapi (fun i v -> m (Printf.sprintf "burst%d_goodput_qps" (i + 1)) "1/s" v) goodputs
    @ [ m "overload_failed_frac" "frac" (share (fun (s : Openloop.sample) -> not (Check.ok s.outcome)) burst_samples);
        m "failed_frac" "frac" (share (fun (s : Openloop.sample) -> not (Check.ok s.outcome)) all);
        m "invalid_rungs" "count" (float_of_int (List.length invalid));
        m "exact_frac" "frac" (share (fun (s : Openloop.sample) -> Check.exact s.outcome) all);
        m "nominal_failed_frac" "frac" (share (fun (s : Openloop.sample) -> not (Check.ok s.outcome)) nominal_samples);
        m "p50_ms" "ms" (Util.median (List.map Openloop.latency_ms nominal_samples));
        m "p99_ms" "ms" (Util.quantile 0.99 (List.map Openloop.latency_ms nominal_samples)) ]
  in
  let metrics =
    [ m "setup_s" "s" setup_s;
      m "goodput_qps" "1/s" (Util.median goodputs);
      m "exact_answer_frac" "frac" (exact_answer_frac (List.map (fun (s : Openloop.sample) -> s.outcome) all));
      m "rss_mb" "MB" rss ]
  in
  let outcomes = List.map (fun (s : Openloop.sample) -> s.outcome) all in
  (metrics, extra, outcomes, true)

(* ---------- batch_grounded ---------- *)

(* `probdb eval`'s configuration: the default engine plus the default
   compiled-plan cache. *)
let eval_config () = { E.default_config with E.plan_cache = Some (Cache.create_default ()) }

let load_pool dir (inp : Inputs.t) = Array.mapi (fun i _ -> Core.Csv_io.load_dir (Inputs.db_dir dir i)) inp.dbs

let batch_setup dir (inp : Inputs.t) ~reference =
  let t0 = Util.now () in
  let dbs = load_pool dir inp in
  let config = eval_config () in
  List.iter
    (fun (q : Inputs.request) ->
      let fo = Probdb_logic.Parser.parse_sentence q.text in
      match E.eval ~config dbs.(q.db) fo with
      | Ok a when Check.ok (Check.of_answer ~reference:(reference q) a) -> ()
      | _ -> Util.fail "warm-up %s failed" q.text)
    inp.shapes;
  (Util.now () -. t0, dbs, config)

let batch_chunk = 2000

let batch_run ~dir (inp : Inputs.t) ~reference =
  (* four set-ups before the pass, the last of which the pass uses, then
     one after each chunk of the pass, outside the timed part *)
  let setup () = let dt, _, _ = batch_setup dir inp ~reference in dt in
  let times = ref (List.init 3 (fun _ -> setup ())) in
  let dt, dbs, config = batch_setup dir inp ~reference in
  times := !times @ [ dt ];
  let eval (q : Inputs.request) =
    let s = Util.now () in
    let o =
      match E.eval ~config dbs.(q.db) (Probdb_logic.Parser.parse_sentence q.text) with
      | Ok a -> Check.of_answer ~reference:(reference q) a
      | Error e -> Check.Typed_error (Core.Probdb_error.render e)
    in
    (q, o, (Util.now () -. s) *. 1000.0)
  in
  let wall = ref 0.0 in
  let results =
    Array.concat
      (List.init (Array.length inp.stream / batch_chunk) (fun c ->
           let t0 = Util.now () in
           let r = Array.map eval (Array.sub inp.stream (c * batch_chunk) batch_chunk) in
           wall := !wall +. (Util.now () -. t0);
           times := !times @ [ setup () ];
           r))
  in
  let wall = !wall in
  print_setups !times;
  if List.length !times <> setups || Array.length results <> Array.length inp.stream then
    Util.fail "the pass must be %d chunks of %d queries" (setups - 4) batch_chunk;
  let setup_s = Util.median !times in
  let outcomes = Array.to_list (Array.map (fun (_, o, _) -> o) results) in
  let lat = Array.map (fun (_, o, ms) -> if Check.ok o then ms else Float.infinity) results in
  (* p50/p99 are medians over consecutive chunks of the pass, each with
     the 1000 calls a p99 needs, so a stretch of host contention moves one
     chunk and not the result *)
  let chunks = Array.length lat / batch_chunk in
  let per_chunk f =
    Util.median (List.init chunks (fun c -> f (Array.to_list (Array.sub lat (c * batch_chunk) batch_chunk))))
  in
  let n = Array.length results in
  let ok = List.length (List.filter Check.ok outcomes) in
  let slow = Array.fold_left (fun acc ((q : Inputs.request), _, ms) -> if q.shape = Inputs.slow_shape then acc +. ms else acc) 0.0 results in
  Printf.printf "  pass: %d queries in %.2f s; %s share of the pass %.1f%%\n" n wall Inputs.slow_shape
    (100.0 *. slow /. 1000.0 /. wall);
  let shapes = List.sort_uniq compare (Array.to_list (Array.map (fun ((q : Inputs.request), _, _) -> q.shape ^ "@" ^ string_of_int q.db) results)) in
  List.iter (fun sh ->
    let l = List.filter_map (fun ((q : Inputs.request), _, ms) -> if q.shape ^ "@" ^ string_of_int q.db = sh then Some ms else None) (Array.to_list results) in
    Printf.printf "    %s n=%d p50=%.2f ms sum=%.2f s\n" sh (List.length l) (Util.median l) (List.fold_left (+.) 0.0 l /. 1000.0)) shapes;
  let batch_qps = float_of_int ok /. wall in
  let metrics =
    [ m "setup_s" "s" setup_s;
      m "goodput_qps" "1/s" batch_qps;
      m "exact_answer_frac" "frac" (exact_answer_frac outcomes);
      m "rss_mb" "MB" (Util.vm_hwm_mb "self") ]
  in
  let extra =
    [ (* one caller offers one load level: its own completion rate *)
      m "max_qps_at_slo" "1/s" (if per_chunk (Util.quantile 0.99) <= 1000.0 then batch_qps else 0.0);
      m "p50_ms" "ms" (per_chunk Util.median);
      m "p99_ms" "ms" (per_chunk (Util.quantile 0.99));
      m "batch_qps" "1/s" batch_qps;
      m "exact_frac" "frac" (Util.frac (List.length (List.filter Check.exact outcomes)) n);
      m "failed_frac" "frac" (Util.frac (n - ok) n);
      m "slow_query_share" "frac" (slow /. 1000.0 /. wall) ]
  in
  (metrics, extra, outcomes, true)

