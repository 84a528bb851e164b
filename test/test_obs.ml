(* Tests for the observability layer: stats populated by the engine,
   JSON round-tripping, and clock sanity. *)

module L = Probdb_logic
module E = Probdb_engine.Engine
module Q = Probdb_workload.Queries
module Gen = Probdb_workload.Gen
module Obs = Probdb_obs
module Stats = Probdb_obs.Stats
module Json = Probdb_obs.Json

let db_for q ~seed ~domain_size =
  let specs =
    List.map (fun (name, arity) -> Gen.spec ~density:0.7 name arity) (L.Fo.relations q)
  in
  Gen.random_tid ~seed ~domain_size specs

(* (a) A hierarchical (safe) query needs no inclusion–exclusion: the lifted
   rule counters must report zero IE expansions. *)
let test_safe_query_no_ie () =
  let q = L.Parser.parse_sentence "exists x y. R(x) && S(x,y)" in
  let db = db_for q ~seed:1 ~domain_size:3 in
  let stats = Stats.create () in
  let a = Test_util.eval ~stats db q in
  Alcotest.(check string) "lifted wins" "lifted" a.Probdb_engine.Answer.strategy;
  match stats.Stats.lifted with
  | None -> Alcotest.fail "lifted rule counts not populated"
  | Some rules ->
      Alcotest.(check int) "no inclusion-exclusion" 0 rules.Stats.ie_expansions;
      Alcotest.(check bool) "some rules fired" true
        (rules.Stats.independent_joins + rules.Stats.separator_steps > 0)

(* (b) Forcing an unsafe query through DPLL must surface nonzero branch
   counts in the stats record. *)
let test_unsafe_query_dpll_counts () =
  let db = Gen.h0_db ~seed:4 ~n:3 () in
  let config = { E.default_config with E.strategies = [ E.Dpll ] } in
  let stats = Stats.create () in
  let a = Test_util.eval ~config ~stats db Q.h0.Q.query in
  Alcotest.(check string) "dpll wins" "dpll" a.Probdb_engine.Answer.strategy;
  match stats.Stats.dpll with
  | None -> Alcotest.fail "dpll counts not populated"
  | Some d ->
      Alcotest.(check bool) "branches > 0" true (d.Stats.branches > 0);
      Alcotest.(check bool) "cache queried" true (d.Stats.cache_queries >= d.Stats.cache_hits);
      (match stats.Stats.circuit with
      | None -> Alcotest.fail "trace circuit counts not populated"
      | Some c -> Alcotest.(check bool) "trace nonempty" true (c.Stats.nodes > 0))

(* (c) The stats JSON must survive a parse round-trip through our own
   parser, with the important members intact. *)
let test_stats_json_roundtrip () =
  let db = Gen.h0_db ~seed:4 ~n:3 () in
  let stats = Stats.create () in
  let _ = Test_util.eval ~stats db Q.h0.Q.query in
  let doc = Stats.to_json stats in
  let text = Json.to_string ~pretty:true doc in
  match Json.of_string text with
  | Error msg -> Alcotest.failf "stats JSON does not parse: %s" msg
  | Ok reparsed ->
      Alcotest.(check bool) "round-trip preserves document" true (reparsed = doc);
      List.iter
        (fun key ->
          match Json.member key reparsed with
          | None -> Alcotest.failf "missing member %S" key
          | Some _ -> ())
        [ "query"; "strategy"; "probability"; "phases"; "lifted_rules"; "dpll";
          "circuit"; "plan"; "skipped"; "degraded"; "ci_low"; "ci_high"; "samples";
          "chain" ]

(* (d) The monotonic clock never goes backwards and all recorded phase
   timings are non-negative. *)
let test_timers_nonnegative () =
  let t0 = Obs.Clock.now () in
  Alcotest.(check bool) "clock non-negative" true (t0 >= 0.0);
  let last = ref t0 in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now () in
    Alcotest.(check bool) "clock monotone" true (t >= !last);
    last := t
  done;
  let q = L.Parser.parse_sentence "exists x y. R(x) && S(x,y)" in
  let db = db_for q ~seed:2 ~domain_size:3 in
  let stats = Stats.create () in
  let _ = Test_util.eval ~stats db q in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " >= 0") true (v >= 0.0))
    [ ("parse", stats.Stats.parse_s); ("classify", stats.Stats.classify_s);
      ("plan", stats.Stats.plan_s); ("solve", stats.Stats.solve_s);
      ("total", Stats.total_s stats) ]

(* Parser edge cases of the hand-rolled JSON layer. *)
let test_json_parser_edges () =
  let ok s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  Alcotest.(check bool) "escapes" true
    (ok {|{"s": "aA\n\"b\""}|} = Json.Obj [ ("s", Json.Str "aA\n\"b\"") ]);
  Alcotest.(check bool) "numbers" true
    (ok "[1, -2.5, 3e2]" = Json.List [ Json.Int 1; Json.Float (-2.5); Json.Float 300.0 ]);
  (match Json.of_string "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed object");
  (match Json.of_string "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage");
  let nonfinite = Json.to_string (Json.Float Float.nan) in
  Alcotest.(check string) "nan serialises as null" "null" nonfinite

(* ---------- Json round-trip property ---------- *)

(* Finite floats only: NaN/infinite serialise as null by design, so they
   cannot round-trip. *)
let gen_json =
  QCheck2.Gen.(
    sized_size (int_range 0 5) @@ fix (fun self n ->
        let leaf =
          oneof
            [ return Json.Null;
              map (fun b -> Json.Bool b) bool;
              map (fun i -> Json.Int i) int;
              map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
              (* full byte range: control characters force \u escapes *)
              map (fun s -> Json.Str s) (string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12)) ]
        in
        if n = 0 then leaf
        else
          oneof
            [ leaf;
              map (fun items -> Json.List items) (list_size (int_range 0 4) (self (n / 2)));
              map
                (fun fields -> Json.Obj fields)
                (list_size (int_range 0 4)
                   (pair (string_size ~gen:printable (int_range 0 8)) (self (n / 2)))) ]))

let prop_json_roundtrip =
  Test_util.qcheck ~count:500 "json parse . to_string = identity" gen_json
    (fun doc ->
      match Json.of_string (Json.to_string doc) with
      | Ok reparsed -> reparsed = doc
      | Error _ -> false)

(* Directed \u cases the generator is unlikely to hit: escapes decoding to
   UTF-8, surrogate pairs, and the rejection of unpaired surrogates. *)
let test_json_unicode_escapes () =
  let ok s = match Json.of_string s with Ok v -> v | Error e -> Alcotest.failf "%S: %s" s e in
  Alcotest.(check bool) "basic escape" true (ok {|"A"|} = Json.Str "A");
  Alcotest.(check bool) "two-byte UTF-8" true (ok {|"é"|} = Json.Str "\xc3\xa9");
  Alcotest.(check bool) "three-byte UTF-8" true (ok {|"€"|} = Json.Str "\xe2\x82\xac");
  Alcotest.(check bool) "surrogate pair" true
    (ok {|"😀"|} = Json.Str "\xf0\x9f\x98\x80");
  (match Json.of_string {|"\ud800"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unpaired high surrogate");
  match Json.of_string {|"\u12"|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated escape"

(* A deeply nested document must round-trip without blowing the stack. *)
let test_json_deep_nesting () =
  let deep = ref (Json.Int 1) in
  for _ = 1 to 1000 do
    deep := Json.List [ !deep ]
  done;
  match Json.of_string (Json.to_string !deep) with
  | Ok reparsed -> Alcotest.(check bool) "1000-deep round-trip" true (reparsed = !deep)
  | Error e -> Alcotest.failf "deep document does not parse: %s" e

(* ---------- Span self-time ---------- *)

let test_span_self_time () =
  let t = Obs.Span.create "root" in
  Obs.Span.with_ t "child" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
  Obs.Span.with_ t "child" (fun () -> ());
  let root = Obs.Span.finish t in
  let child = List.hd root.Obs.Span.children in
  Alcotest.(check int) "child entered twice" 2 child.Obs.Span.count;
  Test_util.check_float ~eps:1e-9 "root self = total - children"
    (root.Obs.Span.total_s -. child.Obs.Span.total_s)
    (Obs.Span.self_s root);
  Test_util.check_float ~eps:1e-9 "leaf self = leaf total" child.Obs.Span.total_s
    (Obs.Span.self_s child);
  (* self_s must appear in the JSON so tooling need not recompute it *)
  (match Json.member "self_s" (Obs.Span.to_json root) with
  | Some (Json.Float _) -> ()
  | _ -> Alcotest.fail "self_s missing from span JSON");
  (* pp renders without raising and mentions the child *)
  let rendered = Format.asprintf "%a" Obs.Span.pp root in
  Alcotest.(check bool) "pp mentions child" true
    (String.length rendered > 0
    && Option.is_some (String.index_opt rendered 'c'))

(* ---------- Stats gc + config sections ---------- *)

let test_stats_gc_section () =
  let stats = Stats.create () in
  let _ =
    Stats.with_gc stats (fun () ->
        Sys.opaque_identity (Array.init 100_000 float_of_int))
  in
  Alcotest.(check bool) "allocation observed" true (stats.Stats.gc.Stats.minor_words > 0.0);
  Alcotest.(check bool) "heap peak recorded" true
    (stats.Stats.gc.Stats.heap_peak_words > 0);
  match Json.member "gc" (Stats.to_json stats) with
  | Some (Json.Obj fields) ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
        [ "minor_words"; "major_words"; "promoted_words"; "minor_collections";
          "major_collections"; "compactions"; "heap_peak_words" ]
  | _ -> Alcotest.fail "gc section missing from stats JSON"

let test_stats_config_echo () =
  let db = Gen.h0_db ~seed:4 ~n:3 () in
  let config = { E.default_config with E.domains = 2; E.seed = 9 } in
  let stats = Stats.create () in
  let _ = Test_util.eval ~config ~stats db Q.h0.Q.query in
  match Json.member "config" (Stats.to_json stats) with
  | Some (Json.Obj fields) ->
      Alcotest.(check bool) "domains echoed" true
        (List.assoc_opt "domains" fields = Some (Json.Int 2));
      Alcotest.(check bool) "seed echoed" true
        (List.assoc_opt "seed" fields = Some (Json.Int 9));
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (List.mem_assoc k fields))
        [ "strategies"; "deadline_s"; "kl_samples"; "degrade" ]
  | Some Json.Null -> Alcotest.fail "config not populated by the engine"
  | _ -> Alcotest.fail "config section missing from stats JSON"

(* ---------- histogram merge properties ----------

   The windowed aggregator (Obs.Window) computes every rolling view by
   merging per-bucket histograms, so merge must be a commutative monoid
   up to observable state (counts, sum, quantiles — compared via the
   stable JSON projection). *)

module Histogram = Probdb_obs.Histogram
module Window = Probdb_obs.Window

let hist_of values =
  let h = Histogram.create () in
  List.iter (Histogram.add h) values;
  h

(* Fingerprint of the exactly-mergeable state: bucket counts, count,
   min/max and the quantiles derived from them. [sum]/[mean] are float
   accumulations whose last bits depend on addition order, so they are
   checked separately with a relative tolerance. *)
let hist_fingerprint h =
  match Histogram.to_json h with
  | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.filter (fun (k, _) -> k <> "sum" && k <> "mean") fields))
  | j -> Json.to_string j

let close_sums a b =
  let sa = Histogram.sum a and sb = Histogram.sum b in
  Float.abs (sa -. sb) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs sa) (Float.abs sb))

let merged a b =
  let into = Histogram.copy a in
  Histogram.merge_into ~into b;
  into

let gen_values =
  QCheck.Gen.(
    list_size (int_bound 40)
      (oneof
         [
           float_bound_exclusive 1.0;
           map (fun f -> f *. 1e-6) (float_bound_exclusive 1.0);
           map (fun f -> f *. 1e6) (float_bound_exclusive 1.0);
           return 0.0;
         ]))

let arb_values = QCheck.make ~print:QCheck.Print.(list string_of_float) gen_values

let prop_merge_commutative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"histogram merge commutes" ~count:100
       (QCheck.pair arb_values arb_values)
       (fun (xs, ys) ->
         let a = hist_of xs and b = hist_of ys in
         let ab = merged a b and ba = merged b a in
         hist_fingerprint ab = hist_fingerprint ba && close_sums ab ba))

let prop_merge_associative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"histogram merge associates" ~count:100
       (QCheck.triple arb_values arb_values arb_values)
       (fun (xs, ys, zs) ->
         let a () = hist_of xs and b () = hist_of ys and c () = hist_of zs in
         let l = merged (merged (a ()) (b ())) (c ())
         and r = merged (a ()) (merged (b ()) (c ())) in
         hist_fingerprint l = hist_fingerprint r && close_sums l r))

(* Merging many sparse histograms must answer quantiles within the
   documented per-histogram error bound: merge adds bucket counts
   exactly, so sparseness cannot degrade accuracy. 2000 observations of
   [i] spread one-per-histogram across 200 merges; the p-quantile of
   1..n is within relative_error of p*n. *)
let test_merge_quantile_bounds () =
  let n = 2000 in
  let shards = Array.init 200 (fun _ -> Histogram.create ()) in
  for i = 1 to n do
    Histogram.add shards.(i mod 200) (float_of_int i)
  done;
  let all = Histogram.create () in
  Array.iter (fun h -> Histogram.merge_into ~into:all h) shards;
  Alcotest.(check int) "merged count" n (Histogram.count all);
  List.iter
    (fun p ->
      let want = p *. float_of_int n in
      let got = Histogram.quantile all p in
      let rel = Float.abs (got -. want) /. want in
      if rel > Histogram.relative_error +. 0.01 then
        Alcotest.failf "p%.0f: got %g want %g (rel %.3f)" (p *. 100.0) got want
          rel)
    [ 0.5; 0.9; 0.99 ]

(* ---------- windowed aggregation ---------- *)

let test_window_counter_basics () =
  let c = Window.counter () in
  Window.add c 3;
  Window.incr c;
  Alcotest.(check int) "in-horizon total" 4 (Window.total c ~horizon_s:10.0);
  Alcotest.(check bool) "rate positive" true (Window.rate c ~horizon_s:10.0 > 0.0)

(* Events age out once the ring has rotated past them: with 4 x 50ms
   buckets the ring spans 200ms, so after 400ms the count is gone while
   a cumulative counter would still hold it. *)
let test_window_counter_expiry () =
  let c = Window.counter ~buckets:4 ~bucket_s:0.05 () in
  Window.add c 7;
  Alcotest.(check int) "visible now" 7 (Window.total c ~horizon_s:1.0);
  Unix.sleepf 0.4;
  Alcotest.(check int) "expired" 0 (Window.total c ~horizon_s:1.0)

let test_window_histogram () =
  let h = Window.histogram () in
  List.iter (Window.observe h) [ 0.01; 0.02; 0.03; 0.04; 0.05 ];
  let snap = Window.snapshot h ~horizon_s:10.0 in
  Alcotest.(check int) "all observed" 5 (Histogram.count snap);
  let p50 = Histogram.quantile snap 0.5 in
  Alcotest.(check bool) "median in range" true (p50 > 0.02 && p50 < 0.045)

let test_window_histogram_expiry () =
  let h = Window.histogram ~buckets:4 ~bucket_s:0.05 () in
  Window.observe h 1.0;
  Unix.sleepf 0.4;
  Alcotest.(check int) "expired" 0
    (Histogram.count (Window.snapshot h ~horizon_s:1.0))

let test_window_invalid_args () =
  Alcotest.check_raises "zero buckets"
    (Invalid_argument "Window.counter: buckets must be >= 1") (fun () ->
      ignore (Window.counter ~buckets:0 ()));
  Alcotest.check_raises "bad bucket width"
    (Invalid_argument "Window.histogram: bucket_s must be > 0") (fun () ->
      ignore (Window.histogram ~bucket_s:0.0 ()))

(* ---------- request ids ---------- *)

module Request_id = Probdb_obs.Request_id

let test_request_id_mint () =
  let a = Request_id.mint () and b = Request_id.mint () in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check int) "16 hex chars" 16 (String.length a);
  Alcotest.(check bool) "valid" true (Request_id.valid a && Request_id.valid b)

let test_request_id_valid () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool) (Printf.sprintf "valid %S" s) want
        (Request_id.valid s))
    [
      ("abc-123", true);
      ("", false);
      ("has space", false);
      ("tab\there", false);
      (String.make 128 'x', true);
      (String.make 129 'x', false);
      ("caf\xc3\xa9", false);
    ]

let suites =
  [
    ( "window",
      [
        prop_merge_commutative;
        prop_merge_associative;
        Alcotest.test_case "merged sparse histograms keep quantile bounds"
          `Quick test_merge_quantile_bounds;
        Alcotest.test_case "windowed counter: totals and rates" `Quick
          test_window_counter_basics;
        Alcotest.test_case "windowed counter: events age out" `Quick
          test_window_counter_expiry;
        Alcotest.test_case "windowed histogram: merge-on-read quantiles" `Quick
          test_window_histogram;
        Alcotest.test_case "windowed histogram: events age out" `Quick
          test_window_histogram_expiry;
        Alcotest.test_case "window: invalid parameters rejected" `Quick
          test_window_invalid_args;
        Alcotest.test_case "request ids: minting" `Quick test_request_id_mint;
        Alcotest.test_case "request ids: validation" `Quick
          test_request_id_valid;
      ] );
    ( "obs",
      [
        Alcotest.test_case "safe query: zero inclusion-exclusion" `Quick
          test_safe_query_no_ie;
        Alcotest.test_case "unsafe query via DPLL: nonzero branches" `Quick
          test_unsafe_query_dpll_counts;
        Alcotest.test_case "stats JSON round-trips" `Quick test_stats_json_roundtrip;
        Alcotest.test_case "timers monotone and non-negative" `Quick
          test_timers_nonnegative;
        Alcotest.test_case "json parser edge cases" `Quick test_json_parser_edges;
        prop_json_roundtrip;
        Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
        Alcotest.test_case "json deep nesting round-trips" `Quick
          test_json_deep_nesting;
        Alcotest.test_case "span self-time" `Quick test_span_self_time;
        Alcotest.test_case "stats gc section" `Quick test_stats_gc_section;
        Alcotest.test_case "stats config echo" `Quick test_stats_config_echo;
      ] );
  ]
