(* The [probdb serve] suite: protocol conformance, concurrency
   bit-identity against in-process evaluation, admission control,
   overload shedding, and shutdown semantics — everything over a real
   TCP loopback socket, on an ephemeral port per test.

   The multi-client soak scales with PROBDB_SOAK=1 (what `make
   check-serve` sets): 8 clients x 1000 requests instead of the quick
   8 x 50. *)

module Serve = Probdb_serve.Serve
module Client = Probdb_serve.Client
module Protocol = Probdb_serve.Protocol
module Json = Probdb_obs.Json
module E = Probdb_engine.Engine
module Answer = Probdb_engine.Answer
module L = Probdb_logic
module Gen = Probdb_workload.Gen
module Err = Probdb_core.Probdb_error
module Prepare = Probdb_prepare.Prepare

let small_db () =
  Gen.random_tid ~seed:11 ~domain_size:6
    [ Gen.spec ~density:0.5 "R" 1; Gen.spec ~density:0.3 "S" 2;
      Gen.spec ~density:0.5 "T" 1 ]

(* Big enough that grounded exact inference on the unsafe H0-shaped query
   polls its guard many times — the deadline and degradation paths need
   work to interrupt. *)
let hard_db () =
  Gen.random_tid ~seed:3 ~domain_size:26
    [ Gen.spec ~density:0.85 "R" 1; Gen.spec ~density:0.8 "S" 2;
      Gen.spec ~density:0.85 "T" 1 ]

(* Small, but with enough H0 lineage (~16 clauses) that the (eps,delta)
   fallback draws its full 20k samples (~15 ms) while OBDD compiles H0
   exactly in about a millisecond: the shape of mixed serving traffic. *)
let mixed_db () =
  Gen.random_tid ~seed:11 ~domain_size:7
    [ Gen.spec ~density:0.8 "R" 1; Gen.spec ~density:0.5 "S" 2;
      Gen.spec ~density:0.8 "T" 1 ]

let h0 = "exists x y. R(x) && S(x,y) && T(y)"

let queries =
  [ "exists x y. R(x) && S(x,y)";
    "exists x. R(x)";
    h0;
    "forall x y. R(x) || S(x,y)";
    "exists x y. R(x) && S(x,y) && R(y)" ]

let with_server ?config db f =
  let config =
    match config with
    | Some c -> { c with Serve.port = 0 }
    | None -> { Serve.default_config with Serve.port = 0 }
  in
  let server = Serve.start ~config db in
  Fun.protect ~finally:(fun () -> Serve.stop server) (fun () ->
      f server (Serve.port server))

let get name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S in %s" name (Json.to_string j)

let float_of name j =
  match get name j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> Alcotest.failf "%S is not a number" name

let bool_of name j =
  match get name j with
  | Json.Bool b -> b
  | _ -> Alcotest.failf "%S is not a boolean" name

(* ---------- protocol conformance ---------- *)

let test_protocol_ops () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check bool) "ping" true (Client.ping c);
  (* stats has the documented serve-block fields *)
  let stats = Client.result (Client.call c [ ("op", Json.Str "stats") ]) in
  List.iter
    (fun k -> ignore (get k stats))
    [ "uptime_s"; "workers"; "queue_capacity"; "queue_depth"; "degrade_above";
      "in_flight"; "connections_accepted"; "connections_active"; "requests";
      "eval_ok"; "eval_error"; "shed"; "degraded_under_load"; "worker_failures" ];
  (* metrics is the process-wide registry document *)
  let metrics = Client.result (Client.call c [ ("op", Json.Str "metrics") ]) in
  ignore (get "counters" metrics);
  ignore (get "gauges" metrics);
  ignore (get "histograms" metrics);
  (* trace returns a Chrome trace_event document *)
  let trace =
    Client.result (Client.call c [ ("op", Json.Str "trace"); ("ms", Json.Int 10) ])
  in
  ignore (get "traceEvents" trace);
  (* id round-trips verbatim, including non-integer ids *)
  let resp =
    Client.call c [ ("id", Json.Str "abc"); ("op", Json.Str "ping") ]
  in
  (match get "id" resp with
  | Json.Str "abc" -> ()
  | j -> Alcotest.failf "id not echoed: %s" (Json.to_string j))

let expect_error ~cls ~code resp =
  Alcotest.(check bool) "ok=false" false (Client.ok resp);
  let err = get "error" resp in
  (match get "class" err with
  | Json.Str c -> Alcotest.(check string) "error class" cls c
  | _ -> Alcotest.fail "error class not a string");
  match get "code" err with
  | Json.Int c -> Alcotest.(check int) "error code" code c
  | _ -> Alcotest.fail "error code not an int"

let test_malformed_requests () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let roundtrip line =
    Client.send_line c line;
    match Json.of_string (Client.recv_line c) with
    | Ok j -> j
    | Error m -> Alcotest.failf "response not JSON: %s" m
  in
  (* not JSON at all *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip "this is not json");
  (* JSON but not an object *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip "[1,2,3]");
  (* missing op defaults to eval, which then lacks its query — and the
     error still echoes the request id so pipelined clients can match it *)
  let missing = roundtrip {|{"id":17}|} in
  expect_error ~cls:"bad-request" ~code:10 missing;
  (match Json.member "id" missing with
  | Some (Json.Int 17) -> ()
  | other ->
      Alcotest.failf "parse error lost the id: %s"
        (match other with Some j -> Json.to_string j | None -> "absent"));
  (* ...and a well-formed op-less request really is an eval *)
  (match Json.member "ok" (roundtrip {|{"id":18,"query":"exists x. R(x)"}|}) with
  | Some (Json.Bool true) -> ()
  | _ -> Alcotest.fail "op-less eval request did not succeed");
  (* unknown op *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip {|{"op":"frobnicate"}|});
  (* eval without query *)
  expect_error ~cls:"bad-request" ~code:10 (roundtrip {|{"op":"eval"}|});
  (* wrong field type *)
  expect_error ~cls:"bad-request" ~code:10
    (roundtrip {|{"op":"eval","query":42}|});
  (* unknown method: recognised at evaluation, still typed *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("method", Json.Str "quantum") ] "exists x. R(x)");
  (* out-of-range numeric fields: bad-request, not an internal engine
     error surfacing from a guard or sampler invariant *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("samples", Json.Int 0) ] "exists x. R(x)");
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("deadline_ms", Json.Int (-5)) ] "exists x. R(x)");
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval c ~fields:[ ("eps", Json.Float 0.0) ] "exists x. R(x)");
  (* a query that does not parse: the typed parse error, code 4 *)
  expect_error ~cls:"parse" ~code:4 (Client.eval c "exists x. R(x");
  (* the connection survived all of the above *)
  Alcotest.(check bool) "still serving" true (Client.ping c)

(* ---------- bit-identity against in-process evaluation ---------- *)

let local_value db q =
  match
    E.eval ~config:E.default_config db (L.Parser.parse_sentence q)
  with
  | Ok a -> a.Answer.value
  | Error e -> Alcotest.failf "local eval failed: %s" (Err.render e)

let test_eval_matches_local () =
  let db = small_db () in
  let expected = List.map (fun q -> (q, local_value db q)) queries in
  with_server db @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  List.iter
    (fun (q, want) ->
      let resp = Client.eval c q in
      Alcotest.(check bool) ("ok for " ^ q) true (Client.ok resp);
      let got = float_of "value" (Client.result resp) in
      if got <> want then
        Alcotest.failf "%s: served %.17g <> local %.17g" q got want)
    expected

let test_free_bindings_are_answers () =
  (* each binding of a non-Boolean query carries the closed-query answer
     object, and its value is bit-identical to in-process [E.answers] *)
  let db = small_db () in
  let text = "exists y. R(x) && S(x,y)" in
  let local =
    E.answers ~free:[ "x" ] db (L.Parser.parse ~free:[ "x" ] text)
    |> List.map (fun (_, (a : Answer.t)) -> a.Answer.value)
  in
  with_server db @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let free = ("free", Json.List [ Json.Str "x" ]) in
  let resp = Client.eval c ~fields:[ free ] text in
  Alcotest.(check bool) "ok" true (Client.ok resp);
  let served =
    match get "bindings" (Client.result resp) with
    | Json.List bs ->
        List.map
          (fun b ->
            let a = get "answer" b in
            List.iter (fun k -> ignore (get k a)) [ "exact"; "strategy"; "chain" ];
            Alcotest.(check bool) "not degraded" false (bool_of "degraded" a);
            float_of "value" a)
          bs
    | _ -> Alcotest.fail "bindings is not a list"
  in
  Alcotest.(check (list (float 0.0))) "served = local" local served;
  (* a binding no strategy can answer fails typed, like a closed query *)
  expect_error ~cls:"no-method" ~code:6
    (Client.eval c
       ~fields:
         [ free; ("method", Json.Str "symmetric"); ("no_degrade", Json.Bool true) ]
       "R(x)")

let test_concurrent_clients_bit_identical () =
  let db = small_db () in
  let expected = List.map (fun q -> (q, local_value db q)) queries in
  let soak = Sys.getenv_opt "PROBDB_SOAK" = Some "1" in
  let clients = 8 and rounds = if soak then 200 else 10 in
  (* 8 clients x rounds x 5 queries: 8000 requests in soak mode *)
  with_server db @@ fun server port ->
  let failures = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let client_loop _i =
    let c = Client.connect port in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    for _ = 1 to rounds do
      List.iter
        (fun (q, want) ->
          let resp = Client.eval c q in
          let got = float_of "value" (Client.result resp) in
          Atomic.incr answered;
          if not (Client.ok resp) || got <> want then Atomic.incr failures)
        expected
    done
  in
  let threads = List.init clients (fun i -> Thread.create client_loop i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no mismatched answers" 0 (Atomic.get failures);
  Alcotest.(check int) "every request answered"
    (clients * rounds * List.length expected)
    (Atomic.get answered);
  (* zero dropped connections: the servers saw exactly [clients] + none shed *)
  let stats = Serve.stats_json server in
  (match Json.member "shed" stats with
  | Some (Json.Int 0) -> ()
  | j ->
      Alcotest.failf "unexpected shedding under default capacity: %s"
        (match j with Some j -> Json.to_string j | None -> "missing"))

let test_pipelined_requests () =
  (* many requests written before any response is read; per-connection
     answers come back for every id exactly once *)
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 20 in
  for i = 0 to n - 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str "exists x. R(x)") ]))
  done;
  let seen = Hashtbl.create n in
  for _ = 1 to n do
    match Json.of_string (Client.recv_line c) with
    | Ok resp -> (
        Alcotest.(check bool) "ok" true (Client.ok resp);
        match get "id" resp with
        | Json.Int i -> Hashtbl.replace seen i ()
        | _ -> Alcotest.fail "non-integer id echoed")
    | Error m -> Alcotest.failf "bad response: %s" m
  done;
  Alcotest.(check int) "every id answered once" n (Hashtbl.length seen)

(* ---------- deadlines, degradation, overload ---------- *)

let test_deadline_degrades () =
  (* a 1 ms deadline on an unsafe query over the hard database: exact
     inference cannot finish, the guard trips, the answer is the certified
     (eps,delta) fallback *)
  with_server (hard_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let resp = Client.eval c ~fields:[ ("deadline_ms", Json.Int 1) ] h0 in
  Alcotest.(check bool) "ok (degraded, not dropped)" true (Client.ok resp);
  let r = Client.result resp in
  Alcotest.(check bool) "degraded" true (bool_of "degraded" r);
  let conf = get "confidence" r in
  let lo = float_of "ci_low" conf and hi = float_of "ci_high" conf in
  let v = float_of "value" r in
  Alcotest.(check bool) "value inside its own CI" true (lo <= v && v <= hi)

let test_deadline_no_degrade_fails_typed () =
  with_server (hard_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let resp =
    Client.eval c
      ~fields:[ ("deadline_ms", Json.Int 1); ("no_degrade", Json.Bool true) ]
      h0
  in
  (* exhausted (7): a guard tripped and no fallback was allowed *)
  expect_error ~cls:"exhausted" ~code:7 resp

let test_overload_sheds_typed () =
  (* one worker wedged on slow sampling work, capacity 1, no degradation
     watermark: the pipelined burst must shed with the typed overloaded
     error and never queue unboundedly. The stall watchdog is off: the
     wedge's length depends on the host, and a slow host must not turn
     the served requests into typed [internal] replies from a doomed
     worker — the watchdog has its own tests. *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 1;
      degrade_above = 0;
      worker_stall_deadline_ms = 0 }
  in
  with_server ~config (hard_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 8 in
  for i = 0 to n - 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              ("method", Json.Str "karp-luby");
              ("samples", Json.Int 200_000) ]))
  done;
  let ok = ref 0 and shed = ref 0 and other = ref [] in
  for _ = 1 to n do
    match Json.of_string (Client.recv_line c) with
    | Ok resp ->
        if Client.ok resp then incr ok
        else if Client.error_class resp = Some "overloaded" then begin
          incr shed;
          let err = get "error" resp in
          ignore (get "depth" err);
          ignore (get "capacity" err);
          match get "code" err with
          | Json.Int 8 -> ()
          | _ -> Alcotest.fail "overloaded code <> 8"
        end
        else
          other :=
            Option.value (Client.error_class resp) ~default:"(no class)"
            :: !other
    | Error m -> Alcotest.failf "bad response: %s" m
  done;
  Alcotest.(check int) "every request answered" n
    (!ok + !shed + List.length !other);
  if !other <> [] then
    Alcotest.failf "no untyped failures: %d reply(ies) neither ok nor \
                    overloaded, error classes [%s]"
      (List.length !other) (String.concat "; " (List.rev !other));
  Alcotest.(check bool) "some requests shed" true (!shed > 0);
  Alcotest.(check bool) "some requests served" true (!ok > 0)

let test_degrades_under_load () =
  (* watermark 1 with a wedged worker: later admissions in the burst are
     answered with the certified approximation instead of queued exact
     work, and the stats counter records it *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 16;
      degrade_above = 1 }
  in
  with_server ~config (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 6 in
  for i = 0 to n - 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              (* even the degraded answers stay bounded *)
              ("samples", Json.Int 4_000);
              ("deadline_ms", Json.Int 300) ]))
  done;
  let degraded_under_load = ref 0 in
  for _ = 1 to n do
    match Json.of_string (Client.recv_line c) with
    | Ok resp when Client.ok resp ->
        if bool_of "degraded_under_load" (Client.result resp) then
          incr degraded_under_load
    | Ok _ -> () (* typed errors acceptable under a deadline *)
    | Error m -> Alcotest.failf "bad response: %s" m
  done;
  Alcotest.(check bool) "burst tail degraded under load" true
    (!degraded_under_load > 0);
  match Json.member "degraded_under_load" (Serve.stats_json server) with
  | Some (Json.Int k) ->
      Alcotest.(check bool) "stats counter advanced" true (k > 0)
  | _ -> Alcotest.fail "stats missing degraded_under_load"

let test_no_degrade_exempt_under_load () =
  (* past the degradation watermark, a request carrying [no_degrade]
     keeps its exact evaluation and is not counted as degraded-under-load:
     force-degrading it would silently break the exactness contract
     (docs/SERVING.md "Overload semantics") *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 16;
      degrade_above = 1 }
  in
  let db = hard_db () in
  let cheap = "exists x. R(x)" in
  let want = local_value db cheap in
  with_server ~config db @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* two slow sampling jobs (no_degrade so they never touch the counter):
     one wedges the single worker, the other holds the queue depth at the
     watermark while the exact requests behind it are admitted *)
  for i = 0 to 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              ("method", Json.Str "karp-luby");
              ("no_degrade", Json.Bool true);
              ("samples", Json.Int 400_000) ]))
  done;
  let n = 3 in
  for i = 2 to 1 + n do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str cheap);
              ("no_degrade", Json.Bool true) ]))
  done;
  for _ = 1 to 2 + n do
    match Json.of_string (Client.recv_line c) with
    | Error m -> Alcotest.failf "bad response: %s" m
    | Ok resp -> (
        Alcotest.(check bool) "ok" true (Client.ok resp);
        match get "id" resp with
        | Json.Int i when i >= 2 ->
            let r = Client.result resp in
            Alcotest.(check bool) "exact despite load" true (bool_of "exact" r);
            Alcotest.(check bool) "not flagged degraded_under_load" false
              (bool_of "degraded_under_load" r);
            let got = float_of "value" r in
            if got <> want then
              Alcotest.failf "no_degrade served %.17g <> exact %.17g" got want
        | _ -> ())
  done;
  match Json.member "degraded_under_load" (Serve.stats_json server) with
  | Some (Json.Int 0) -> ()
  | j ->
      Alcotest.failf "no_degrade requests counted as degraded: %s"
        (match j with Some j -> Json.to_string j | None -> "missing")

(* Two slow [no_degrade] sampling jobs, pipelined on [c] with ids [id] and
   [id + 1]: one wedges the single worker, the other holds the queue at
   the watermark, so whatever is admitted behind them is past it. *)
let send_wedges c ~id =
  for i = id to id + 1 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              ("method", Json.Str "karp-luby");
              ("no_degrade", Json.Bool true);
              ("samples", Json.Int 2_000_000) ]))
  done

let send_eval c ~id ?(fields = []) q =
  Client.send_line c
    (Json.to_string
       (Json.Obj
          ([ ("id", Json.Int id); ("op", Json.Str "eval"); ("query", Json.Str q) ]
          @ fields)))

(* Reads [n] replies and returns those whose id is in [ids], by id. *)
let recv_replies c ~n ~ids =
  List.init n (fun _ ->
      match Json.of_string (Client.recv_line c) with
      | Error m -> Alcotest.failf "bad response: %s" m
      | Ok resp -> resp)
  |> List.filter_map (fun resp ->
         match get "id" resp with
         | Json.Int i when List.mem i ids -> Some (i, resp)
         | _ -> None)

let contains haystack needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length haystack && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let stat_int server name =
  match Json.member name (Serve.stats_json server) with
  | Some (Json.Int k) -> k
  | _ -> Alcotest.failf "stats missing %s" name

let test_cheap_templates_stay_exact_under_load () =
  (* the cheap half of cost-aware backpressure: past the watermark, a
     template whose exact evaluation is cheaper than the (eps,delta)
     fallback — a safe join, and H0 on a small database — is probed once
     to learn the fallback's cost and then answers exact, bit-identical
     to in-process evaluation. The expensive half is "backpressure
     degrades under load". *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 32;
      degrade_above = 1 }
  in
  let db = mixed_db () in
  let cheap = [ "exists x y. R(x) && S(x,y)"; h0 ] in
  let expected = List.map (fun q -> (q, local_value db q)) cheap in
  with_server ~config db @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* below the watermark: the full costs are learned *)
  for _ = 1 to 8 do
    List.iter
      (fun q -> Alcotest.(check bool) "ok" true (Client.ok (Client.eval c q)))
      cheap
  done;
  let costs () =
    Prepare.Cache.artifacts (Serve.plan_cache server)
    |> List.map (fun a ->
           Printf.sprintf "%s full %.3g s degraded %.3g s" a.Prepare.key
             (Prepare.cost a Prepare.Full) (Prepare.cost a Prepare.Degraded))
    |> String.concat "; "
  in
  let rounds = 3 and kinds = List.length cheap in
  let burst ~base =
    send_wedges c ~id:base;
    let ids = List.init (rounds * kinds) (fun k -> base + 2 + k) in
    List.iteri (fun k id -> send_eval c ~id (List.nth cheap (k mod kinds))) ids;
    recv_replies c ~n:(2 + List.length ids) ~ids
    |> List.map (fun (id, resp) ->
           let q, want = List.nth expected ((id - base - 2) mod kinds) in
           Alcotest.(check bool) ("ok for " ^ q) true (Client.ok resp);
           let r = Client.result resp in
           (q, want, r, bool_of "degraded_under_load" r))
  in
  (* first burst: one worker, so each template is degraded exactly once,
     as the probe that learns its degraded cost *)
  let first = burst ~base:100 in
  List.iter
    (fun q ->
      let probes =
        List.length (List.filter (fun (q', _, _, d) -> q' = q && d) first)
      in
      if probes <> 1 then
        Alcotest.failf "%s degraded %d times past the watermark (costs: %s)" q
          probes (costs ()))
    cheap;
  let probes = List.length (List.filter (fun (_, _, _, d) -> d) first) in
  Alcotest.(check int) "stats count exactly the degraded replies" probes
    (stat_int server "degraded_under_load");
  (* second burst: costs learned, every answer exact and bit-identical *)
  List.iter
    (fun (q, want, r, degraded) ->
      if degraded || not (bool_of "exact" r) then
        Alcotest.failf "%s not exact past the watermark (costs: %s)" q (costs ());
      let got = float_of "value" r in
      if got <> want then
        Alcotest.failf "%s: served %.17g <> local %.17g" q got want)
    (burst ~base:200);
  Alcotest.(check int) "no further degradation counted" probes
    (stat_int server "degraded_under_load")

let test_forall_evaluated_once_under_load () =
  (* a template the fallback cannot sample (forall-H0: complemented atoms)
     is never force-degraded, so past the watermark it is evaluated once —
     not degraded, failed with no-method and re-run exactly *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 32;
      degrade_above = 1 }
  in
  let db = mixed_db () in
  let q = "forall x y. R(x) || S(x,y) || T(y)" in
  let want = local_value db q in
  with_server ~config db @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* its full cost is known, so only samplability keeps it exact *)
  for _ = 1 to 3 do ignore (Client.eval c q) done;
  let queries = Probdb_obs.Metrics.counter "engine.queries" in
  let before = Probdb_obs.Metrics.counter_value queries in
  send_wedges c ~id:0;
  let overrides = [ []; [ ("method", Json.Str "obdd") ] ] in
  let ids = [ 2; 3; 4; 5 ] in
  List.iter
    (fun id ->
      send_eval c ~id
        ~fields:(("stats", Json.Bool true) :: List.nth overrides (id mod 2))
        q)
    ids;
  List.iter
    (fun (_, resp) ->
      Alcotest.(check bool) "ok" true (Client.ok resp);
      let r = Client.result resp in
      Alcotest.(check bool) "exact" true (bool_of "exact" r);
      Alcotest.(check bool) "not degraded under load" false
        (bool_of "degraded_under_load" r);
      let got = float_of "value" r in
      if got <> want then Alcotest.failf "served %.17g <> local %.17g" got want;
      (* one chain, with no step skipped as backpressure *)
      match get "chain" r with
      | Json.List steps ->
          List.iter
            (fun step ->
              match get "detail" step with
              | Json.Str d when contains d "degraded under load" ->
                  Alcotest.failf "chain carries a backpressure skip: %s"
                    (Json.to_string step)
              | _ -> ())
            steps
      | _ -> Alcotest.fail "chain is not a list")
    (recv_replies c ~n:(2 + List.length ids) ~ids);
  Alcotest.(check int) "one engine evaluation per request (no retry)"
    (2 + List.length ids)
    (Probdb_obs.Metrics.counter_value queries - before);
  Alcotest.(check int) "nothing counted as degraded" 0
    (stat_int server "degraded_under_load")

(* ---------- shutdown ---------- *)

let test_shutdown_drains_in_flight () =
  (* a slow request is in flight when the shutdown lands on another
     connection; its answer must still arrive before the socket closes *)
  with_server (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  let slow_resp = ref None in
  let th =
    Thread.create
      (fun () ->
        slow_resp :=
          Some
            (Client.eval c
               ~fields:
                 [ ("method", Json.Str "karp-luby");
                   ("samples", Json.Int 500_000) ]
               h0))
      ()
  in
  (* let the slow request reach a worker *)
  Thread.delay 0.15;
  let admin = Client.connect port in
  let resp = Client.call admin [ ("op", Json.Str "shutdown") ] in
  Alcotest.(check bool) "shutdown acknowledged" true (Client.ok resp);
  Thread.join th;
  Client.close c;
  Client.close admin;
  Serve.wait server;
  (match !slow_resp with
  | Some r -> Alcotest.(check bool) "in-flight answer delivered" true (Client.ok r)
  | None -> Alcotest.fail "in-flight request lost");
  (* new connections are refused once stopped *)
  match Client.connect port with
  | c2 ->
      (* accept backlog may race the close; a read must at least fail *)
      (match Client.ping c2 with
      | true -> Alcotest.fail "server still serving after shutdown"
      | false -> ()
      | exception (End_of_file | Sys_error _ | Failure _ | Client.Connection_closed) -> ());
      Client.close c2
  | exception Unix.Unix_error _ -> ()

let test_stop_now_cancels () =
  (* stop `Now while slow exact work is in flight: the server guard's
     cancellation reaches the evaluation, which answers typed (cancelled
     -> exhausted) or degraded — and stop returns promptly either way *)
  with_server (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  let got = ref None in
  let th =
    Thread.create
      (fun () ->
        got :=
          Some
            (try
               `Resp
                 (Client.eval c
                    ~fields:[ ("no_degrade", Json.Bool true) ]
                    h0)
             with End_of_file | Sys_error _ | Failure _ | Client.Connection_closed -> `Closed))
      ()
  in
  Thread.delay 0.2;
  let t0 = Unix.gettimeofday () in
  Serve.stop ~mode:`Now server;
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "stop `Now returns promptly" true (elapsed < 5.0);
  Thread.join th;
  Client.close c;
  match !got with
  | Some (`Resp r) ->
      (* the in-flight request was interrupted: typed error, never a hang *)
      if Client.ok r then ()
      else
        Alcotest.(check bool) "typed interruption" true
          (match Client.error_class r with
          | Some ("exhausted" | "shutting-down" | "internal") -> true
          | _ -> false)
  | Some `Closed | None -> ()

let test_queued_get_shutting_down_on_stop_now () =
  (* queued-but-not-started requests are failed out with the typed
     shutting-down error when the queue is cleared *)
  let config =
    { Serve.default_config with
      Serve.workers = 1;
      queue_capacity = 8;
      degrade_above = 0 }
  in
  with_server ~config (hard_db ()) @@ fun server port ->
  let c = Client.connect port in
  for i = 0 to 3 do
    Client.send_line c
      (Json.to_string
         (Json.Obj
            [ ("id", Json.Int i); ("op", Json.Str "eval");
              ("query", Json.Str h0);
              ("method", Json.Str "karp-luby");
              ("samples", Json.Int 2_000_000) ]))
  done;
  Thread.delay 0.2;
  let stopper = Thread.create (fun () -> Serve.stop ~mode:`Now server) () in
  let classes = ref [] in
  (try
     for _ = 1 to 4 do
       match Json.of_string (Client.recv_line c) with
       | Ok resp ->
           classes :=
             (if Client.ok resp then "ok"
              else Option.value ~default:"?" (Client.error_class resp))
             :: !classes
       | Error _ -> ()
     done
   with End_of_file | Sys_error _ | Client.Connection_closed -> ());
  Thread.join stopper;
  Client.close c;
  Alcotest.(check bool) "queued requests answered shutting-down" true
    (List.mem "shutting-down" !classes)

(* ---------- operational telemetry ---------- *)

module Trace = Probdb_obs.Trace
module Chaos = Probdb_chaos.Chaos
module Request_id = Probdb_obs.Request_id

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

(* Telemetry recording happens on the worker after the reply is sent, so
   give the background write a moment to land. *)
let eventually ?(timeout_s = 2.0) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let test_request_id_roundtrip () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (* a client-supplied id is echoed verbatim on the reply *)
  let resp =
    Client.eval ~fields:[ ("request_id", Json.Str "rid-echo-1") ] c
      "exists x. R(x)"
  in
  Alcotest.(check bool) "eval ok" true (Client.ok resp);
  Alcotest.(check (option string)) "echoed" (Some "rid-echo-1")
    (Client.request_id resp);
  (* the server mints one when the client does not supply it *)
  (match Client.request_id (Client.eval c "exists x. R(x)") with
  | Some rid ->
      Alcotest.(check bool) "minted id valid" true (Request_id.valid rid)
  | None -> Alcotest.fail "no server-minted request_id");
  (* malformed ids are rejected typed, not silently accepted *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.eval ~fields:[ ("request_id", Json.Str "has space") ] c
       "exists x. R(x)")

let test_stats_window_and_uptime () =
  with_server (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  for _ = 1 to 5 do
    Alcotest.(check bool) "eval ok" true (Client.ok (Client.eval c h0))
  done;
  let stats = Client.result (Client.call c [ ("op", Json.Str "stats") ]) in
  (* cumulative counters stay exact *)
  Alcotest.(check bool) "uptime present" true
    (float_of "uptime_s" stats >= 0.0);
  Alcotest.(check bool) "start time sane" true
    (float_of "started_unix_s" stats > 1e9);
  (* rolling windows have moved under the load just applied *)
  let window = get "window" stats in
  List.iter (fun h -> ignore (get h window)) [ "10s"; "60s"; "300s" ];
  let w10 = get "10s" window in
  Alcotest.(check bool) "10s answered moved" true
    (float_of "answered" w10 >= 5.0);
  Alcotest.(check bool) "10s qps positive" true (float_of "qps" w10 > 0.0);
  Alcotest.(check bool) "10s p99 present" true (float_of "p99_s" w10 > 0.0)

(* One request through `--slow-query-ms 0` leaves the same correlation id
   on the typed reply, the slow-query NDJSON record, the trace instants
   and the OpenMetrics exposition — the issue's acceptance criterion. *)
let test_request_id_correlation () =
  let log = Filename.temp_file "probdb_slow" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
  @@ fun () ->
  let config =
    { Serve.default_config with
      Serve.slow_query_ms = Some 0.0;
      slow_query_log = Some log }
  in
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  with_server ~config (small_db ()) @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rid = "rid-corr-7" in
  let resp =
    Client.eval ~fields:[ ("request_id", Json.Str rid) ] c "exists x. R(x)"
  in
  Alcotest.(check bool) "eval ok" true (Client.ok resp);
  Alcotest.(check (option string)) "reply correlated" (Some rid)
    (Client.request_id resp);
  (* slow-query record (threshold 0 logs everything) *)
  Alcotest.(check bool) "slow-query record carries id" true
    (eventually (fun () ->
         contains_sub (read_file log)
           (Printf.sprintf "\"request_id\":%s" (Json.to_string (Json.Str rid)))));
  let slow_line =
    match
      List.find_opt
        (fun l -> contains_sub l rid)
        (String.split_on_char '\n' (read_file log))
    with
    | Some l -> l
    | None -> Alcotest.fail "slow-query line vanished"
  in
  (match Json.of_string slow_line with
  | Ok j ->
      List.iter
        (fun k -> ignore (get k j))
        [ "ts_unix_s"; "request_id"; "query"; "verdict"; "latency_s";
          "queue_wait_s"; "strategy"; "phases"; "chain" ]
  | Error m -> Alcotest.failf "slow-query line not JSON: %s" m);
  (* trace instants *)
  let has_instant name =
    List.exists
      (fun (e : Trace.event) -> e.Trace.kind = Trace.Instant && e.Trace.name = name)
      (Trace.events ())
  in
  Alcotest.(check bool) "trace: admitted instant" true
    (eventually (fun () -> has_instant ("req:" ^ rid ^ ":admitted")));
  Alcotest.(check bool) "trace: ok instant" true
    (eventually (fun () -> has_instant ("req:" ^ rid ^ ":ok")));
  (* OpenMetrics exposition *)
  Alcotest.(check bool) "openmetrics carries id" true
    (eventually (fun () ->
         let om = Serve.openmetrics_text server in
         contains_sub om
           (Printf.sprintf "probdb_last_request_info{request_id=\"%s\"} 1" rid)
         && contains_sub om
              (Printf.sprintf
                 "probdb_last_slow_request_info{request_id=\"%s\"} 1" rid)
         && contains_sub om "# EOF"))

(* A chaos-doomed request is answered with the typed internal error AND
   its telemetry trail — all under the client's correlation id. The
   chaos site allowlist keeps the fault on the worker only, so the
   serve transport stays healthy. *)
let test_doomed_request_carries_id () =
  Chaos.arm ~only:[ "par.worker.crash" ] { Chaos.seed = 42; rate = 1.0 };
  Fun.protect ~finally:Chaos.disarm @@ fun () ->
  Trace.enable ();
  Fun.protect ~finally:Trace.disable @@ fun () ->
  let config = { Serve.default_config with Serve.workers = 1 } in
  with_server ~config (small_db ()) @@ fun _server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let rid = "rid-doom-1" in
  let resp =
    Client.eval ~fields:[ ("request_id", Json.Str rid) ] c "exists x. R(x)"
  in
  expect_error ~cls:"internal" ~code:1 resp;
  Alcotest.(check (option string)) "doomed reply correlated" (Some rid)
    (Client.request_id resp);
  Alcotest.(check bool) "trace: doomed instant" true
    (eventually (fun () ->
         List.exists
           (fun (e : Trace.event) ->
             e.Trace.kind = Trace.Instant
             && e.Trace.name = "req:" ^ rid ^ ":doomed")
           (Trace.events ())))

let test_openmetrics_exposition () =
  let config = { Serve.default_config with Serve.openmetrics_port = Some 0 } in
  with_server ~config (small_db ()) @@ fun server port ->
  let c = Client.connect port in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  Alcotest.(check bool) "eval ok" true (Client.ok (Client.eval c h0));
  (* in-band: the metrics op grows an openmetrics format variant *)
  let resp =
    Client.call c
      [ ("op", Json.Str "metrics"); ("format", Json.Str "openmetrics") ]
  in
  Alcotest.(check bool) "metrics ok" true (Client.ok resp);
  let body =
    match Json.member "openmetrics" (Client.result resp) with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.fail "no openmetrics text in metrics result"
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition has " ^ needle) true
        (contains_sub body needle))
    [ "# TYPE probdb_serve_requests counter"; "probdb_serve_requests_total";
      "probdb_serve_uptime_seconds"; "# EOF" ];
  (* unknown formats are rejected typed *)
  expect_error ~cls:"bad-request" ~code:10
    (Client.call c [ ("op", Json.Str "metrics"); ("format", Json.Str "xml") ]);
  (* out-of-band: the HTTP exposition endpoint serves the same text *)
  let om_port =
    match Serve.openmetrics_port server with
    | Some p -> p
    | None -> Alcotest.fail "openmetrics listener has no port"
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, om_port));
  let req = Bytes.of_string "GET /metrics HTTP/1.0\r\n\r\n" in
  ignore (Unix.write fd req 0 (Bytes.length req));
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  let http = Buffer.contents buf in
  Alcotest.(check bool) "HTTP 200" true (contains_sub http "200 OK");
  Alcotest.(check bool) "openmetrics content type" true
    (contains_sub http "application/openmetrics-text");
  Alcotest.(check bool) "exposition complete" true (contains_sub http "# EOF")

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "protocol control ops" `Quick test_protocol_ops;
        Alcotest.test_case "malformed requests answered typed" `Quick
          test_malformed_requests;
        Alcotest.test_case "served values = in-process values" `Quick
          test_eval_matches_local;
        Alcotest.test_case "free bindings carry answers" `Quick
          test_free_bindings_are_answers;
        Alcotest.test_case "concurrent clients bit-identical" `Slow
          test_concurrent_clients_bit_identical;
        Alcotest.test_case "pipelined requests all answered" `Quick
          test_pipelined_requests;
        Alcotest.test_case "deadline expiry degrades with CI" `Quick
          test_deadline_degrades;
        Alcotest.test_case "deadline + no_degrade fails typed" `Quick
          test_deadline_no_degrade_fails_typed;
        Alcotest.test_case "overload sheds with typed error" `Slow
          test_overload_sheds_typed;
        Alcotest.test_case "backpressure degrades under load" `Slow
          test_degrades_under_load;
        Alcotest.test_case "no_degrade exempt from load degradation" `Slow
          test_no_degrade_exempt_under_load;
        Alcotest.test_case "cheap templates stay exact under load" `Slow
          test_cheap_templates_stay_exact_under_load;
        Alcotest.test_case "unsamplable template evaluated once under load" `Slow
          test_forall_evaluated_once_under_load;
        Alcotest.test_case "shutdown drains in-flight work" `Slow
          test_shutdown_drains_in_flight;
        Alcotest.test_case "stop now cancels in-flight work" `Slow
          test_stop_now_cancels;
        Alcotest.test_case "stop now fails queued typed" `Slow
          test_queued_get_shutting_down_on_stop_now;
        Alcotest.test_case "request ids round-trip and validate" `Quick
          test_request_id_roundtrip;
        Alcotest.test_case "stats: uptime and rolling windows" `Quick
          test_stats_window_and_uptime;
        Alcotest.test_case "one id across reply, slow log, trace, openmetrics"
          `Quick test_request_id_correlation;
        Alcotest.test_case "doomed request keeps its correlation id" `Quick
          test_doomed_request_carries_id;
        Alcotest.test_case "openmetrics exposition: in-band and HTTP" `Quick
          test_openmetrics_exposition;
      ] );
  ]
