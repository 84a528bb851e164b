(* Seeded inputs of the two workloads and their reference answers.

   Everything here is a function of (workload, seed): the databases, the
   query texts, the open-loop schedules and the batch stream. The program
   under test only ever sees the generated CSV directories, the packed
   container and the request texts. *)

module Core = Probdb_core
module E = Probdb_engine.Engine
module Parser = Probdb_logic.Parser

type request = {
  text : string;
  db : int;  (** index into [dbs] *)
  shape : string;  (** query structure; constants vary, structure repeats *)
}

type rung = {
  label : string;
  rate : float;  (** offered requests per second (0 for the closed loop) *)
  dur : float;  (** seconds the schedule spans *)
  sched : (float * request) array;  (** send offset from rung start, request *)
}

(* The open-loop schedule of the serving workload. *)
type serve = {
  nominal : rung;  (** the nominal rate, for p50/p99 *)
  ladders : rung list list;  (** repeats of the ladder of offered rates, each ascending *)
  overloads : rung list;  (** one burst at the ladder's top rate after each repeat *)
}

type t = {
  workload : string;
  seed : int;
  dbs : Core.Tid.t array;
  shapes : request list;  (** one request per structure: the warm-up pass *)
  serve : serve option;  (** the serving workload's schedule *)
  stream : request array;  (** batch: the closed-loop pass, in order *)
}

let workloads = [ "serve_mixed_overload"; "batch_grounded" ]

(* ---------- databases ---------- *)

(* Each possible tuple is listed with probability [density], with a
   probability drawn uniformly from [range]. Which tuples are listed comes
   from a fixed structure seed: the cost of a grounded query depends on the
   structure alone (an OBDD's size ignores the probabilities), so fixing it
   keeps each workload's load level the same across benchmark seeds, which
   vary the probabilities, the constants, the mix and the arrival times. *)
let relation ~structure rng ~domain (name, arity, density, (lo, hi)) =
  let rows = ref [] in
  let rec go prefix k =
    if k = 0 then begin
      let listed = Random.State.float structure 1.0 < density in
      let p = lo +. Random.State.float rng (hi -. lo) in
      if listed then rows := (Core.Tuple.of_ints (List.rev prefix), p) :: !rows
    end
    else
      for v = 0 to domain - 1 do
        go (v :: prefix) (k - 1)
      done
  in
  go [] arity;
  Core.Relation.make (Core.Schema.of_arity name arity) (List.rev !rows)

let tid ~structure rng ~domain specs =
  let structure = Random.State.make [| structure |] in
  Core.Tid.make ~domain:(List.init domain Core.Value.int)
    (List.map (relation ~structure rng ~domain) specs)

(* ---------- query mixes ---------- *)

(* Zipf(1.1) over a seeded permutation of 0..n-1: a few hot constants and a
   long tail, so texts vary while the plan cache sees repeated structures. *)
let zipf rng n =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** 1.1));
    cum.(k) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let rec find lo hi = if lo >= hi then lo else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < u then find (mid + 1) hi else find lo mid
    in
    perm.(find 0 (n - 1))

let pick_weighted rng items =
  let total = List.fold_left (fun a (w, _) -> a +. w) 0.0 items in
  let u = Random.State.float rng total in
  let rec go acc = function
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if u < acc +. w then x else go (acc +. w) rest
    | [] -> invalid_arg "pick_weighted"
  in
  go 0.0 items

let req ?(db = 0) shape text = { text; db; shape }

(* Poisson arrivals at [rate] over [dur] seconds. *)
let poisson rng ~label ~rate ~dur pick =
  let rec go t acc =
    let t = t +. (-.log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t >= dur then Array.of_list (List.rev acc) else go t ((t, pick ()) :: acc)
  in
  { label; rate; dur; sched = go 0.0 [] }

(* Exactly [n] Poisson arrivals at [rate]. *)
let poisson_n rng ~label ~rate ~n pick =
  let t = ref 0.0 in
  let sched =
    Array.init n (fun _ ->
        t := !t +. (-.log (1.0 -. Random.State.float rng 1.0) /. rate);
        (!t, pick ()))
  in
  { label; rate; dur = !t; sched }

(* ---------- serve_mixed_overload ---------- *)

let mixed_db rng =
  tid ~structure:3 rng ~domain:7
    [ ("R", 1, 0.8, (0.05, 0.95)); ("S", 2, 0.5, (0.05, 0.95)); ("T", 1, 0.8, (0.05, 0.95)) ]

let h0 = "exists x y. R(x) && S(x,y) && T(y)"
let h0_forall = "forall x y. R(x) || S(x,y) || T(y)"
let h1 = "(exists x y. R(x) && S(x,y)) || (exists u v. S(u,v) && T(v))"

let mixed_mix rng =
  let c = zipf rng 7 in
  [ (0.20, fun () -> req "join" "exists x y. R(x) && S(x,y)");
    ( 0.31,
      fun () ->
        let k = c () in
        req "lookup" (Printf.sprintf "exists y. R(%d) && S(%d,y)" k k) );
    (0.10, fun () -> req "incl" "forall x y. S(x,y) => R(x)");
    (0.21, fun () -> req "h0" h0);
    (0.16, fun () -> req "h0_forall" h0_forall);
    (0.02, fun () -> req "h1" h1) ]

(* ---------- batch_grounded ---------- *)

let h2 =
  "(exists x y. R(x) && S1(x,y)) || (exists x y. S1(x,y) && S2(x,y)) || \
   (exists x y. S2(x,y) && T(y))"

let self_join = "exists x y z. R(x,y) && R(y,z)"

(* (shape, query, relation specs, domain sizes): #P-hard queries at sizes
   where lineage, WMC or OBDD decide in milliseconds. *)
let batch_kinds =
  let rst = [ ("R", 1, 0.8, (0.05, 0.95)); ("S", 2, 0.5, (0.05, 0.95)); ("T", 1, 0.8, (0.05, 0.95)) ] in
  [ ("h0", h0, rst, [ 5; 7; 9 ]);
    ("h0_forall", h0_forall, rst, [ 5; 7; 9 ]);
    ("h1", h1, rst, [ 4; 6; 7 ]);
    ( "h2",
      h2,
      [ ("R", 1, 0.8, (0.05, 0.95)); ("S1", 2, 0.5, (0.05, 0.95));
        ("S2", 2, 0.5, (0.05, 0.95)); ("T", 1, 0.8, (0.05, 0.95)) ],
      [ 3; 4; 5 ] );
    ("self_join", self_join, [ ("R", 2, 0.5, (0.05, 0.95)) ], [ 4; 5; 6 ]) ]

(* The known-slow instance (`probdb gen --domain 14 R:1:0.8 S:2:0.4
   T:1:0.8`, generator seed 42): OBDD trips its node cap, DPLL then burns
   its 2M-decision budget before the query degrades. It is a fixed
   instance, independent of the benchmark seed, so every pass carries the
   same defect. *)
let slow_shape = "h0_d14"

let slow_db () =
  Probdb_workload.Gen.random_tid ~seed:42 ~domain_size:14
    Probdb_workload.Gen.[ spec ~density:0.8 "R" 1; spec ~density:0.4 "S" 2; spec ~density:0.8 "T" 1 ]

let batch_len = 14000

(* ---------- assembling a workload ---------- *)

(* The open-loop plan of serve_mixed_overload: a segment at the nominal
   rate, then [ladders] rounds, each a repeat of the ladder and an
   overload burst. The nominal rate is well below saturation, and the
   segment carries the 1100 requests a p99 needs. The ladder runs from
   about half to about twice the rate at which the server at its default
   configuration stops meeting its SLO (1200-2200/s on a 2-core VM,
   depending on how busy the host is), in steps of 10-20%. Each repeat has
   its own arrivals, and the run reports the median of the repeats. The
   overload burst holds the ladder's top rate for longer, for the goodput
   past saturation. Spreading the repeats and bursts through the run means
   a stretch of host contention moves one of them, not the median. *)
let nominal_rate = 400.0
let nominal_requests = 1100

let ladder_rates =
  [ 600.0; 800.0; 1000.0; 1200.0; 1400.0; 1600.0; 1800.0; 2000.0; 2200.0; 2400.0; 2700.0; 3000.0;
    3400.0; 3900.0; 4400.0 ]

let ladders = 7

(* Rung and burst lengths scale with --seconds: a repeat that stops near
   saturation (six to twelve rungs) takes about a twelfth of the run, and
   a burst a twenty-eighth. *)
let rung_s ~seconds = seconds /. 128.0
let overload_s ~seconds = seconds /. 28.0

let make ~workload ~seed ~seconds =
  let rng = Random.State.make [| seed; Hashtbl.hash workload |] in
  match workload with
  | "serve_mixed_overload" ->
      let db = mixed_db rng in
      let mix = mixed_mix rng in
      let shapes =
        List.sort_uniq (fun a b -> compare a.shape b.shape) (List.map (fun (_, f) -> f ()) mix)
      in
      let pick () = (pick_weighted rng mix) () in
      let rung label rate dur = poisson rng ~label ~rate ~dur pick in
      let nominal = poisson_n rng ~label:"nominal" ~rate:nominal_rate ~n:nominal_requests pick in
      let top = List.nth ladder_rates (List.length ladder_rates - 1) in
      let rounds =
        List.init ladders (fun l ->
            let ladder =
              List.map
                (fun rate -> rung (Printf.sprintf "L%d %.0f/s" (l + 1) rate) rate (rung_s ~seconds))
                ladder_rates
            in
            (ladder, rung (Printf.sprintf "O%d %.0f/s" (l + 1) top) top (overload_s ~seconds)))
      in
      let ladders, overloads = List.split rounds in
      { workload; seed; dbs = [| db |]; shapes; serve = Some { nominal; ladders; overloads }; stream = [||] }
  | "batch_grounded" ->
      let pool =
        List.concat_map
          (fun (shape, text, specs, sizes) ->
            List.map (fun domain -> (shape, text, tid ~structure:domain rng ~domain specs)) sizes)
          batch_kinds
        @ [ (slow_shape, h0, slow_db ()) ]
      in
      let pool = Array.of_list pool in
      let dbs = Array.map (fun (_, _, db) -> db) pool in
      let request i = let shape, text, _ = pool.(i) in req ~db:i shape text in
      let fast = Array.length pool - 1 in
      let stream = Array.init batch_len (fun _ -> request (Random.State.int rng fast)) in
      (* the slow instance opens the pass, so the heap it grows its DPLL
         cache into, and with it rss_mb, does not depend on the seed *)
      stream.(0) <- request fast;
      (* warm-up: every structure once, on its smallest database *)
      let shapes =
        List.filter_map
          (fun (shape, _, _, _) ->
            let rec first i = if i >= fast then None
              else let s, _, _ = pool.(i) in if s = shape then Some (request i) else first (i + 1) in
            first 0)
          batch_kinds
      in
      { workload; seed; dbs; shapes; serve = None; stream }
  | _ -> Util.fail "unknown workload %S (known: %s)" workload (String.concat ", " workloads)

let rungs (t : t) =
  match t.serve with
  | Some s -> (s.nominal :: List.concat s.ladders) @ s.overloads
  | None -> []

let all_requests (t : t) =
  Array.to_list t.stream @ List.concat_map (fun r -> Array.to_list (Array.map snd r.sched)) (rungs t)

(* A digest of everything the seed determines: the self-test compares it
   across seeds. *)
let digest (t : t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun r -> Array.iter (fun (at, q) -> Printf.bprintf b "%s %.9f %s\n" r.label at q.text) r.sched)
    (rungs t);
  Array.iter (fun q -> Printf.bprintf b "%d %s\n" q.db q.text) t.stream;
  Array.iter (fun db -> Buffer.add_string b (Format.asprintf "%a" Core.Tid.pp db)) t.dbs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---------- on disk ---------- *)

let db_dir dir i = Filename.concat dir (Printf.sprintf "db%d" i)
(* A server holds a `probdb pack` container of its workload's database;
   the batch loads the CSV directories. *)
let packed_path dir = Filename.concat dir "db0.pdb"

let write t dir =
  Util.mkdir_p dir;
  Array.iteri (fun i db -> Core.Csv_io.save_dir (db_dir dir i) db) t.dbs;
  if t.serve <> None then Probdb_storage.Storage.pack t.dbs.(0) (packed_path dir)

(* ---------- reference answers ---------- *)

(* A second exact strategy, run alone with degradation off. *)
let solo_exact db q =
  List.find_map
    (fun s ->
      match E.eval ~config:{ E.default_config with E.strategies = [ s ]; degrade = None } db q with
      | Ok a when a.Probdb_engine.Answer.exact -> Some a.Probdb_engine.Answer.value
      | _ -> None)
    [ E.Dpll; E.Wmc; E.Obdd ]

(* [None] only for the slow H0 instance, which no exact method finishes. *)
let reference t (q : request) =
  let db = t.dbs.(q.db) in
  if q.shape = slow_shape then None
  else
    let fo = Parser.parse_sentence q.text in
    if Core.Tid.support_size db <= 16 then Some (Probdb_logic.Brute_force.probability db fo)
    else solo_exact db fo

(* Reference answers of every distinct (query, database) in the workload,
   computed once before anything is timed. *)
let oracle t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun q ->
      let key = (q.text, q.db) in
      if not (Hashtbl.mem tbl key) then Hashtbl.replace tbl key (reference t q))
    (t.shapes @ all_requests t);
  fun (q : request) -> Hashtbl.find tbl (q.text, q.db)
