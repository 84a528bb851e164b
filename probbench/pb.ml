(* probbench runner: one run of one workload, printing a human-readable
   report and, as its last line, the JSON result (see README.md here).

     pb run --workload W --seed N --seconds S --trace 0|1 --probdb EXE --work DIR
     pb digest --workload W --seed N --seconds S *)

module Json = Probdb_obs.Json
open Measure

(* ---------- output ---------- *)

let json_metrics ms =
  Json.Obj (List.map (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ])) ms)

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter (fun x -> Printf.printf "  %-32s %14.6g %s\n" x.name x.value x.unit_) ms

let finish ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", json_metrics metrics) ]))

(* ---------- command line ---------- *)

let watchdog_s = 165.0

let () =
  let args = Array.to_list Sys.argv in
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let get k = match opt k args with Some v -> v | None -> Util.fail "missing %s" k in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> Util.fail "%s: not an integer" k in
  let workload = get "--workload" and seed = int "--seed" in
  let seconds = float_of_int (int "--seconds") in
  if seconds <= 0.0 then Util.fail "--seconds must be positive";
  match args with
  | _ :: "digest" :: _ -> print_endline (Inputs.digest (Inputs.make ~workload ~seed ~seconds))
  | _ :: "run" :: _ ->
      (* a run that overstays is stopped, children included (at_exit) *)
      ignore
        (Thread.create
           (fun () ->
             Thread.delay watchdog_s;
             prerr_endline "pb: run exceeded its time limit";
             exit 3)
           ());
      let trace = int "--trace" = 1 in
      let probdb = get "--probdb" and dir = get "--work" in
      let inp = Inputs.make ~workload ~seed ~seconds in
      Inputs.write inp dir;
      let t0 = Util.now () in
      let reference = Inputs.oracle inp in
      Printf.printf "%s seed %d: inputs in %s, reference answers in %.2f s\n%!" workload seed dir
        (Util.now () -. t0);
      let metrics, extra, outcomes, valid =
        if trace then Traced.run ~probdb ~dir inp ~reference
        else if workload = "batch_grounded" then batch_run ~dir inp ~reference
        else serve_run ~probdb ~dir inp ~reference
      in
      let wrong = List.filter Check.wrong outcomes in
      List.iteri
        (fun i o -> if i < 5 then match o with Check.Wrong w -> Printf.printf "  WRONG: %s\n" w | _ -> ())
        wrong;
      print_metrics (if trace then "per-layer metrics" else "end-to-end metrics") metrics;
      print_metrics "also reported" extra;
      finish ~correct:(wrong = [] && valid) ~attempted:(List.length outcomes)
        ~failed:(List.length (List.filter Check.failed outcomes)) metrics
  | _ -> Util.fail "usage: pb (run|digest) --workload W --seed N --seconds S ..."
