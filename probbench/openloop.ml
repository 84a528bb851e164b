(* The `probdb serve` child process and the open-loop load generator.

   One generator process: a sender thread that writes requests at their
   scheduled times and a receiver domain that reads replies, over a single
   pipelined connection. Latency is measured from each request's scheduled
   send time, so a stalled server also charges the wait it imposes on the
   requests queued behind it. *)

module Json = Probdb_obs.Json
module Client = Probdb_serve.Client

type server = { pid : int; port : int; out : in_channel }

let children = ref []

(* SIGTERM asks for a graceful drain; a server that has not exited after
   [drain_s] is killed, so a stuck drain cannot stall the benchmark. *)
let drain_s = 5.0

let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. drain_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Util.now () < deadline -> Thread.delay 0.01; wait ()
    | 0, _ ->
        Printf.printf "  probdb serve did not exit within %.0f s of SIGTERM; killed\n" drain_s;
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  children := List.filter (fun p -> p <> s.pid) !children;
  close_in_noerr s.out

(* Every child is stopped and reaped, also when the benchmark fails. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

(* Starts `probdb serve` at its default configuration, except for an
   ephemeral port, and returns once it has printed its listening line. *)
let start_server ~probdb ~db =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process probdb [| probdb; "serve"; "--db"; db; "--port"; "0" |] devnull wr
      Unix.stderr
  in
  Unix.close wr;
  Unix.close devnull;
  children := pid :: !children;
  let out = Unix.in_channel_of_descr rd in
  let line = try input_line out with End_of_file -> Util.fail "probdb serve exited at start" in
  let port =
    try Scanf.sscanf line "probdb serve: listening on %_s@:%d" Fun.id
    with _ -> Util.fail "unexpected serve banner %S" line
  in
  { pid; port; out }

let request_line ~id text = Json.to_string (Json.Obj [ ("id", Json.Int id); ("query", Json.Str text) ])

let member_float k j = match Json.member k j with Some (Json.Float f) -> Some f | Some (Json.Int i) -> Some (float_of_int i) | _ -> None
let member_bool k j = match Json.member k j with Some (Json.Bool b) -> b | _ -> false

(* The outcome of one reply. *)
let classify ~reference resp =
  if Client.ok resp then
    let r = Client.result resp in
    let ci =
      match Json.member "confidence" r with
      | Some c -> (
          match (member_float "ci_low" c, member_float "ci_high" c) with
          | Some lo, Some hi -> Some (lo, hi)
          | _ -> None)
      | None -> None
    in
    match member_float "value" r with
    | None -> Check.Wrong "reply without a value"
    | Some value ->
        Check.answer ~reference ~value ~exact:(member_bool "exact" r)
          ~degraded:(member_bool "degraded" r) ~ci
  else
    match Client.error_class resp with
    | Some "overloaded" -> Check.Shed
    | Some "no-method" -> Check.Overload_no_method
    | Some c -> Check.Typed_error c
    | None -> Check.Typed_error "unknown"

type conn = { fd : Unix.file_descr; ic : in_channel; wlock : Mutex.t }

let connect port =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; wlock = Mutex.create () }

let send conn line =
  Mutex.protect conn.wlock (fun () ->
      let s = line ^ "\n" in
      let n = String.length s in
      let rec go off = if off < n then go (off + Unix.write_substring conn.fd s off (n - off)) in
      go 0)

let close conn = (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()); close_in_noerr conn.ic

(* Synchronous call on an idle connection (warm-up, probes). *)
let call conn line =
  send conn line;
  match Json.of_string (input_line conn.ic) with
  | Ok j -> j
  | Error e -> Util.fail "bad reply: %s" e

type sample = {
  q : Inputs.request;
  sched : float;  (** absolute scheduled send time *)
  mutable sent : float;
  mutable recv : float;  (** [nan] until the reply arrives *)
  mutable outcome : Check.outcome;
  mutable degraded_load : bool;
}

type rung_result = {
  rung : Inputs.rung;
  samples : sample array;
  wall : float;  (** rung start to the last reply *)
}

let latency_ms s = if Check.ok s.outcome then (s.recv -. s.sched) *. 1000.0 else Float.infinity
let lag_ms s = (s.sent -. s.sched) *. 1000.0

(* Runs one rung: sends its schedule open loop, then waits for every reply
   (at most [drain_s] after the last send; what is still missing then is a
   timeout). A stats op goes out every [stats_every] seconds; its reply,
   id -1, is read and dropped. *)
let run_rung ~port ~reference ~stats_every ?(drain_s = 20.0) (rung : Inputs.rung) =
  let conn = connect port in
  let n = Array.length rung.sched in
  let t0 = Util.now () +. 0.01 in
  let samples =
    Array.map
      (fun (at, q) ->
        { q; sched = t0 +. at; sent = Float.nan; recv = Float.nan; outcome = Check.Timeout;
          degraded_load = false })
      rung.sched
  in
  let lines = Array.mapi (fun i (_, (q : Inputs.request)) -> request_line ~id:i q.text) rung.sched in
  let pending = Atomic.make n in
  let receiver () =
    while Atomic.get pending > 0 do
      match input_line conn.ic with
      | exception (End_of_file | Sys_error _) -> Atomic.set pending 0
      | line -> (
          let now = Util.now () in
          match Json.of_string line with
          | Error _ -> ()
          | Ok resp -> (
              match Json.member "id" resp with
              | Some (Json.Int id) when id >= 0 && id < n ->
                  let s = samples.(id) in
                  s.recv <- now;
                  s.outcome <- classify ~reference:(reference s.q) resp;
                  s.degraded_load <- member_bool "degraded_under_load" (Client.result resp);
                  Atomic.decr pending
              | _ -> ()))
    done
  in
  (* a domain of its own: a systhread would share the runtime lock with
     the sender, which then runs late while the receiver parses replies *)
  let rx = Domain.spawn receiver in
  let next_stats = ref (t0 +. stats_every) in
  Array.iteri
    (fun i s ->
      let wait = s.sched -. Util.now () in
      if wait > 0.0 then Thread.delay wait;
      if s.sched >= !next_stats then begin
        send conn "{\"id\":-1,\"op\":\"stats\"}";
        next_stats := !next_stats +. stats_every
      end;
      s.sent <- Util.now ();
      send conn lines.(i))
    samples;
  let deadline = Util.now () +. drain_s in
  while Atomic.get pending > 0 && Util.now () < deadline do
    Thread.delay 0.005
  done;
  let wall =
    Array.fold_left (fun acc s -> if Float.is_nan s.recv then acc else Float.max acc s.recv) t0 samples
    -. t0
  in
  (* a reply still missing is a timeout; closing wakes the receiver *)
  Atomic.set pending 0;
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Domain.join rx;
  close conn;
  { rung; samples; wall = Float.max wall rung.dur }

let count p r = Array.fold_left (fun acc s -> if p s then acc + 1 else acc) 0 r.samples

let latencies r = Array.to_list (Array.map latency_ms r.samples)

(* The backlog grows when the requests scheduled in the last third of the
   rung wait clearly longer than those of the first third. *)
let backlog_growing r =
  let n = Array.length r.samples in
  let third lo hi = Util.median (Array.to_list (Array.map latency_ms (Array.sub r.samples lo (hi - lo)))) in
  n >= 9 && third (2 * n / 3) n > (2.0 *. third 0 (n / 3)) +. 5.0

let lag_p99_ms r = Util.quantile 0.99 (Array.to_list (Array.map lag_ms r.samples))

let failed_frac r = Util.frac (count (fun s -> not (Check.ok s.outcome)) r) (Array.length r.samples)

let meets_slo ~p99_limit_ms ~failed_limit r =
  Util.quantile 0.99 (latencies r) <= p99_limit_ms
  && failed_frac r <= failed_limit
  && not (backlog_growing r)

let ok_per_s r = float_of_int (count (fun s -> Check.ok s.outcome) r) /. r.wall

(* ok replies per second over the last three quarters of the schedule: the
   queue has filled by then, and the drain after the last send is left out. *)
let steady_ok_per_s r =
  let t0 = r.samples.(0).sched -. fst r.rung.sched.(0) in
  let lo = t0 +. (0.25 *. r.rung.dur) and hi = t0 +. r.rung.dur in
  float_of_int (count (fun s -> Check.ok s.outcome && s.recv >= lo && s.recv < hi) r)
  /. (0.75 *. r.rung.dur)
