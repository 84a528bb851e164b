(* Classifying one answer against its reference. *)

type outcome =
  | Exact_ok
  | Degraded_ok of { covered : bool option }
      (** certified interval; [covered]: does it contain the exact reference *)
  | Shed  (** typed [overloaded]: refused at admission *)
  | Overload_no_method
      (** typed [no-method]: a query with no DNF lineage to sample was
          force-degraded under load *)
  | Typed_error of string
  | Timeout
  | Wrong of string

let tolerance = 1e-9

let answer ~reference ~value ~exact ~degraded ~ci =
  match (exact, degraded, ci, reference) with
  | true, _, _, Some r when Float.abs (value -. r) <= tolerance -> Exact_ok
  | true, _, _, Some r -> Wrong (Printf.sprintf "exact %.17g, reference %.17g" value r)
  | true, _, _, None -> Wrong "exact answer where no exact reference exists"
  | false, true, Some (lo, hi), _ when 0.0 <= lo && lo <= hi && hi <= 1.0 ->
      Degraded_ok { covered = Option.map (fun r -> lo <= r && r <= hi) reference }
  | false, true, _, _ -> Wrong "degraded answer without an interval in [0,1]"
  | false, false, _, _ -> Wrong "approximate answer without a certificate"

let of_answer ~reference (a : Probdb_engine.Answer.t) =
  answer ~reference ~value:a.value ~exact:a.exact ~degraded:a.degraded
    ~ci:(Option.map (fun (c : Probdb_engine.Answer.confidence) -> (c.ci_low, c.ci_high)) a.confidence)

let ok = function Exact_ok | Degraded_ok _ -> true | _ -> false
let exact = function Exact_ok -> true | _ -> false
let wrong = function Wrong _ -> true | _ -> false

(* A failed operation of the benchmark: a wrong or missing answer, or a
   typed error outside the server's two documented overload responses
   (which still count in failed_frac). *)
let failed = function
  | Wrong _ | Timeout | Typed_error _ -> true
  | Exact_ok | Degraded_ok _ | Shed | Overload_no_method -> false

let name = function
  | Exact_ok -> "exact"
  | Degraded_ok _ -> "degraded"
  | Shed -> "shed"
  | Overload_no_method -> "no-method"
  | Typed_error c -> "error:" ^ c
  | Timeout -> "timeout"
  | Wrong _ -> "wrong"
