(* Small numeric and process helpers shared by the benchmark modules. *)

let now () = Unix.gettimeofday ()

(* Nearest-rank quantile of an unsorted sample; [nan] on an empty one. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  match Array.length a with
  | 0 -> Float.nan
  | n -> a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile 0.5 xs

(* Zero instead of [nan] where a layer did no work in this workload. *)
let or_zero x = if Float.is_nan x then 0.0 else x

let frac num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* Peak resident set (VmHWM) of a process, in MB, from /proc. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
              (fun kb -> kb /. 1024.0)
        | _ -> go ()
      in
      go ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("pb: " ^ s); exit 2) fmt
