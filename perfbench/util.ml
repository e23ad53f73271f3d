(* Small helpers shared by the workloads. *)

let now = Span.now

(* Linear interpolation between order statistics, as
   [numpy.percentile]'s default. Never called on an empty array. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i >= Array.length a - 1 then a.(Array.length a - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* The end-to-end latency: the median wall time of one operation, in
   ms. *)
let p50_ms xs = 1000. *. median xs

(* A field of /proc/<pid>/status in kB, converted to MB. *)
let status_mb ?(pid = "self") field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:(field ^ ":") line ->
        Scanf.sscanf (String.sub line (String.length field + 1) (String.length line - String.length field - 1))
          " %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Peak resident set of a process, in MB. *)
let peak_rss_mb ?pid () = status_mb ?pid "VmHWM"

(* Counter totals of the program's own metrics registry. *)
let counter name = float_of_int (Obs.Metrics.value (Obs.Metrics.counter name))

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  values : (string * float) list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}
