(* Spans the benchmark records around its calls into the program:
   name, start, end and the span that was open when it started. They
   are kept in memory and written out once, when the run ends. Nothing
   is recorded unless [enable] was called, so the untraced runs that
   produce the end-to-end metrics pay one branch per call site. *)

type t = { id : int; name : string; parent : int; t0 : float; t1 : float }

let now = Obs.Clock.monotonic_raw
let on = ref false
let enable () = on := true
let enabled () = !on
let lock = Mutex.create ()
let spans = ref []
let next_id = ref 0

(* Open spans of the main thread; client threads record flat spans
   with an explicit parent instead. *)
let stack = ref []

let add ~name ~parent ~t0 ~t1 =
  Mutex.protect lock (fun () ->
      let id = !next_id in
      incr next_id;
      spans := { id; name; parent; t0; t1 } :: !spans;
      id)

(* Reserve an id now for a span whose end is recorded later, so that
   children recorded in between can name it as their parent. *)
let fresh () =
  Mutex.protect lock (fun () ->
      let id = !next_id in
      incr next_id;
      id)

let close id ~name ~parent ~t0 ~t1 =
  Mutex.protect lock (fun () -> spans := { id; name; parent; t0; t1 } :: !spans)

let current () = match !stack with id :: _ -> id | [] -> -1

let with_ name f =
  if not !on then f ()
  else begin
    let id = fresh () and parent = current () in
    stack := id :: !stack;
    let t0 = now () in
    Fun.protect f ~finally:(fun () ->
        let t1 = now () in
        stack := List.tl !stack;
        close id ~name ~parent ~t0 ~t1)
  end

let all () = Mutex.protect lock (fun () -> List.rev !spans)

(* Total seconds spent in spans called [name]. *)
let total name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0. (all ())

(* Seconds spent in spans called [name] minus the part covered by their
   direct children: the layer's self time. *)
let self_time name =
  let all = all () in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = name then Hashtbl.replace ids s.id ()) all;
  List.fold_left
    (fun acc s ->
      if s.name = name then acc +. (s.t1 -. s.t0)
      else if Hashtbl.mem ids s.parent then acc -. (s.t1 -. s.t0)
      else acc)
    0. all

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n" s.id
        s.name s.parent s.t0 s.t1)
    (all ());
  close_out oc

let clear () = Mutex.protect lock (fun () -> spans := [])
