(* The serve workload: [dyngraph serve] as its own process with its
   default settings (1 executor, 1 job), driven by [clients] closed-loop
   connections from this process. Each client sends quick-scale [run]
   requests back to back, cycling over [ids]; every request has its own
   seed, so none is a cache hit. Afterwards every answered request is
   computed again here with [Simulate.Registry.single_outcome]: the
   response must match it byte for byte, [ok] flag included. *)

let ids = [| "E1"; "E6"; "E11"; "E13" |]
let clients = 2
let setups = 3
let min_requests = 100

(* Requests never reach this; it only stops a run whose daemon hangs. *)
let hard_limit_s = 120.

(* Measured request k of client c uses seed [100_000 s + 2k + c]; the
   warm-up requests of set-up use [100_000 s + 90_000 + i]. *)
let request_seed seed ~client ~k = (100_000 * seed) + (2 * k) + client
let warm_seed seed i = (100_000 * seed) + 90_000 + i
let scale = Simulate.Runner.Quick

type answer = {
  id : string;
  seed : int;
  latency_s : float;
  reply : (Serve.Protocol.msg, string) result;
      (** the request's Result frame, or why there was none *)
  progress : int;
  decode_s : float;
}

(* --- the daemon --- *)

type daemon = { pid : int; socket : string }

let spawn ~cli ~out =
  let socket = Filename.concat out "serve.sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat out "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid = Unix.create_process cli [| cli; "serve"; "--socket"; socket |] null null log in
  Unix.close null;
  Unix.close log;
  { pid; socket }

let connect d =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX d.socket);
    fd
  with e ->
    Unix.close fd;
    raise e

let rec connect_when_ready ~deadline d =
  match connect d with
  | fd -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when Util.now () < deadline
    ->
      Unix.sleepf 0.005;
      connect_when_ready ~deadline d

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 20. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

(* --- one request on a connection --- *)

let request ~fd ~ic ~tag ~id ~seed =
  let line =
    Serve.Protocol.encode_request ~req:tag
      (Serve.Protocol.Run { id; seed; scale; render = Simulate.Registry.Full })
    ^ "\n"
  in
  let t0 = Util.now () in
  let sent =
    try
      let b = Bytes.of_string line in
      let off = ref 0 in
      while !off < Bytes.length b do
        off := !off + Unix.write fd b !off (Bytes.length b - !off)
      done;
      true
    with Unix.Unix_error _ -> false
  in
  let progress = ref 0 and decode_s = ref 0. in
  let rec await () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> Error "connection closed"
    | reply -> (
        let t_read = Util.now () in
        let msg = Serve.Protocol.decode_msg reply in
        let t_decoded = Util.now () in
        match msg with
        | Ok (Serve.Protocol.Progress p) when p.req = tag ->
            incr progress;
            await ()
        | Ok (Serve.Protocol.Result r as m) when r.req = tag ->
            decode_s := t_decoded -. t_read;
            Ok (m, t_read)
        | Ok (Serve.Protocol.Error e) -> Error ("error frame: " ^ e.message)
        | Ok _ -> await ()
        | Error e -> Error ("undecodable frame: " ^ e))
  in
  let reply, t1 =
    if not sent then (Error "request not sent", Util.now ())
    else match await () with Ok (m, t) -> (Ok m, t) | Error e -> (Error e, Util.now ())
  in
  { id; seed; latency_s = t1 -. t0; reply; progress = !progress; decode_s = !decode_s }

(* Set-up: start the daemon, wait for its socket and send one request
   per id, so the pool, scratch and alias tables are warm. *)
let setup ~cli ~out ~seed =
  let t0 = Util.now () in
  let d = spawn ~cli ~out in
  let fd = connect_when_ready ~deadline:(t0 +. 60.) d in
  let ic = Unix.in_channel_of_descr fd in
  let warm =
    Array.mapi (fun i id -> request ~fd ~ic ~tag:i ~id ~seed:(warm_seed seed i)) ids
  in
  Unix.close fd;
  let dt = Util.now () -. t0 in
  Array.iter
    (fun a -> match a.reply with Ok _ -> () | Error e -> failwith ("serve warm-up: " ^ e))
    warm;
  (d, dt)

(* One closed-loop client: whole cycles over [ids] until the run is
   long enough. When the daemon stops answering, the rest of the cycle
   is recorded as failed and the client stops. *)
let client d ~seed ~seconds ~t_start ~completed ~c answers =
  let tag = ref 0 in
  let record a =
    answers := a :: !answers;
    (match a.reply with Ok _ -> Atomic.incr completed | Error _ -> ());
    if Span.enabled () then
      ignore (Span.add ~name:"serve.request" ~parent:(-1) ~t0:(Util.now () -. a.latency_s) ~t1:(Util.now ()))
  in
  let conn = try Ok (connect d) with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e) in
  let alive = ref (Result.is_ok conn) in
  let ic = match conn with Ok fd -> Some (Unix.in_channel_of_descr fd) | Error _ -> None in
  let continue () =
    let elapsed = Util.now () -. t_start in
    elapsed < hard_limit_s && (elapsed < seconds || Atomic.get completed < min_requests)
  in
  while !tag = 0 || (!alive && continue ()) do
    Array.iteri
      (fun i _ ->
        let id = ids.((i + (2 * c)) mod Array.length ids) in
        let k = !tag in
        incr tag;
        let seed = request_seed seed ~client:c ~k in
        match (conn, ic) with
        | Ok fd, Some ic when !alive ->
            let a = request ~fd ~ic ~tag:k ~id ~seed in
            if Result.is_error a.reply then alive := false;
            record a
        | Error e, _ ->
            record { id; seed; latency_s = 0.; reply = Error ("connect: " ^ e); progress = 0; decode_s = 0. }
        | _ ->
            record
              { id; seed; latency_s = 0.; reply = Error "daemon stopped answering"; progress = 0; decode_s = 0. })
      ids
  done;
  match conn with Ok fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()) | Error _ -> ()

let live = ref None

let run ~cli ~out ~seed ~seconds ~trace =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit (fun () -> Option.iter stop !live);
  let setup_times =
    Array.init setups (fun rep ->
        let d, dt = setup ~cli ~out ~seed in
        if rep < setups - 1 then stop d else live := Some d;
        dt)
  in
  let d = Option.get !live in
  Span.clear ();
  let completed = Atomic.make 0 in
  let per_client = Array.init clients (fun _ -> ref []) in
  let t_start = Util.now () in
  let threads =
    List.init clients (fun c ->
        Thread.create (fun () -> client d ~seed ~seconds ~t_start ~completed ~c per_client.(c)) ())
  in
  List.iter Thread.join threads;
  let timed_s = Util.now () -. t_start in
  let peak = Util.peak_rss_mb ~pid:(string_of_int d.pid) () in
  stop d;
  live := None;
  let answers = List.concat_map (fun r -> List.rev !r) (Array.to_list per_client) in
  (* The check: every answered request computed again in this process.
     Untraced runs spread the batch runs over two domains to keep the
     run short; traced runs keep them sequential, as the daemon runs
     them, so that serve.batch_ms compares like with like. *)
  Obs.Clock.set Unix.gettimeofday;
  Obs.Metrics.enable ();
  let batch (a : answer) =
    match a.reply with
    | Ok (Serve.Protocol.Result _) ->
        let e = Option.get (Simulate.Registry.find a.id) in
        Some (Simulate.Registry.single_outcome ~clock:Unix.gettimeofday ~seed:a.seed ~scale e)
    | _ -> None
  in
  let answers_a = Array.of_list answers in
  let batches =
    Exec.run
      (if trace then Exec.sequential else Exec.pool 2)
      (Exec.plan ~jobs:(Array.length answers_a) ~job:(fun i -> batch answers_a.(i)) ~reduce:Fun.id)
  in
  let notes = ref [] in
  let checked =
    List.mapi
      (fun i a ->
        match (a.reply, batches.(i)) with
        | Ok (Serve.Protocol.Result r), Some (output, ok, batch_s, counts) ->
            let same = String.equal output r.output && ok = r.ok in
            if not same then
              notes := Printf.sprintf "%s seed %d: response differs from the batch run" a.id a.seed :: !notes;
            (a, same, Some (r.seconds, batch_s, counts))
        | Error e, _ ->
            notes := Printf.sprintf "%s seed %d: %s" a.id a.seed e :: !notes;
            (a, false, None)
        | _ -> (a, false, None))
      answers
  in
  let answered = List.filter_map (fun (a, _, x) -> Option.map (fun x -> (a, x)) x) checked in
  let failed = List.length (List.filter (fun (_, same, _) -> not same) checked) in
  let lat = Array.of_list (List.map (fun (a, _) -> a.latency_s) answered) in
  (* The ids cost several times one another, so the median over all
     requests falls between their clusters and moves with the mix; the
     mean of each id's median latency does not. *)
  let id_p50_ms =
    Array.to_list ids
    |> List.filter_map (fun id ->
           match List.filter (fun (a, _) -> a.id = id) answered with
           | [] -> None
           | xs -> Some (id, Util.p50_ms (Array.of_list (List.map (fun (a, _) -> a.latency_s) xs))))
  in
  let count name =
    List.fold_left
      (fun acc (_, (_, _, counts)) -> acc + Option.value (List.assoc_opt name counts) ~default:0)
      0 answered
  in
  let nanswered = List.length answered in
  let per_request x = x /. float_of_int (max 1 nanswered) in
  let p50 xs = if Array.length xs = 0 then nan else Util.median xs in
  let e2e =
    (if nanswered = 0 then [] else [ ("latency_ms", Util.mean (Array.of_list (List.map snd id_p50_ms))) ])
    @ [
      ("setup_s", Util.median setup_times);
      ("ops_per_s", float_of_int nanswered /. timed_s);
      ("rounds_per_s", float_of_int (count "flood.rounds") /. timed_s);
      ("peak_rss_mb", peak);
    ]
  in
  let layers =
    if not trace then []
    else
      let of_answers f = Array.of_list (List.map f answered) in
      [
        ("serve.p90_ms", if nanswered = 0 then nan else 1000. *. Util.quantile lat 0.9);
        ("serve.compute_ms", 1000. *. p50 (of_answers (fun (_, (s, _, _)) -> s)));
        ("serve.wait_ms", 1000. *. p50 (of_answers (fun (a, (s, _, _)) -> a.latency_s -. s)));
        ("serve.batch_ms", 1000. *. p50 (of_answers (fun (_, (_, b, _)) -> b)));
        ("serve.decode_us", 1e6 *. p50 (of_answers (fun (a, _) -> a.decode_s)));
        ( "serve.progress_frames",
          per_request (float_of_int (List.fold_left (fun acc (a, _) -> acc + a.progress) 0 answered)) );
      ]
      @ List.map
          (fun name -> (name, per_request (float_of_int (count name))))
          [ "flood.rounds"; "flood.edges"; "gossip.contacts"; "walk.steps"; "rng.splits" ]
  in
  {
    Util.attempted = List.length answers;
    failed;
    correct = true;
    values = e2e @ layers;
    notes =
      Printf.sprintf
        "serve-mixed: %d requests, %d answered in %.3f s; latency p50 %.1f ms, p90 %.1f ms over %d samples, p50 by id %s; set-up %s s"
        (List.length answers) nanswered timed_s
        (1000. *. p50 lat)
        (if nanswered = 0 then nan else 1000. *. Util.quantile lat 0.9)
        (Array.length lat)
        (String.concat " " (List.map (fun (id, ms) -> Printf.sprintf "%s %.1f ms" id ms) id_p50_ms))
        (String.concat " / " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_times)))
      :: List.rev !notes;
  }
