(* The flood workload: [Core.Flooding.time] (protocol Flood, source 0)
   on the auto-selected off-heap partitioned [Edge_meg.Classic] at
   n = 2^18, [Exec.Pool] at 2 workers, in two regimes that put
   [Adj_sync] on its two branches. One operation is a pair of floods
   with the same seed, one per regime; a run floods whole pairs, so
   both regimes share every second of the run's host conditions. Every
   flood is checked afterwards against [Ref_flood] on second,
   independent model instances with the same parameters. *)

type regime = { label : string; p_times_n : float; q : float }

(* Low churn: about 65k births and deaths per round against ~2.6e5
   edges, so [Adj_sync] applies every step's delta report. *)
let sticky = { label = "sticky"; p_times_n = 0.25; q = 0.125 }

(* High churn: every step's report is past the 5Δ ≥ 2m + n crossover,
   so [Adj_sync] rebuilds from [iter_edges] every round. *)
let churn = { label = "churn"; p_times_n = 4.; q = 0.5 }

let regimes = [| sticky; churn |]
let n = 1 lsl 18
let workers = 2
let setups = 3

(* [Core.Flooding]'s default cap, which the reference uses too. *)
let cap = 10_000 + (200 * n)

let make_model r = Edge_meg.Classic.make ~n ~p:(r.p_times_n /. float_of_int n) ~q:r.q ()

(* Measured pair [k] of the run floods both regimes with seed
   [1000 s + k]; the untimed warm-up pairs of set-up use
   [1000 s + 500 + rep], outside the measured set. *)
let flood_seed seed k = (1000 * seed) + k
let warm_seed seed rep = (1000 * seed) + 500 + rep

(* A warm-up flood stops after this many rounds: enough to reset the
   model, build the adjacency once and apply delta reports, which is
   every first-use cost a flood has, at a fraction of a whole flood. *)
let warm_rounds = 3

let flood ?cap g s = Core.Flooding.time ?cap ~rng:(Prng.Rng.of_seed s) ~source:0 g

(* Per-regime totals of the traced run: span seconds by name, taken
   as the difference around each flood, and birth/death callbacks. *)
let span_names = [ "edge_meg.reset"; "edge_meg.step"; "adj_sync.apply"; "adj_sync.rebuild" ]

let run ~seed ~seconds ~trace =
  Exec.Pool.set_workers workers;
  let events = ref 0 in
  let build r =
    let m = make_model r in
    if trace then Timed_model.wrap ~events m else m
  in
  (* Set-up: build both models and run a warm-up flood on each,
     [setups] times over, keeping the last models. The first repetition
     also pays the process's first-use costs (pool domains, kernel
     scratch). *)
  let models = ref [||] in
  let setup_times =
    Array.init setups (fun rep ->
        (* The kernel's domain-local scratch keeps the last flooded
           model and its adjacency alive; flooding a 2-node graph
           releases them, so each repetition starts from nothing and the
           peak holds one pair of models, as in a process that sets up
           once. *)
        models := [||];
        ignore (flood (Core.Dynamic.of_static (Graph.Builders.complete 2)) 0);
        Gc.full_major ();
        let t0 = Util.now () in
        let gs = Array.map build regimes in
        Array.iter (fun g -> ignore (flood ~cap:warm_rounds g (warm_seed seed rep))) gs;
        models := gs;
        Util.now () -. t0)
  in
  let gs = !models in
  let setup_s = Util.median setup_times in
  Span.clear ();
  if trace then begin
    Obs.Metrics.reset ();
    Obs.Metrics.enable ()
  end;
  (* [by_regime.(i)] accumulates, for regime [i]: wall seconds, then
     the seconds of each name in [span_names], then events. *)
  let by_regime = Array.init (Array.length regimes) (fun _ -> Array.make (List.length span_names + 2) 0.) in
  let span_totals () = List.map Span.total span_names in
  (* The check: a flood fails when it was capped or when its time
     differs from the reference flood's, run on models of its own. *)
  let references = ref [||] in
  let failed = ref 0 and notes = ref [] and ref_secs = Array.make (Array.length regimes) 0. in
  let show = function Some t -> string_of_int t | None -> "capped" in
  let check (i, s, time, _) =
    let t0 = Util.now () in
    let want = Ref_flood.time_of_seed ~cap ~source:0 ~seed:s !references.(i) in
    ref_secs.(i) <- ref_secs.(i) +. (Util.now () -. t0);
    match (time, want) with
    | Some t, Some w when t = w -> ()
    | _ ->
        incr failed;
        notes :=
          Printf.sprintf "%s seed %d: kernel %s, reference %s" regimes.(i).label s (show time) (show want)
          :: !notes
  in
  let floods = ref [] and peak = ref nan in
  let t_start = Util.now () in
  let k = ref 0 in
  (* Each timed pair is checked right after it, untimed: the run's
     [seconds] then spread the timed floods over as much of the host's
     swings as the run lasts, rather than over a window the check
     follows. *)
  while !k = 0 || Util.now () -. t_start < seconds do
    let s = flood_seed seed !k in
    let pair =
      Array.mapi
        (fun i g ->
          let before = if trace then span_totals () else [] and ev0 = !events in
          let t0 = Util.now () in
          let time = Span.with_ "flooding" (fun () -> flood g s) in
          let wall = Util.now () -. t0 in
          let acc = by_regime.(i) in
          acc.(0) <- acc.(0) +. wall;
          if trace then
            List.iteri (fun j (b, a) -> acc.(j + 1) <- acc.(j + 1) +. a -. b) (List.combine before (span_totals ()));
          acc.(Array.length acc - 1) <- acc.(Array.length acc - 1) +. float_of_int (!events - ev0);
          (i, s, time, wall))
        gs
    in
    (* The peak resident set is the program's: it is read before the
       reference models exist. *)
    if !k = 0 then begin
      peak := Util.peak_rss_mb ();
      references := Array.map make_model regimes
    end;
    let counting = Obs.Metrics.enabled () in
    Obs.Metrics.disable ();
    Array.iter check pair;
    if counting then Obs.Metrics.enable ();
    floods := List.rev_append (Array.to_list pair) !floods;
    incr k
  done;
  let run_s = Util.now () -. t_start in
  Obs.Metrics.disable ();
  let peak = !peak in
  let pairs = !k in
  let floods = List.rev !floods in
  let rounds = List.fold_left (fun acc (_, _, t, _) -> acc + Option.value t ~default:0) 0 floods in
  let flood_s = Array.fold_left (fun acc a -> acc +. a.(0)) 0. by_regime in
  (* Totals over the whole run, not medians over its floods: the host's
     speed swings by a fifth and more with a period of tens of seconds,
     and a run-long total averages over those swings where a median of
     a few floods lands on one side of them. *)
  let e2e =
    [
      ("setup_s", setup_s);
      ("latency_ms", 1000. *. flood_s /. float_of_int pairs);
      ("ops_per_s", float_of_int pairs /. flood_s);
      ("rounds_per_s", float_of_int rounds /. flood_s);
      ("peak_rss_mb", peak);
    ]
  in
  let layers =
    if not trace then []
    else
      let per_pair x = x /. float_of_int pairs in
      let total j = Array.fold_left (fun acc a -> acc +. a.(j)) 0. by_regime in
      let col name =
        let rec find j = function
          | [] -> invalid_arg name
          | x :: _ when x = name -> j + 1
          | _ :: rest -> find (j + 1) rest
        in
        find 0 span_names
      in
      let st = by_regime.(0) in
      let st_events = st.(Array.length st - 1) in
      [
        ("flood.sticky_ms", 1000. *. per_pair by_regime.(0).(0));
        ("flood.churn_ms", 1000. *. per_pair by_regime.(1).(0));
        ("edge_meg.reset_s", per_pair (total (col "edge_meg.reset")));
        ("edge_meg.step_s", per_pair (total (col "edge_meg.step")));
        ("edge_meg.events", per_pair st_events);
        ( "edge_meg.step_ns_per_event",
          if st_events > 0. then st.(col "edge_meg.step") *. 1e9 /. st_events else 0. );
        ("adj_sync.apply_s", per_pair (total (col "adj_sync.apply")));
        ("adj_sync.rebuild_s", per_pair (total (col "adj_sync.rebuild")));
        ("flooding.self_s", per_pair (Span.self_time "flooding"));
        ("flood.rounds", per_pair (Util.counter "flood.rounds"));
        ("flood.snapshots", per_pair (Util.counter "flood.snapshots"));
        ("flood.delta_edges", per_pair (Util.counter "flood.delta_edges"));
        ("flood.edges", per_pair (Util.counter "flood.edges"));
        ("exec.tiles", per_pair (Util.counter "exec.tiles"));
        ("exec.tile_plans", per_pair (Util.counter "exec.tile_plans"));
      ]
  in
  let mean_s i = by_regime.(i).(0) /. float_of_int pairs in
  {
    Util.attempted = 2 * pairs;
    failed = !failed;
    correct = true;
    values = e2e @ layers;
    notes =
      Printf.sprintf
        "flood: %d pairs, %d rounds in %.3f s of floods, %.3f s with their checks; mean flood sticky %.3f s, churn %.3f s; reference sticky %.3f s, churn %.3f s; set-up %s s"
        pairs rounds flood_s run_s (mean_s 0) (mean_s 1)
        (ref_secs.(0) /. float_of_int pairs)
        (ref_secs.(1) /. float_of_int pairs)
        (String.concat " / " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_times)))
      :: ("floods (regime rounds wall-s): "
         ^ String.concat ", "
             (List.map
                (fun (i, _, t, wall) -> Printf.sprintf "%s %s %.3f" regimes.(i).label (show t) wall)
                floods))
      :: List.rev !notes;
  }
