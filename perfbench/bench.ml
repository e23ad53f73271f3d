(* The benchmark executable. One run of one workload:

     bench.exe --workload W --seed S --seconds T --trace 0|1

   prints a few human-readable lines and then, as its last line, one
   JSON object: whether the checked outputs were correct, how many
   operations were attempted and how many failed, and the metrics —
   the end-to-end ones with --trace 0, the per-layer ones with
   --trace 1. [bench.exe --self-test] checks the reference flood on
   processes whose flooding time is known exactly. *)

(* Every workload reports every end-to-end metric. An operation is a
   flood, an experiment of the claim suite, or a serve request;
   [latency_ms] is the wait for one unit of work: the mean wall time
   of a pair of floods (one per regime) over the run, the wall time of
   the whole 18-table suite, or a request's latency (the median of
   each id's requests, averaged over the ids). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("latency_ms", "ms");
    ("ops_per_s", "1/s");
    ("rounds_per_s", "1/s");
    ("peak_rss_mb", "MB");
  ]

(* The traced run repeats [latency_ms] and [ops_per_s] as [traced.*]: their
   gap to the untraced figures is the tracing overhead. *)
let traced = [ "latency_ms"; "ops_per_s" ]

let per_layer =
  List.map (fun name -> ("traced." ^ name, List.assoc name end_to_end)) traced
  @ [
    ("flood.sticky_ms", "ms");
    ("flood.churn_ms", "ms");
    ("edge_meg.reset_s", "s");
    ("edge_meg.step_s", "s");
    ("edge_meg.events", "count");
    ("edge_meg.step_ns_per_event", "ns");
    ("adj_sync.apply_s", "s");
    ("adj_sync.rebuild_s", "s");
    ("flooding.self_s", "s");
    ("flood.rounds", "count");
    ("flood.snapshots", "count");
    ("flood.delta_edges", "count");
    ("flood.edges", "count");
    ("exec.tiles", "count");
    ("exec.tile_plans", "count");
    ("exec.plans", "count");
    ("exec.jobs_claimed", "count");
    ("exec.busy_ratio", "ratio");
  ]
  @ List.init 18 (fun i -> (Printf.sprintf "exp.E%d_s" (i + 1), "s"))
  @ [
      ("gossip.contacts", "count");
      ("walk.steps", "count");
      ("rng.splits", "count");
      ("serve.p90_ms", "ms");
      ("serve.compute_ms", "ms");
      ("serve.wait_ms", "ms");
      ("serve.batch_ms", "ms");
      ("serve.decode_us", "us");
      ("serve.progress_frames", "count");
    ]

(* Checks the reference flood on processes whose flooding time is known
   exactly, printing only the cases that fail. *)
let self_test () =
  let cases = Ref_flood.self_test () in
  let show = function Some t -> string_of_int t | None -> "capped" in
  List.iter
    (fun (label, want, got) ->
      if want <> got then
        Printf.printf "FAIL %s: expected %s, got %s\n" label
          (show want) (show got))
    cases;
  List.for_all (fun (_, want, got) -> want = got) cases

(* JSON numbers cannot be nan or infinite; a metric that came out so is
   reported as an incorrect run rather than printed. *)
let json_number x = Printf.sprintf "%.17g" x

let report ~trace (r : Util.result) =
  let wanted = if trace then per_layer else end_to_end in
  let values =
    if not trace then r.values
    else
      List.filter_map
        (fun name -> Option.map (fun v -> ("traced." ^ name, v)) (List.assoc_opt name r.values))
        traced
      @ r.values
  in
  (* A layer this workload does not exercise reads 0. *)
  let value name = Option.value (List.assoc_opt name values) ~default:(if trace then 0. else nan) in
  let finite = List.for_all (fun (name, _) -> Float.is_finite (value name)) wanted in
  List.iter print_endline r.notes;
  if not finite then
    List.iter
      (fun (name, _) ->
        if not (Float.is_finite (value name)) then Printf.printf "metric %s was not measured\n" name)
      wanted;
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (if Float.is_finite (value name) then value name else 0.))
          unit)
      wanted
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.correct && finite) r.attempted r.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10. and trace = ref 0 in
  let self = ref false and cli = ref "_build/default/bin/dyngraph_cli.exe" in
  let out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flood|claims-full|serve-mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "T length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer spans instead of end-to-end metrics");
      ("--cli", Arg.Set_string cli, "PATH dyngraph executable for serve-mixed");
      ("--out", Arg.Set_string out, "DIR where traces and the daemon socket go");
      ("--self-test", Arg.Set self, " check the reference flood and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds T --trace 0|1";
  if !self then exit (if self_test () then 0 else 1);
  let trace = !trace = 1 in
  if trace then Span.enable ();
  (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let seed = !seed and seconds = !seconds in
  let r =
    match !workload with
    | "flood" ->
        let ok = self_test () in
        let r = Wl_flood.run ~seed ~seconds ~trace in
        { r with correct = r.correct && ok }
    | "claims-full" -> Wl_claims.run ~seed ~seconds ~trace
    | "serve-mixed" -> Wl_serve.run ~cli:!cli ~out:!out ~seed ~seconds ~trace
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  if trace then
    Span.write (Filename.concat !out (Printf.sprintf "trace-%s-%d.jsonl" !workload seed));
  report ~trace r
