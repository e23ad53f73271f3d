(* The reference flood: the paper's definition I_{t+1} = I_t ∪
   N_{E_t}(I_t), written as a plain scan of every snapshot edge, with
   none of the kernel's machinery (no delta stream, no incremental
   adjacency, no frontier tiles). It checks the flooding times the
   kernel reports on the flood workload. *)

(* Flooding time from [source], or [None] when [cap] rounds pass first.
   The caller has reset [g]; E_0 is its current snapshot. *)
let time ~cap ~source g =
  let n = Core.Dynamic.n g in
  let informed = Bytes.make n '\000' in
  Bytes.set informed source '\001';
  let count = ref 1 in
  (* Nodes reached in this round join only after the scan, so a round
     spreads one hop over E_t and never along a chain of edges. *)
  let fresh = ref [] in
  let reach v =
    if Bytes.get informed v = '\000' then begin
      Bytes.set informed v '\002';
      fresh := v :: !fresh
    end
  in
  let rec loop t =
    if !count = n then Some t
    else if t >= cap then None
    else begin
      Core.Dynamic.iter_edges g (fun u v ->
          if Bytes.get informed u = '\001' then reach v
          else if Bytes.get informed v = '\001' then reach u);
      List.iter
        (fun v ->
          Bytes.set informed v '\001';
          incr count)
        !fresh;
      fresh := [];
      if !count < n then Core.Dynamic.step g;
      loop (t + 1)
    end
  in
  loop 0

(* The same seeding as [Core.Flooding.time ~rng:(Prng.Rng.of_seed seed)]:
   the model is reset with the first split of the flood's generator. *)
let time_of_seed ~cap ~source ~seed g =
  Core.Dynamic.reset g (Prng.Rng.split (Prng.Rng.of_seed seed));
  time ~cap ~source g

(* Processes whose flooding time is known exactly. [of_snapshots]
   case, from node 0 on 4 nodes: E_0 = {01} informs 1, E_1 = {23}
   reaches no one new, E_2 = {12} informs 2, E_3 = {23} informs 3. *)
let known_cases () =
  let static g = Core.Dynamic.of_static g in
  [
    ("path of 12 from an end", static (Graph.Builders.path_graph 12), 0, Some 11);
    ("complete graph on 9", static (Graph.Builders.complete 9), 4, Some 1);
    ("star on 8 from a leaf", static (Graph.Builders.star 8), 7, Some 2);
    ("single node", static (Graph.Builders.complete 1), 0, Some 0);
    ( "hand-worked snapshot sequence",
      Core.Dynamic.of_snapshots ~n:4 [| [ (0, 1) ]; [ (2, 3) ]; [ (1, 2) ]; [ (2, 3) ] |],
      0,
      Some 4 );
    ( "disconnected pair stays capped",
      Core.Dynamic.of_snapshots ~n:3 [| [ (0, 1) ] |],
      0,
      None );
  ]

(* Every known case, as (label, expected, got). *)
let self_test () =
  List.map
    (fun (label, g, source, expected) ->
      Core.Dynamic.reset g (Prng.Rng.of_seed 1);
      (label, expected, time ~cap:50 ~source g))
    (known_cases ())
