(* A forwarding [Core.Dynamic.t] that records a span around every call
   the flooding kernel makes into the model. Every hook the model has
   is passed on — including the delta stream and its size hint — so
   the kernel takes exactly the branches it takes on the bare model.

   [deltas] spans cover the model's emission together with the
   consumer's callbacks ([Adj_sync]'s incremental apply); [iter_edges]
   and [fill_edges] spans cover the snapshot read together with
   [Adj_sync]'s rebuild. [events] counts birth and death callbacks. *)

let wrap ~events m =
  let open Core.Dynamic in
  let deltas =
    if has_deltas m then
      Some
        (fun ~birth ~death ->
          Span.with_ "adj_sync.apply" (fun () ->
              deltas m
                ~birth:(fun u v ->
                  incr events;
                  birth u v)
                ~death:(fun u v ->
                  incr events;
                  death u v)))
    else None
  in
  let delta_size =
    match delta_size m with
    | Some _ -> Some (fun () -> Option.value (Core.Dynamic.delta_size m) ~default:0)
    | None -> None
  in
  make
    ~fill_edges:(fun buf -> Span.with_ "adj_sync.rebuild" (fun () -> fill_edges m buf))
    ?deltas ?delta_size ~expected_edges:(expected_edges m) ~n:(n m)
    ~reset:(fun rng -> Span.with_ "edge_meg.reset" (fun () -> reset m rng))
    ~step:(fun () -> Span.with_ "edge_meg.step" (fun () -> step m))
    ~iter_edges:(fun f -> Span.with_ "adj_sync.rebuild" (fun () -> iter_edges m f))
    ()
