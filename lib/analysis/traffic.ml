type bucket = {
  t_start : float;
  delivered : float;
  looped : float;
  blackholed : float;
}

type summary = {
  buckets : bucket list;
  loss_events : int;
  loop_events : int;
  verdict : Sim.verdict;
}

type acc = {
  mutable probes : int;
  mutable delivered : int;
  mutable looped : int;
  mutable blackholed : int;
}

(* Bucket width in seconds. *)
let bucket = 1.0

let observe sim ?(interval = 0.02) ?(max_events = 50_000_000)
    ?(max_vtime = infinity) ~probe () =
  let t0 = Sim.now sim in
  let table : (int, acc) Hashtbl.t = Hashtbl.create 64 in
  let loss_events = ref 0 in
  let loop_events = ref 0 in
  let note ~final:_ statuses =
    let idx = int_of_float ((Sim.now sim -. t0) /. bucket) in
    let acc =
      match Hashtbl.find_opt table idx with
      | Some a -> a
      | None ->
        let a = { probes = 0; delivered = 0; looped = 0; blackholed = 0 } in
        Hashtbl.replace table idx a;
        a
    in
    acc.probes <- acc.probes + 1;
    Array.iter
      (fun s ->
        match (s : Fwd_walk.status) with
        | Delivered -> acc.delivered <- acc.delivered + 1
        | Looped ->
          acc.looped <- acc.looped + 1;
          incr loss_events;
          incr loop_events
        | Blackholed ->
          acc.blackholed <- acc.blackholed + 1;
          incr loss_events)
      statuses
  in
  let verdict =
    Transient.watch sim ~interval ~max_events ~max_vtime ~probe ~note
  in
  let buckets =
    Hashtbl.fold (fun idx acc l -> (idx, acc) :: l) table []
    |> List.sort compare
    |> List.map (fun (idx, a) ->
           let k = float_of_int (max 1 a.probes) in
           {
             t_start = float_of_int idx *. bucket;
             delivered = float_of_int a.delivered /. k;
             looped = float_of_int a.looped /. k;
             blackholed = float_of_int a.blackholed /. k;
           })
  in
  { buckets; loss_events = !loss_events; loop_events = !loop_events; verdict }
