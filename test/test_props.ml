(* Algebraic properties of the core data types: total orders, inverses,
   and invariants that every engine silently relies on. *)

let gen_route =
  QCheck2.Gen.(
    let* len = int_range 1 6 in
    let* path = list_repeat len (int_range 0 50) in
    let* cls = oneofl [ Relationship.Customer; Relationship.Peer; Relationship.Provider ] in
    return (Route.make ~cls path))

let print_route r = Format.asprintf "%a" Route.pp r

(* --- Decision is a strict weak order --------------------------------- *)

let prop_decision_irreflexive =
  Test_support.qtest "decision: no route beats itself" gen_route print_route
    (fun r -> not (Decision.better r r))

let prop_decision_asymmetric =
  Test_support.qtest "decision: asymmetry"
    QCheck2.Gen.(tup2 gen_route gen_route)
    QCheck2.Print.(tup2 print_route print_route)
    (fun (a, b) -> not (Decision.better a b && Decision.better b a))

let prop_decision_transitive =
  Test_support.qtest ~count:200 "decision: transitivity"
    QCheck2.Gen.(tup3 gen_route gen_route gen_route)
    QCheck2.Print.(tup3 print_route print_route print_route)
    (fun (a, b, c) ->
      (not (Decision.better a b && Decision.better b c)) || Decision.better a c)

let prop_select_returns_maximum =
  Test_support.qtest "decision: select returns an unbeaten route"
    QCheck2.Gen.(list_size (int_range 1 10) gen_route)
    QCheck2.Print.(list print_route)
    (fun rs ->
      match Decision.select rs with
      | None -> false
      | Some best -> not (List.exists (fun r -> Decision.better r best) rs))

(* The list-free fold picks what [Decision.select] picks from the RIB's
   values, whatever the slot order: RIB entries come from distinct
   neighbours, so their next hops differ and [better] is a total order.
   Slots are handed out in order of first appearance, which is unrelated
   to the neighbours' numbering. *)
let prop_process_select_is_decision_select =
  Test_support.qtest "process: select = Decision.select over the RIB"
    QCheck2.Gen.(list_size (int_range 0 20) gen_route)
    QCheck2.Print.(list print_route)
    (fun rs ->
      let froms =
        List.fold_left
          (fun acc (r : Route.t) ->
            let from = List.hd r.as_path in
            if List.mem from acc then acc else acc @ [ from ])
          [] rs
      in
      let slot_of from =
        let rec find i = function
          | x :: rest -> if x = from then i else find (i + 1) rest
          | [] -> assert false
        in
        find 0 froms
      in
      let p = Process.create 1000 ~degree:(List.length froms) ~route:Fun.id in
      List.iter
        (fun (r : Route.t) ->
          let slot = slot_of (List.hd r.as_path) in
          if p.adj_rib_in.(slot) = None then Process.learn p ~slot r)
        rs;
      Process.select p
      = Decision.select (List.filter_map Fun.id (Array.to_list p.adj_rib_in)))

(* The select cache under every kind of RIB write. Slot [i] belongs to
   neighbour [20 - i] (slot order is the reverse of next-hop order), and
   the process runs at vertex 99: a learned path that contains 99 is an
   implicit withdrawal. A learn into the best's slot may bring a worse
   route. [select] runs after some operations only, so the cache also
   meets writes while it is stale. *)
type rib_op =
  | Learn of int * Route.t
  | Withdraw of int
  | Forget of int
  | Clear
  | Purge of Topology.vertex  (** drop every route through this vertex *)

let print_rib_op = function
  | Learn (slot, r) -> Printf.sprintf "learn %d %s" slot (print_route r)
  | Withdraw slot -> Printf.sprintf "withdraw %d" slot
  | Forget slot -> Printf.sprintf "forget %d" slot
  | Clear -> "clear"
  | Purge x -> Printf.sprintf "purge %d" x

let gen_rib_ops =
  QCheck2.Gen.(
    let* degree = int_range 1 6 in
    let gen_op =
      let* slot = int_range 0 (degree - 1) in
      frequency
        [
          ( 8,
            let* cls = oneofl Relationship.[ Customer; Peer; Provider ]
            and* rest = list_size (int_range 0 3) (int_range 0 8)
            and* loop = frequencyl [ (5, []); (1, [ 99 ]) ] in
            let as_path = ((20 - slot) :: rest) @ loop in
            return (Learn (slot, Route.make ~cls as_path)) );
          (2, return (Withdraw slot));
          (1, return (Forget slot));
          (1, return Clear);
          (1, map (fun x -> Purge x) (int_range 0 8));
        ]
    in
    let* ops = list_size (int_range 0 40) (pair gen_op bool) in
    return (degree, ops))

let prop_select_cache =
  Test_support.qtest ~count:300
    "process: cached select = Decision.select after any RIB write"
    gen_rib_ops
    QCheck2.Print.(pair int (list (pair print_rib_op bool)))
    (fun (degree, ops) ->
      (* the flag count is kept at the same writes *)
      let flag (r : Route.t) = r.cls = Relationship.Peer in
      let p = Process.create 99 ~degree ~route:Fun.id ~flag in
      let agrees () =
        let entries = List.filter_map Fun.id (Array.to_list p.adj_rib_in) in
        Process.select p = Decision.select entries
        && p.flagged = List.length (List.filter flag entries)
      in
      List.for_all
        (fun (op, check) ->
          (match op with
          | Learn (slot, r) -> Process.learn p ~slot r
          | Withdraw slot -> Process.withdraw p ~slot
          | Forget slot -> Process.forget p ~slot
          | Clear -> Process.clear p
          | Purge x -> Process.purge p ~drop:(fun r -> Route.contains r x));
          (not check) || agrees ())
        ops
      && agrees ())

(* --- Export policy ------------------------------------------------------ *)

let all_rels = [ Relationship.Customer; Relationship.Peer; Relationship.Provider ]

let test_export_customer_routes_universal () =
  (* the valley-free matrix in one line: customer routes go everywhere,
     nothing else crosses peers or providers *)
  List.iter
    (fun to_rel ->
      Alcotest.(check bool) "customer exportable" true
        (Export.allowed ~route_cls:Relationship.Customer ~to_rel))
    all_rels;
  List.iter
    (fun route_cls ->
      List.iter
        (fun to_rel ->
          let expected =
            Relationship.equal route_cls Relationship.Customer
            || Relationship.equal to_rel Relationship.Customer
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s -> %s"
               (Relationship.to_string route_cls)
               (Relationship.to_string to_rel))
            expected
            (Export.allowed ~route_cls ~to_rel))
        all_rels)
    all_rels

(* --- Relationship inversion ------------------------------------------- *)

let test_invert_involution () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "invert twice" true
        (Relationship.equal r (Relationship.invert (Relationship.invert r))))
    (Relationship.Sibling :: all_rels)

let prop_topology_rel_symmetric =
  Test_support.qtest ~count:20 "rel(u,v) is the inverse of rel(v,u)"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      Array.for_all
        (fun u ->
          Array.for_all
            (fun (v, r) ->
              match Topology.rel t v u with
              | Some r' -> Relationship.equal r' (Relationship.invert r)
              | None -> false)
            (Topology.neighbors t u))
        (Topology.vertices t))

(* --- Prefix ordering ----------------------------------------------------- *)

let gen_prefix =
  QCheck2.Gen.(
    let* len = int_range 0 32 in
    let* bits = int in
    return (Prefix.make (Int32.of_int bits) len))

let print_prefix = Prefix.to_string

let prop_prefix_compare_total_order =
  Test_support.qtest "prefix: compare is antisymmetric and consistent with equal"
    QCheck2.Gen.(tup2 gen_prefix gen_prefix)
    QCheck2.Print.(tup2 print_prefix print_prefix)
    (fun (a, b) ->
      let c1 = Prefix.compare a b and c2 = Prefix.compare b a in
      (c1 = 0) = (c2 = 0)
      && (c1 > 0) = (c2 < 0)
      && Prefix.equal a b = (c1 = 0))

let prop_prefix_subsumes_partial_order =
  Test_support.qtest "prefix: subsumption is reflexive and transitive-ish"
    QCheck2.Gen.(tup2 gen_prefix gen_prefix)
    QCheck2.Print.(tup2 print_prefix print_prefix)
    (fun (a, b) ->
      Prefix.subsumes a a
      && ((not (Prefix.subsumes a b && Prefix.subsumes b a)) || Prefix.equal a b))

let prop_prefix_string_roundtrip =
  Test_support.qtest "prefix: to_string/of_string roundtrip" gen_prefix
    print_prefix (fun p ->
      Prefix.equal p (Prefix.of_string (Prefix.to_string p)))

(* --- Event heap: a sort ---------------------------------------------------- *)

let prop_heap_is_stable_sort =
  Test_support.qtest "heap: drain equals stable sort by time"
    QCheck2.Gen.(list_size (int_range 0 100) (int_range 0 20))
    QCheck2.Print.(list int)
    (fun times ->
      let h = Event_heap.create () in
      List.iteri (fun i t -> Event_heap.push h ~time:(float_of_int t) i) times;
      let rec drain acc =
        if Event_heap.is_empty h then List.rev acc
        else
          let t = Event_heap.next_time h in
          drain ((t, Event_heap.take h) :: acc)
      in
      let got = drain [] in
      let expected =
        List.mapi (fun i t -> (float_of_int t, i)) times
        |> List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
      in
      got = expected)

(* --- Valley decomposition invariants ---------------------------------------- *)

let prop_decompose_partitions_path =
  Test_support.qtest ~count:20 "valley: uphill @ downhill = the path"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 71 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let table = Static_route.compute t ~dest in
      Array.for_all
        (fun v ->
          match Static_route.path_from table v with
          | None -> false
          | Some path ->
            let up, down = Valley.decompose t path in
            up @ down = path)
        (Topology.vertices t))

let () =
  Alcotest.run "props"
    [
      ( "decision",
        [
          prop_decision_irreflexive;
          prop_decision_asymmetric;
          prop_decision_transitive;
          prop_select_returns_maximum;
          prop_process_select_is_decision_select;
          prop_select_cache;
        ] );
      ( "export",
        [
          Alcotest.test_case "valley-free matrix" `Quick
            test_export_customer_routes_universal;
        ] );
      ( "relationship",
        [
          Alcotest.test_case "invert involution" `Quick test_invert_involution;
          prop_topology_rel_symmetric;
        ] );
      ( "prefix",
        [
          prop_prefix_compare_total_order;
          prop_prefix_subsumes_partial_order;
          prop_prefix_string_roundtrip;
        ] );
      ("heap", [ prop_heap_is_stable_sort ]);
      ("valley", [ prop_decompose_partitions_path ]);
    ]
