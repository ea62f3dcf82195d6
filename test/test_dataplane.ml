(* Tests for the data-plane substrate: IPv4 prefixes, longest-prefix-match
   tries, packet-loss composition and vantage feeds. *)

let addr = Prefix.addr_of_string

(* --- Prefix ------------------------------------------------------------ *)

let test_prefix_parse_print () =
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Prefix.to_string (Prefix.of_string s)))
    [ "10.0.0.0/8"; "192.168.1.0/24"; "0.0.0.0/0"; "255.255.255.255/32" ]

let test_prefix_canonical () =
  Alcotest.(check string) "host bits cleared" "10.1.0.0/16"
    (Prefix.to_string (Prefix.of_string "10.1.2.3/16"))

let test_prefix_bare_address () =
  Alcotest.(check string) "bare = /32" "1.2.3.4/32"
    (Prefix.to_string (Prefix.of_string "1.2.3.4"))

let test_prefix_invalid () =
  List.iter
    (fun s ->
      match Prefix.of_string s with
      | _ -> Alcotest.failf "accepted %S" s
      | exception Invalid_argument _ -> ())
    [ "10.0.0.0/33"; "10.0.0/8"; "10.0.0.256/8"; "junk"; "1.2.3.4/-1" ]

let test_prefix_mem () =
  let p = Prefix.of_string "10.1.0.0/16" in
  Alcotest.(check bool) "inside" true (Prefix.mem p (addr "10.1.255.255"));
  Alcotest.(check bool) "outside" false (Prefix.mem p (addr "10.2.0.0"));
  Alcotest.(check bool) "default route" true
    (Prefix.mem (Prefix.of_string "0.0.0.0/0") (addr "203.0.113.9"))

let test_prefix_subsumes () =
  let p8 = Prefix.of_string "10.0.0.0/8" in
  let p16 = Prefix.of_string "10.1.0.0/16" in
  Alcotest.(check bool) "/8 covers /16" true (Prefix.subsumes p8 p16);
  Alcotest.(check bool) "/16 not covers /8" false (Prefix.subsumes p16 p8);
  Alcotest.(check bool) "self" true (Prefix.subsumes p8 p8)

let test_prefix_of_asn () =
  Alcotest.(check string) "asn 1" "10.0.1.0/24"
    (Prefix.to_string (Prefix.of_asn 1));
  Alcotest.(check string) "asn 258" "10.1.2.0/24"
    (Prefix.to_string (Prefix.of_asn 258));
  Alcotest.check_raises "asn 0" (Invalid_argument "Prefix.of_asn: ASN outside [1, 65535]")
    (fun () -> ignore (Prefix.of_asn 0))

let test_prefix_of_asn_disjoint () =
  let ps = List.init 500 (fun i -> Prefix.of_asn (i + 1)) in
  let sorted = List.sort_uniq Prefix.compare ps in
  Alcotest.(check int) "all distinct" 500 (List.length sorted)

let test_prefix_random_member () =
  let st = Random.State.make [| 1 |] in
  let p = Prefix.of_string "10.5.5.0/24" in
  for _ = 1 to 100 do
    Alcotest.(check bool) "member inside" true
      (Prefix.mem p (Prefix.random_member st p))
  done

let prop_prefix_member_roundtrip =
  Test_support.qtest "random members always fall inside their prefix"
    QCheck2.Gen.(tup3 (int_range 0 32) int small_nat)
    QCheck2.Print.(tup3 int int int)
    (fun (len, bits, seed) ->
      let p = Prefix.make (Int32.of_int bits) len in
      let st = Random.State.make [| seed |] in
      Prefix.mem p (Prefix.random_member st p))

(* --- Lpm ---------------------------------------------------------------- *)

let test_lpm_basic () =
  let t =
    Lpm.of_list
      [
        (Prefix.of_string "10.0.0.0/8", "eight");
        (Prefix.of_string "10.1.0.0/16", "sixteen");
        (Prefix.of_string "10.1.2.0/24", "twentyfour");
      ]
  in
  let hit a =
    match Lpm.lookup t (addr a) with Some (_, v) -> v | None -> "none"
  in
  Alcotest.(check string) "longest wins" "twentyfour" (hit "10.1.2.3");
  Alcotest.(check string) "middle" "sixteen" (hit "10.1.3.4");
  Alcotest.(check string) "short" "eight" (hit "10.9.9.9");
  Alcotest.(check string) "miss" "none" (hit "11.0.0.1")

let test_lpm_default_route () =
  let t = Lpm.of_list [ (Prefix.of_string "0.0.0.0/0", "default") ] in
  match Lpm.lookup t (addr "203.0.113.1") with
  | Some (p, "default") ->
    Alcotest.(check string) "prefix" "0.0.0.0/0" (Prefix.to_string p)
  | _ -> Alcotest.fail "default route not matched"

let test_lpm_replace_and_remove () =
  let p = Prefix.of_string "10.0.0.0/8" in
  let t = Lpm.add p 1 Lpm.empty in
  let t = Lpm.add p 2 t in
  Alcotest.(check (option int)) "replaced" (Some 2) (Lpm.find p t);
  let t = Lpm.remove p t in
  Alcotest.(check (option int)) "removed" None (Lpm.find p t);
  Alcotest.(check int) "empty" 0 (Lpm.cardinal t)

let test_lpm_to_list_sorted () =
  let entries =
    [
      (Prefix.of_string "192.168.0.0/16", 3);
      (Prefix.of_string "10.0.0.0/8", 1);
      (Prefix.of_string "10.1.0.0/16", 2);
    ]
  in
  let t = Lpm.of_list entries in
  Alcotest.(check int) "cardinal" 3 (Lpm.cardinal t);
  let listed = Lpm.to_list t in
  Alcotest.(check bool) "sorted" true
    (listed = List.sort (fun (p, _) (q, _) -> Prefix.compare p q) entries)

(* Reference implementation: linear scan for the longest matching prefix. *)
let linear_lookup entries a =
  List.fold_left
    (fun best (p, v) ->
      if Prefix.mem p a then
        match best with
        | Some (bp, _) when Prefix.length bp >= Prefix.length p -> best
        | _ -> Some (p, v)
      else best)
    None entries

let prop_lpm_matches_linear_scan =
  Test_support.qtest ~count:100 "trie lookup equals linear longest-match scan"
    QCheck2.Gen.(
      tup2
        (list_size (int_range 0 30) (tup2 (int_range 0 32) int))
        (list_size (int_range 1 20) int))
    QCheck2.Print.(tup2 (list (tup2 int int)) (list int))
    (fun (raw_entries, raw_addrs) ->
      let entries =
        List.mapi
          (fun i (len, bits) -> (Prefix.make (Int32.of_int bits) len, i))
          raw_entries
        (* keep the last value for duplicate prefixes, as Lpm.add does *)
        |> List.rev
        |> List.fold_left
             (fun acc (p, v) ->
               if List.exists (fun (q, _) -> Prefix.equal p q) acc then acc
               else (p, v) :: acc)
             []
      in
      let t = Lpm.of_list entries in
      List.for_all
        (fun a ->
          let a = Int32.of_int a in
          let expected =
            Option.map (fun (p, v) -> (Prefix.to_string p, v))
              (linear_lookup entries a)
          in
          let got =
            Option.map (fun (p, v) -> (Prefix.to_string p, v)) (Lpm.lookup t a)
          in
          expected = got)
        raw_addrs)

(* --- Traffic --------------------------------------------------------------- *)

let test_traffic_no_event_no_loss () =
  let topo = Test_support.diamond () in
  let dest = Test_support.vtx topo 3 in
  let sim, net = Test_support.converge_bgp topo ~dest in
  (* nothing pending: a single observation, zero losses *)
  let s = Traffic.observe sim ~probe:(fun () -> Bgp_net.walk_all net) () in
  Alcotest.(check int) "no loss" 0 s.Traffic.loss_events

let test_traffic_counts_losses () =
  let topo = Test_support.diamond () in
  let dest = Test_support.vtx topo 3 in
  let sim, net = Test_support.converge_bgp topo ~dest in
  Bgp_net.fail_link net dest (Test_support.vtx topo 1);
  let s = Traffic.observe sim ~probe:(fun () -> Bgp_net.walk_all net) () in
  Alcotest.(check bool) "losses observed" true (s.Traffic.loss_events > 0);
  Alcotest.(check bool) "buckets non-empty" true (s.Traffic.buckets <> []);
  List.iter
    (fun (b : Traffic.bucket) ->
      Alcotest.(check bool) "sane bucket" true
        (b.Traffic.delivered >= 0. && b.Traffic.looped >= 0.
        && b.Traffic.blackholed >= 0.))
    s.Traffic.buckets

(* Every checkpoint is counted once: the probe runs exactly as often as the
   transient monitor takes checkpoints on the same scripted simulation. *)
let test_traffic_probes_once_per_checkpoint () =
  let scripted () =
    let sim = Sim.create () in
    List.iter
      (fun d -> Sim.schedule sim ~delay:d (fun _ -> ()))
      [ 0.01; 0.05; 0.07; 1.3; 2.5 ];
    sim
  in
  let calls = ref 0 in
  let s =
    Traffic.observe (scripted ())
      ~probe:(fun () ->
        incr calls;
        [| Fwd_walk.Delivered; Fwd_walk.Looped |])
      ()
  in
  let o, _ =
    Transient.run_guarded (scripted ())
      ~probe:(fun () -> [| Fwd_walk.Delivered; Fwd_walk.Looped |])
      ()
  in
  Alcotest.(check int) "one probe per checkpoint" o.Transient.checkpoints
    !calls;
  Alcotest.(check int) "one loss per probe" !calls s.Traffic.loss_events

(* An initial convergence killed by the budget injects nothing and observes
   nothing. *)
let test_run_traffic_initial_budget () =
  let topo = Test_support.diamond_plus () in
  let vtx = Test_support.vtx topo in
  let spec =
    {
      Scenario.dest = vtx 3;
      events = [ Scenario.Fail_link (vtx 3, vtx 1) ];
      detect_delay = None;
    }
  in
  let s =
    Runner.run_traffic ~validate:`Off
      ~budget:{ Runner.max_events = 5; max_vtime = 86_400. }
      Runner.Bgp topo spec
  in
  Alcotest.(check bool) "no buckets" true (s.Traffic.buckets = []);
  Alcotest.(check int) "no losses" 0 s.Traffic.loss_events;
  Alcotest.(check int) "no loops" 0 s.Traffic.loop_events;
  Alcotest.(check string) "verdict" "event-budget-exhausted"
    (Sim.verdict_name s.Traffic.verdict)

(* --- Vantage ------------------------------------------------------------------ *)

let test_vantage_paths_shape () =
  let topo = Test_support.diamond_plus () in
  let v10 = Test_support.vtx topo 10 in
  let paths = Vantage.paths_from topo ~vantage:v10 in
  Alcotest.(check int) "one path per other AS" 5 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check int) "starts at vantage" 10 (List.hd p))
    paths

let test_vantage_collect_matches_union () =
  let topo = Test_support.diamond_plus () in
  let v10 = Test_support.vtx topo 10 and v20 = Test_support.vtx topo 20 in
  let collected = Vantage.collect topo ~vantage:[ v10; v20 ] in
  let union =
    Vantage.paths_from topo ~vantage:v10 @ Vantage.paths_from topo ~vantage:v20
  in
  Alcotest.(check bool) "same multiset" true
    (List.sort compare collected = List.sort compare union)

let test_default_vantages () =
  let topo = Topo_gen.generate (Topo_gen.default_params ~n:100 ()) in
  let vs = Vantage.default_vantages topo ~count:5 in
  Alcotest.(check int) "count" 5 (List.length vs);
  (* highest-degree first *)
  let degs = List.map (Topology.degree topo) vs in
  Alcotest.(check bool) "descending degrees" true
    (degs = List.sort (fun a b -> compare b a) degs)

(* --- Valley.exists_path --------------------------------------------------------- *)

let test_exists_path_diamond () =
  let t = Test_support.diamond () in
  let vtx = Test_support.vtx t in
  Alcotest.(check bool) "3 reaches 10" true
    (Valley.exists_path t ~src:(vtx 3) ~dst:(vtx 10));
  Alcotest.(check bool) "blocked via 1 still reaches" true
    (Valley.exists_path ~avoid:(fun v -> v = vtx 1) t ~src:(vtx 3) ~dst:(vtx 10));
  Alcotest.(check bool) "blocking both cuts" false
    (Valley.exists_path
       ~avoid:(fun v -> v = vtx 1 || v = vtx 2)
       t ~src:(vtx 3) ~dst:(vtx 10))

let test_exists_path_respects_valley () =
  (* 1 -> 3 -> 2 is a valley: no valley-free path from 1 to 2 avoiding the
     tier-1s exists in the diamond *)
  let t = Test_support.diamond () in
  let vtx = Test_support.vtx t in
  Alcotest.(check bool) "valley forbidden" false
    (Valley.exists_path
       ~avoid:(fun v -> v = vtx 10 || v = vtx 20)
       t ~src:(vtx 1) ~dst:(vtx 2))

let prop_exists_path_agrees_with_oracle =
  Test_support.qtest ~count:15
    "oracle reachability implies valley-free reachability"
    Test_support.gen_params Test_support.print_params (fun p ->
      let t = Topo_gen.generate p in
      let st = Random.State.make [| p.Topo_gen.seed + 41 |] in
      let dest = Random.State.int st (Topology.num_vertices t) in
      let table = Static_route.compute t ~dest in
      Array.for_all
        (fun v ->
          v = dest
          || table.(v) = None
          || Valley.exists_path t ~src:v ~dst:dest)
        (Topology.vertices t))

let () =
  Alcotest.run "dataplane"
    [
      ( "prefix",
        [
          Alcotest.test_case "parse/print" `Quick test_prefix_parse_print;
          Alcotest.test_case "canonical" `Quick test_prefix_canonical;
          Alcotest.test_case "bare address" `Quick test_prefix_bare_address;
          Alcotest.test_case "invalid" `Quick test_prefix_invalid;
          Alcotest.test_case "mem" `Quick test_prefix_mem;
          Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
          Alcotest.test_case "of_asn" `Quick test_prefix_of_asn;
          Alcotest.test_case "of_asn disjoint" `Quick test_prefix_of_asn_disjoint;
          Alcotest.test_case "random member" `Quick test_prefix_random_member;
          prop_prefix_member_roundtrip;
        ] );
      ( "lpm",
        [
          Alcotest.test_case "basic" `Quick test_lpm_basic;
          Alcotest.test_case "default route" `Quick test_lpm_default_route;
          Alcotest.test_case "replace/remove" `Quick test_lpm_replace_and_remove;
          Alcotest.test_case "to_list sorted" `Quick test_lpm_to_list_sorted;
          prop_lpm_matches_linear_scan;
        ] );
      ( "traffic",
        [
          Alcotest.test_case "no event no loss" `Quick test_traffic_no_event_no_loss;
          Alcotest.test_case "counts losses" `Quick test_traffic_counts_losses;
          Alcotest.test_case "one probe per checkpoint" `Quick
            test_traffic_probes_once_per_checkpoint;
          Alcotest.test_case "killed initial convergence" `Quick
            test_run_traffic_initial_budget;
        ] );
      ( "vantage",
        [
          Alcotest.test_case "paths shape" `Quick test_vantage_paths_shape;
          Alcotest.test_case "collect union" `Quick test_vantage_collect_matches_union;
          Alcotest.test_case "default vantages" `Quick test_default_vantages;
        ] );
      ( "valley-reach",
        [
          Alcotest.test_case "diamond" `Quick test_exists_path_diamond;
          Alcotest.test_case "respects valley" `Quick test_exists_path_respects_valley;
          prop_exists_path_agrees_with_oracle;
        ] );
    ]
