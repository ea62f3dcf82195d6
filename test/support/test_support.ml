(* Shared fixtures and generators for the test suites. *)

(* A hand-built mini-Internet used across suites:

        10 ----peer---- 20        (tier-1 clique)
        |               |
        1               2         (mid-tier)
         \             /
          \           /
               3                  (multi-homed stub)

   10 is provider of 1, 20 of 2; 1 and 2 are providers of 3. *)
let diamond () =
  let b = Topology.Builder.create () in
  Topology.Builder.add_p2p b 10 20;
  Topology.Builder.add_p2c b ~provider:10 ~customer:1;
  Topology.Builder.add_p2c b ~provider:20 ~customer:2;
  Topology.Builder.add_p2c b ~provider:1 ~customer:3;
  Topology.Builder.add_p2c b ~provider:2 ~customer:3;
  Topology.Builder.build b

(* Same as diamond but with an extra lateral peer link 1--2, which creates
   peer routes, and a single-homed stub 4 under 3. *)
let diamond_plus () =
  let b = Topology.Builder.create () in
  Topology.Builder.add_p2p b 10 20;
  Topology.Builder.add_p2c b ~provider:10 ~customer:1;
  Topology.Builder.add_p2c b ~provider:20 ~customer:2;
  Topology.Builder.add_p2c b ~provider:1 ~customer:3;
  Topology.Builder.add_p2c b ~provider:2 ~customer:3;
  Topology.Builder.add_p2p b 1 2;
  Topology.Builder.add_p2c b ~provider:3 ~customer:4;
  Topology.Builder.build b

(* A fresh domain pool for [f], shut down afterwards (also on exception). *)
let with_pool ~jobs f =
  let pool = Parallel.create ~jobs () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) (fun () -> f pool)

(* A provider chain 1 <- 2 <- ... <- n (1 is the single tier-1). *)
let chain n =
  let b = Topology.Builder.create () in
  for i = 1 to n - 1 do
    Topology.Builder.add_p2c b ~provider:i ~customer:(i + 1)
  done;
  Topology.Builder.build b

let vtx topo asn =
  match Topology.vertex_of_asn topo asn with
  | Some v -> v
  | None -> Alcotest.failf "ASN %d not in topology" asn

let asns_of_path topo path = List.map (Topology.asn topo) path

(* Random topologies for property tests: small enough for exhaustive
   cross-checks, structurally diverse. *)
let gen_params =
  QCheck2.Gen.(
    let* n = int_range 15 70 in
    let* n_tier1 = int_range 1 4 in
    let* mid_fraction = float_range 0.05 0.5 in
    let* stub_q = float_range 0.0 0.7 in
    let* mid_q = float_range 0.0 0.7 in
    let* peers = float_range 0.0 3.0 in
    let* seed = int_range 0 1_000_000 in
    return
      {
        Topo_gen.n;
        n_tier1;
        mid_fraction;
        stub_extra_provider_prob = stub_q;
        mid_extra_provider_prob = mid_q;
        max_providers = 5;
        peers_per_mid = peers;
        seed;
      })

(* Valid tiered topologies: at least two tier-1 ASes, so the top of the
   hierarchy is a genuine peering clique. The STAMP lemma properties use
   this — the paper's Section 3 guarantees presume the tiered structure,
   and degenerate single-tier-1 graphs leave blue-only ASes with no
   disjoint fallback during recovery churn. *)
let gen_params_tiered =
  QCheck2.Gen.map
    (fun p -> { p with Topo_gen.n_tier1 = max 2 p.Topo_gen.n_tier1 })
    gen_params

let gen_topology = QCheck2.Gen.map Topo_gen.generate gen_params

let print_params (p : Topo_gen.params) =
  (* full float precision: a %.2f counterexample does not reproduce *)
  Printf.sprintf
    "{n=%d; t1=%d; mid=%.17g; stub_q=%.17g; mid_q=%.17g; peers=%.17g; seed=%d}"
    p.n p.n_tier1 p.mid_fraction p.stub_extra_provider_prob
    p.mid_extra_provider_prob p.peers_per_mid p.seed

(* Run a freshly created network to convergence and return it. *)
let converge_bgp ?(seed = 7) ?detect_delay topo ~dest =
  let sim = Sim.create ~seed () in
  let net = Bgp_net.create sim topo ~dest ?detect_delay () in
  Bgp_net.start net;
  Sim.run sim;
  (sim, net)

(* A bare Session_core over [topo] carrying ints, for the session-model
   cases: [received ()] lists the (message, arrival time) pairs delivered
   so far, oldest first. *)
let session_core ?(seed = 1) ?(mrai_base = 30.) topo =
  let sim = Sim.create ~seed () in
  let core =
    Session_core.create ~mrai_base ~detect_delay:0. ~trace:Trace.null
      ~who:"Test" ~blank:0 sim topo
  in
  let received = ref [] in
  Session_core.on_receive core (fun ~src:_ ~dst:_ ~slot:_ m ->
      received := (m, Sim.now sim) :: !received);
  (sim, core, fun () -> List.rev !received)

(* One session, 1 -- 2: [send m] sends [m] from 1 to 2. *)
let session_pair ?seed ?mrai_base () =
  let t = chain 2 in
  let sim, core, received = session_core ?seed ?mrai_base t in
  let send m =
    Session_core.send core ~src:(vtx t 1) ~slot:0 ~kind:`Announce m
  in
  (sim, core, send, received)

(* Advertise [desired] from [src] to its neighbour in [slot] through the
   MRAI path, recording what it heard in [rib_out] as an engine does; a
   deferred flush runs [retry] (installed as the core's flush handler). *)
let advertise core ~src ~slot ~rib_out desired ~retry =
  Session_core.on_flush core (fun ~src:_ ~slot:_ ~proc:_ -> retry ());
  match
    Session_core.advertise core ~proc:0 ~src ~slot
      ~heard:(Option.is_some rib_out.(slot))
      ~wants:(Option.is_some desired) ~same:(desired = rib_out.(slot))
  with
  | Announce ->
    rib_out.(slot) <- desired;
    Session_core.send core ~src ~slot ~kind:`Announce (Option.get desired)
  | Withdraw ->
    rib_out.(slot) <- None;
    Session_core.send core ~src ~slot ~kind:`Withdraw 0
  | Idle | Deferred -> ()

(* Alcotest/QCheck glue: register a QCheck2 property as an alcotest case. *)
let qtest ?(count = 50) name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print gen prop)
