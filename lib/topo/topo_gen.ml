type params = {
  n : int;
  n_tier1 : int;
  mid_fraction : float;
  stub_extra_provider_prob : float;
  mid_extra_provider_prob : float;
  max_providers : int;
  peers_per_mid : float;
  seed : int;
}

let default_params ?(seed = 42) ~n () =
  {
    n;
    n_tier1 = min 10 (max 1 (n / 20));
    mid_fraction = 0.15;
    stub_extra_provider_prob = 0.45;
    mid_extra_provider_prob = 0.5;
    max_providers = 6;
    peers_per_mid = 2.0;
    seed;
  }

let validate p =
  if p.n < p.n_tier1 + 2 then invalid_arg "Topo_gen: n too small for n_tier1";
  if p.n_tier1 < 1 then invalid_arg "Topo_gen: n_tier1 < 1";
  if p.mid_fraction < 0. || p.mid_fraction > 1. then
    invalid_arg "Topo_gen: mid_fraction out of [0,1]";
  if
    p.stub_extra_provider_prob < 0.
    || p.stub_extra_provider_prob >= 1.
    || p.mid_extra_provider_prob < 0.
    || p.mid_extra_provider_prob >= 1.
  then invalid_arg "Topo_gen: extra-provider probabilities must be in [0,1)";
  if p.max_providers < 1 then invalid_arg "Topo_gen: max_providers < 1";
  if p.peers_per_mid < 0. then invalid_arg "Topo_gen: peers_per_mid < 0"

(* Number of providers: [base] plus a geometric tail with parameter [q],
   capped. *)
let draw_provider_count st ~base ~q ~cap =
  let rec loop k = if k >= cap || Random.State.float st 1. >= q then k else loop (k + 1) in
  loop base

(* The transit ASNs' attachment weights (customer count + 1, or 0 while
   chosen in the current draw), 1-based by ASN, with a Fenwick tree of
   their prefix sums: a weighted draw costs O(log n), not a scan of every
   candidate. Integer sums are exact, so the draws are those of a scan. *)
type weights = { w : int array; tree : int array }

let add ws asn d =
  ws.w.(asn) <- ws.w.(asn) + d;
  let i = ref asn in
  while !i < Array.length ws.tree do
    ws.tree.(!i) <- ws.tree.(!i) + d;
    i := !i + (!i land - !i)
  done

let prefix ws m =
  let sum = ref 0 and i = ref m in
  while !i > 0 do
    sum := !sum + ws.tree.(!i);
    i := !i - (!i land - !i)
  done;
  !sum

(* The first ASN whose prefix sum exceeds [r]. *)
let search ws r =
  let n = Array.length ws.tree - 1 in
  let pos = ref 0 and rem = ref r and step = ref 1 in
  while 2 * !step <= n do
    step := 2 * !step
  done;
  while !step > 0 do
    let next = !pos + !step in
    if next <= n && ws.tree.(next) <= !rem then begin
      pos := next;
      rem := !rem - ws.tree.(next)
    end;
    step := !step / 2
  done;
  !pos + 1

(* Weighted choice of [k] distinct provider ASNs among the candidates
   [1..m] — preferential attachment. *)
let choose_providers st ~k ~m ws =
  let rec loop i acc =
    let total = prefix ws m in
    if i = 0 || total <= 0 then acc
    else begin
      let r = Random.State.float st (float_of_int total) in
      let asn = search ws (int_of_float r) in
      (* numeric slack: fall back to the last unchosen candidate *)
      let rec last a = if ws.w.(a) > 0 then a else last (a - 1) in
      let asn = if asn <= m then asn else last m in
      add ws asn (-ws.w.(asn));
      loop (i - 1) (asn :: acc)
    end
  in
  loop k []

let generate p =
  validate p;
  let st = Random.State.make [| p.seed |] in
  let b = Topology.Builder.create () in
  let n_non_t1 = p.n - p.n_tier1 in
  let n_mid =
    min (n_non_t1 - 1)
      (max 1 (int_of_float (Float.round (float_of_int n_non_t1 *. p.mid_fraction))))
  in
  let n_stub = n_non_t1 - n_mid in
  (* ASNs: tier-1 = 1..n_tier1, mid = n_tier1+1 .. n_tier1+n_mid, stubs after. *)
  let t1_lo = 1 and t1_hi = p.n_tier1 in
  let mid_lo = t1_hi + 1 and mid_hi = t1_hi + n_mid in
  let ws =
    { w = Array.make (mid_hi + 1) 0; tree = Array.make (mid_hi + 1) 0 }
  in
  for asn = 1 to mid_hi do
    add ws asn 1
  done;
  (* Tier-1 clique: full mesh of peer links. *)
  for a = t1_lo to t1_hi do
    for a' = a + 1 to t1_hi do
      Topology.Builder.add_p2p b a a'
    done
  done;
  (* Special case: a single tier-1 has no links yet; attach it when its
     first customer arrives (below, candidates always include it). *)
  let customers = Array.make (mid_hi + 1) 0 in
  let attach asn ~m ~base ~q =
    let k = draw_provider_count st ~base ~q ~cap:p.max_providers in
    let provs = choose_providers st ~k ~m ws in
    List.iter
      (fun prov ->
        Topology.Builder.add_p2c b ~provider:prov ~customer:asn;
        customers.(prov) <- customers.(prov) + 1;
        (* chosen, so at weight 0 *)
        add ws prov (customers.(prov) + 1))
      provs
  in
  (* Mid-tier ASes: providers among tier-1s and earlier mid ASes. *)
  for asn = mid_lo to mid_hi do
    (* all ASNs < asn are tier-1 or earlier mid: transit-capable *)
    attach asn ~m:(asn - 1) ~base:2 ~q:p.mid_extra_provider_prob
  done;
  (* Lateral peering among mid-tier ASes. *)
  if n_mid >= 2 && p.peers_per_mid > 0. then begin
    let n_peer_links =
      int_of_float (Float.round (float_of_int n_mid *. p.peers_per_mid /. 2.))
    in
    let attempts = ref 0 in
    let added = ref 0 in
    while !added < n_peer_links && !attempts < n_peer_links * 20 do
      incr attempts;
      let a = mid_lo + Random.State.int st n_mid in
      let a' = mid_lo + Random.State.int st n_mid in
      if a <> a' then
        (* skip pairs already linked (provider or peer) *)
        try
          Topology.Builder.add_p2p b a a';
          incr added
        with Invalid_argument _ -> ()
    done
  end;
  (* Stub ASes: providers among all transit ASes (tier-1 + mid). *)
  for asn = mid_hi + 1 to p.n do
    attach asn ~m:mid_hi ~base:1 ~q:p.stub_extra_provider_prob
  done;
  ignore n_stub;
  Topology.Builder.build b
