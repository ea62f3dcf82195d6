type vertex = int

type t = {
  asn_of_vertex : int array;
  vertex_of_asn : (int, int) Hashtbl.t;
  adj : (vertex * Relationship.t) array array;
  first_edge : int array;
      (* [first_edge.(v)]: id of [v]'s first directed adjacency; length n+1 *)
  providers : vertex array array;
  customers : vertex array array;
  peers : vertex array array;
  tier1s : vertex array;
  multi_homed : vertex array;
  num_links : int;
}

module Builder = struct
  (* Links are keyed on the (smaller ASN, larger ASN) pair; the stored
     relationship is that of the larger-ASN side as seen from the smaller. *)
  type nonrec t = { links : (int * int, Relationship.t) Hashtbl.t }

  let create () = { links = Hashtbl.create 1024 }

  let add b a a' rel_of_a'_seen_from_a =
    if a = a' then invalid_arg "Topology.Builder: self link";
    if a <= 0 || a' <= 0 then invalid_arg "Topology.Builder: ASN must be > 0";
    let key, stored =
      if a < a' then ((a, a'), rel_of_a'_seen_from_a)
      else ((a', a), Relationship.invert rel_of_a'_seen_from_a)
    in
    match Hashtbl.find_opt b.links key with
    | None -> Hashtbl.replace b.links key stored
    | Some prev ->
      if not (Relationship.equal prev stored) then
        invalid_arg
          (Printf.sprintf
             "Topology.Builder: conflicting relationship for link %d-%d"
             (fst key) (snd key))

  let add_p2c b ~provider ~customer = add b provider customer Relationship.Customer
  let add_p2p b a a' = add b a a' Relationship.Peer
  let add_sibling b a a' = add b a a' Relationship.Sibling

  let build b =
    let asns = Hashtbl.create 1024 in
    Hashtbl.iter
      (fun (a, a') _ ->
        Hashtbl.replace asns a ();
        Hashtbl.replace asns a' ())
      b.links;
    let asn_of_vertex =
      Hashtbl.fold (fun asn () acc -> asn :: acc) asns []
      |> List.sort compare |> Array.of_list
    in
    let n = Array.length asn_of_vertex in
    let vertex_of_asn = Hashtbl.create n in
    Array.iteri (fun v asn -> Hashtbl.replace vertex_of_asn asn v) asn_of_vertex;
    let adj_lists = Array.make n [] in
    let num_links = Hashtbl.length b.links in
    Hashtbl.iter
      (fun (a, a') rel ->
        let u = Hashtbl.find vertex_of_asn a
        and v = Hashtbl.find vertex_of_asn a' in
        (* [rel] is the relationship of a' (larger ASN) as seen from a. *)
        adj_lists.(u) <- (v, rel) :: adj_lists.(u);
        adj_lists.(v) <- (u, Relationship.invert rel) :: adj_lists.(v))
      b.links;
    let by_vertex (v, _) (v', _) = compare (v : int) v' in
    let adj =
      Array.map (fun l -> Array.of_list (List.sort by_vertex l)) adj_lists
    in
    let select rel_wanted =
      Array.map
        (fun neighbours ->
          Array.of_list
            (Array.fold_right
               (fun (v, r) acc ->
                 if Relationship.equal r rel_wanted then v :: acc else acc)
               neighbours []))
        adj
    in
    let first_edge = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      first_edge.(v + 1) <- first_edge.(v) + Array.length adj.(v)
    done;
    let providers = select Relationship.Provider in
    let customers = select Relationship.Customer in
    let peers = select Relationship.Peer in
    let tier1s =
      Array.of_list
        (List.filter
           (fun v -> Array.length providers.(v) = 0)
           (List.init n Fun.id))
    in
    let multi_homed =
      Array.of_list
        (List.filter
           (fun v -> Array.length providers.(v) >= 2)
           (List.init n Fun.id))
    in
    {
      asn_of_vertex;
      vertex_of_asn;
      adj;
      first_edge;
      providers;
      customers;
      peers;
      tier1s;
      multi_homed;
      num_links;
    }
end

let num_vertices t = Array.length t.asn_of_vertex
let vertices t = Array.init (num_vertices t) Fun.id
let asn t v = t.asn_of_vertex.(v)
let vertex_of_asn t asn = Hashtbl.find_opt t.vertex_of_asn asn
let neighbors t v = t.adj.(v)
let providers t v = t.providers.(v)
let customers t v = t.customers.(v)
let peers t v = t.peers.(v)

(* Binary search: [adj.(u)] is sorted by neighbour. A top-level loop, so
   a lookup allocates no closure: [Link_state.link_up] runs it at every
   forwarding step while a link is down. *)
let rec search (a : (vertex * Relationship.t) array) (v : vertex) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let w = fst (Array.unsafe_get a mid) in
    if w = v then mid
    else if w < v then search a v (mid + 1) hi
    else search a v lo mid

let slot t u v =
  let a = t.adj.(u) in
  search a v 0 (Array.length a)

let rel t u v =
  let i = slot t u v in
  if i < 0 then None else Some (snd t.adj.(u).(i))

let num_edges t = t.first_edge.(num_vertices t)
let first_edge t v = t.first_edge.(v)

let edge t u v =
  let i = slot t u v in
  if i < 0 then -1 else t.first_edge.(u) + i

let degree t v = Array.length t.adj.(v)
let num_links t = t.num_links
let is_tier1 t v = Array.length t.providers.(v) = 0
let tier1s t = t.tier1s
let is_multi_homed t v = Array.length t.providers.(v) >= 2
let multi_homed t = t.multi_homed
let is_stub t v = Array.length t.customers.(v) = 0

let provider_dag_is_acyclic t =
  (* Kahn's algorithm on customer→provider edges. *)
  let n = num_vertices t in
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    indeg.(v) <- Array.length t.customers.(v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr seen;
    Array.iter
      (fun p ->
        indeg.(p) <- indeg.(p) - 1;
        if indeg.(p) = 0 then Queue.add p queue)
      t.providers.(v)
  done;
  !seen = n

let is_connected t =
  let n = num_vertices t in
  if n = 0 then true
  else begin
    let visited = Array.make n false in
    let queue = Queue.create () in
    visited.(0) <- true;
    Queue.add 0 queue;
    let count = ref 0 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      incr count;
      Array.iter
        (fun (w, _) ->
          if not visited.(w) then begin
            visited.(w) <- true;
            Queue.add w queue
          end)
        t.adj.(v)
    done;
    !count = n
  end

let all_reach_tier1 t =
  (* BFS down the provider→customer edges from all tier-1s; a vertex reached
     this way has an uphill path to a tier-1 by reversal. *)
  let n = num_vertices t in
  let visited = Array.make n false in
  let queue = Queue.create () in
  Array.iter
    (fun v ->
      visited.(v) <- true;
      Queue.add v queue)
    t.tier1s;
  let count = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr count;
    Array.iter
      (fun c ->
        if not visited.(c) then begin
          visited.(c) <- true;
          Queue.add c queue
        end)
      t.customers.(v)
  done;
  !count = n

let pp_stats ppf t =
  let n = num_vertices t in
  let p2c = ref 0 and p2p = ref 0 and sib = ref 0 in
  for v = 0 to n - 1 do
    Array.iter
      (fun (_, r) ->
        match (r : Relationship.t) with
        | Customer -> incr p2c (* counted once: from the provider side *)
        | Peer -> incr p2p
        | Sibling -> incr sib
        | Provider -> ())
      t.adj.(v)
  done;
  Format.fprintf ppf
    "ASes=%d links=%d (p2c=%d p2p=%d sibling=%d) tier1=%d multi-homed=%d \
     stubs=%d"
    n t.num_links !p2c (!p2p / 2) (!sib / 2) (Array.length t.tier1s)
    (Array.length t.multi_homed)
    (Array.to_list (vertices t)
    |> List.filter (fun v -> is_stub t v)
    |> List.length)
