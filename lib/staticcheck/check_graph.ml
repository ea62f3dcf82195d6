(* Relationship-graph structure checks: well-formedness of the link set
   and connectivity of the tier-1 core. *)

let fmt_asns topo ?(limit = 10) vs =
  let asns = List.map (Topology.asn topo) vs in
  let shown = List.filteri (fun i _ -> i < limit) asns in
  let body = String.concat ", " (List.map string_of_int shown) in
  if List.length asns > limit then
    Printf.sprintf "%s, … (%d in total)" body (List.length asns)
  else body

(* Strongly connected components of a directed graph over the dense
   vertex range, iterative Tarjan. [succs v] lists v's out-neighbours.
   Returns the components (vertex lists) in reverse topological order. *)
let scc n succs =
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      (* explicit DFS frames: (vertex, next successor offset) *)
      let frames = ref [ (root, ref 0) ] in
      let start v =
        index.(v) <- !next_index;
        lowlink.(v) <- !next_index;
        incr next_index;
        stack := v :: !stack;
        on_stack.(v) <- true
      in
      start root;
      while !frames <> [] do
        match !frames with
        | [] -> assert false
        | (v, off) :: rest ->
          let ss = succs v in
          if !off < Array.length ss then begin
            let w = ss.(!off) in
            incr off;
            if index.(w) < 0 then begin
              start w;
              frames := (w, ref 0) :: !frames
            end
            else if on_stack.(w) then
              lowlink.(v) <- min lowlink.(v) index.(w)
          end
          else begin
            if lowlink.(v) = index.(v) then begin
              let comp = ref [] in
              let break = ref false in
              while not !break do
                match !stack with
                | [] -> assert false
                | w :: tl ->
                  stack := tl;
                  on_stack.(w) <- false;
                  comp := w :: !comp;
                  if w = v then break := true
              done;
              comps := !comp :: !comps
            end;
            frames := rest;
            match rest with
            | (parent, _) :: _ ->
              lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            | [] -> ()
          end
      done
    end
  done;
  !comps

(* Vertices on a customer→provider cycle: members of non-trivial SCCs of
   the directed provider graph (self-loops are impossible by
   construction). *)
let provider_cycle_members topo =
  let n = Topology.num_vertices topo in
  scc n (Topology.providers topo)
  |> List.filter (fun comp -> List.length comp >= 2)
  |> List.concat |> List.sort compare

module Wellformed : Check.CHECK = struct
  let id = "topo.wellformed"

  let doc =
    "relationship graph is well-formed: symmetric relationships, no \
     self-loops, no provider cycles (SCC), connected"

  let run (ctx : Check.ctx) =
    let topo = ctx.topo in
    let n = Topology.num_vertices topo in
    if n = 0 then
      [
        Diagnostic.error ~check:id Diagnostic.Global "topology is empty"
          ~hint:"add at least one AS link";
      ]
    else begin
      let diags = ref [] in
      let add d = diags := d :: !diags in
      (* symmetry and self-loop freedom are Builder invariants; re-verify
         them here so the analyzer stands on its own evidence *)
      Array.iter
        (fun u ->
          Array.iter
            (fun (v, r) ->
              if v = u then
                add
                  (Diagnostic.error ~check:id
                     (Diagnostic.At_as (Topology.asn topo u))
                     "self-loop link" ~hint:"remove the self link");
              let mirror = Topology.rel topo v u in
              if mirror <> Some (Relationship.invert r) then
                add
                  (Diagnostic.error ~check:id
                     (Diagnostic.link (Topology.asn topo u) (Topology.asn topo v))
                     "asymmetric relationship annotation"
                     ~hint:"declare the link once with a single relationship"))
            (Topology.neighbors topo u))
        (Topology.vertices topo);
      (match provider_cycle_members topo with
      | [] -> ()
      | cycle ->
        add
          (Diagnostic.error ~check:id Diagnostic.Global
             (Printf.sprintf
                "provider cycle: ASes %s form a customer→provider cycle, so \
                 \"prefer customer\" has no stable order"
                (fmt_asns topo cycle))
             ~hint:"orient the provider links into a hierarchy (Gao–Rexford)"));
      if not (Topology.is_connected topo) then
        add
          (Diagnostic.warning ~check:id Diagnostic.Global
             "underlying graph is disconnected: some AS pairs can never reach \
              each other"
             ~hint:"connect the components or split the input");
      List.rev !diags
    end
end

(* The transit core: provider-less ASes that actually provide transit
   (have at least one customer). A provider-less, customer-less AS is
   formally "tier-1" under [Topology.is_tier1] but carries nobody's
   routes; treating it as core would misread peering leaves as broken
   cores. *)
let core_candidates topo =
  Array.to_list (Topology.tier1s topo)
  |> List.filter (fun v -> Array.length (Topology.customers topo v) > 0)

(* lateral edges within the core: peer or sibling links *)
let lateral topo u v =
  match Topology.rel topo u v with
  | Some (Relationship.Peer | Relationship.Sibling) -> true
  | Some _ | None -> false

(* The core members not reached from the first one over lateral links,
   in core order: [] when [core] is connected (vacuously for size <= 1). *)
let stranded topo core =
  match core with
  | [] -> []
  | first :: _ ->
    let reached = Hashtbl.create 8 in
    let rec dfs u =
      if not (Hashtbl.mem reached u) then begin
        Hashtbl.add reached u ();
        List.iter (fun v -> if lateral topo u v then dfs v) core
      end
    in
    dfs first;
    List.filter (fun v -> not (Hashtbl.mem reached v)) core

(* Whether the transit core is connected under lateral links. *)
let core_connected topo = stranded topo (core_candidates topo) = []

module Tier1_clique : Check.CHECK = struct
  let id = "topo.tier1-clique"

  let doc =
    "tier-1 transit core is connected by peer links (full clique expected) \
     so valley-free routes exist between all customer cones"

  let run (ctx : Check.ctx) =
    let topo = ctx.topo in
    if Topology.num_vertices topo < 2 then []
    else
      match core_candidates topo with
      | [] when Topology.provider_dag_is_acyclic topo ->
        [
          Diagnostic.error ~check:id Diagnostic.Global
            "no tier-1 transit core: no provider-less AS has any customer, so \
             no AS can carry routes between cones"
            ~hint:"give the top of the hierarchy customers";
        ]
      | [] -> [] (* provider cycle: topo.wellformed names it *)
      | core -> (
        match stranded topo core with
        | _ :: _ as stranded ->
          [
            Diagnostic.error ~check:id Diagnostic.Global
              (Printf.sprintf
                 "tier-1 core is not connected by peer links: ASes %s cannot \
                  exchange customer routes with the rest of the core"
                 (fmt_asns topo stranded))
              ~hint:"peer the tier-1 ASes with each other";
          ]
        | [] ->
          (* connected but not a full mesh: reachability holds, path
             inflation and single-peering fragility remain *)
          List.concat_map
            (fun u ->
              List.filter_map
                (fun v ->
                  if u < v && not (lateral topo u v) then
                    Some
                      (Diagnostic.warning ~check:id
                         (Diagnostic.link (Topology.asn topo u)
                            (Topology.asn topo v))
                         "tier-1 ASes are not directly peered (full clique \
                          expected)"
                         ~hint:"add the missing tier-1 peer link")
                  else None)
                core)
            core)
end
