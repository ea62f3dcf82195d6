(* Export-policy checks: valley-free reachability and dispute-wheel
   freedom of the customer-preference policy digraph. *)

module Valley_free : Check.CHECK = struct
  let id = "policy.valley-free"

  let doc =
    "export policy is Gao–Rexford valley-free and every AS is reachable \
     under it (uphill path to a tier-1 exists)"

  (* the Gao–Rexford export matrix the whole repository assumes; checked
     against the live Export.allowed so a policy edit that re-introduces
     valleys is caught statically *)
  let expected ~route_cls ~to_rel =
    match (route_cls : Relationship.t) with
    | Customer | Sibling -> true
    | Peer | Provider -> (
      match (to_rel : Relationship.t) with
      | Customer | Sibling -> true
      | Peer | Provider -> false)

  let run (ctx : Check.ctx) =
    let topo = ctx.topo in
    let diags = ref [] in
    let add d = diags := d :: !diags in
    let rels = Relationship.[ Customer; Provider; Peer; Sibling ] in
    List.iter
      (fun route_cls ->
        List.iter
          (fun to_rel ->
            if Export.allowed ~route_cls ~to_rel <> expected ~route_cls ~to_rel
            then
              add
                (Diagnostic.error ~check:id Diagnostic.Global
                   (Printf.sprintf
                      "export policy deviates from valley-free: %s-learned \
                       routes %s exported to %s neighbours"
                      (Relationship.to_string route_cls)
                      (if expected ~route_cls ~to_rel then "are not" else "are")
                      (Relationship.to_string to_rel))
                   ~hint:"restore the Gao–Rexford export matrix in Export"))
          rels)
      rels;
    (* Reachability under valley-free export: which ASes hold a
       valley-free path ([Up* Flat? Down*], siblings transparent) to a
       given destination? Computed by reverse BFS from the destination
       over the (vertex × phase) product graph, walking the path pattern
       backwards: first the reversed downhill steps (D), then at most one
       peer step (F), then the reversed uphill steps (U).

       Guarded on the structural checks this one would otherwise just
       echo: a provider cycle or a broken transit core already explain
       every unreachability, and topo.wellformed / topo.tier1-clique name
       them. *)
    if
      Topology.num_vertices topo > 0
      && Topology.provider_dag_is_acyclic topo
      && Check_graph.core_candidates topo <> []
      && Check_graph.core_connected topo
    then begin
      let n = Topology.num_vertices topo in
      let check_dest d =
        (* phases: 0 = D, 1 = F, 2 = U *)
        let seen = Array.make (n * 3) false in
        let queue = Queue.create () in
        let push v phase =
          if not seen.((v * 3) + phase) then begin
            seen.((v * 3) + phase) <- true;
            Queue.add (v, phase) queue
          end
        in
        push d 0;
        while not (Queue.is_empty queue) do
          let v, phase = Queue.pop queue in
          Array.iter
            (fun (w, r) ->
              (* [r] is w's relationship as seen from v; the forward path
                 step under scrutiny is w → v *)
              match ((r : Relationship.t), phase) with
              | Sibling, _ -> push w phase
              | Provider, 0 -> push w 0 (* forward Down step w→v *)
              | Peer, 0 -> push w 1 (* the single forward Flat step *)
              | Customer, _ -> push w 2 (* forward Up step *)
              | (Provider | Peer), _ -> ())
            (Topology.neighbors topo v)
        done;
        let unreachable =
          List.filter
            (fun v ->
              v <> d
              && (not seen.(v * 3))
              && (not seen.((v * 3) + 1))
              && not seen.((v * 3) + 2))
            (Array.to_list (Topology.vertices topo))
        in
        if unreachable <> [] then
          add
            (Diagnostic.error ~check:id
               (Diagnostic.At_as (Topology.asn topo d))
               (Printf.sprintf
                  "no valley-free path from ASes %s to this destination: its \
                   prefix is invisible to them under Gao–Rexford export"
                  (Check_graph.fmt_asns topo unreachable))
               ~hint:
                 "give the destination transit (a provider) or peer it into \
                  the tier-1 core")
      in
      match ctx.spec with
      | Some spec ->
        let d = spec.Scenario.dest in
        if d >= 0 && d < n then check_dest d
      | None -> Array.iter check_dest (Topology.vertices topo)
    end;
    List.rev !diags
end

module Dispute_wheel : Check.CHECK = struct
  let id = "policy.dispute-wheel"

  let doc =
    "customer-preference policy digraph has no dispute wheel (no dispute \
     wheel ⇒ safety, Griffin–Shepherd–Wilfong)"

  (* Under prefer-customer + valley-free export, a dispute wheel requires
     a cycle of "routes through my customer" relations. Sibling links make
     two ASes mutually transparent, so we collapse sibling-connected
     groups into supernodes and look for customer→provider cycles on the
     quotient: a pure provider cycle is one instance (already an error in
     topo.wellformed, so we stay silent on it and let that check name it),
     but a cycle closed through sibling groups is invisible to the plain
     provider-DAG test and is reported here. *)
  let run (ctx : Check.ctx) =
    let topo = ctx.topo in
    let n = Topology.num_vertices topo in
    if n = 0 then []
    else begin
      (* union-find over sibling links *)
      let parent = Array.init n (fun v -> v) in
      let rec find v =
        if parent.(v) = v then v
        else begin
          parent.(v) <- find parent.(v);
          parent.(v)
        end
      in
      let union u v =
        let ru = find u and rv = find v in
        if ru <> rv then parent.(ru) <- rv
      in
      Array.iter
        (fun u ->
          Array.iter
            (fun (v, r) -> if r = Relationship.Sibling then union u v)
            (Topology.neighbors topo u))
        (Topology.vertices topo);
      (* customer→provider edges lifted to sibling groups *)
      let succs = Array.make n [] in
      Array.iter
        (fun u ->
          Array.iter
            (fun p ->
              let gu = find u and gp = find p in
              if gu <> gp then succs.(gu) <- gp :: succs.(gu))
            (Topology.providers topo u))
        (Topology.vertices topo);
      let succs_arr = Array.map Array.of_list succs in
      let wheels =
        Check_graph.scc n (fun g -> succs_arr.(g))
        |> List.filter (fun comp -> List.length comp >= 2)
      in
      if wheels = [] then []
      else if not (Topology.provider_dag_is_acyclic topo) then
        (* plain provider cycle: topo.wellformed already errors with the
           members; a second report here would only repeat it *)
        []
      else
        List.map
          (fun comp ->
            (* expand group representatives back to their member ASes *)
            let members =
              List.filter
                (fun v -> List.mem (find v) comp)
                (Array.to_list (Topology.vertices topo))
            in
            Diagnostic.error ~check:id Diagnostic.Global
              (Printf.sprintf
                 "dispute wheel: ASes %s form a transit cycle through \
                  sibling groups — prefer-customer preferences are circular \
                  and BGP convergence is no longer guaranteed"
                 (Check_graph.fmt_asns topo members))
              ~hint:
                "break the cycle: demote one customer link or split the \
                 sibling group")
          wheels
    end
end
