(* STAMP-specific capability checks: can the red/blue construction of
   Section 3 actually deliver its redundancy on this topology?

   Both checks are per-origin. With a scenario in the context they
   restrict themselves to its destination (the cheap pre-run form wired
   into Runner); on a whole-topology lint they sweep every AS.

   Both emit warnings, not errors: a topology where some origin has no
   disjoint fallback still simulates fine — STAMP just cannot protect that
   origin, which is exactly the Φ < 1 population of Figure 1. *)

let guard (ctx : Check.ctx) =
  (* uphill walks only terminate on acyclic provider structure with a
     top tier; the graph checks error on violations, we stay silent *)
  Topology.num_vertices ctx.topo > 0
  && Topology.provider_dag_is_acyclic ctx.topo
  && Array.length (Topology.tier1s ctx.topo) > 0
  && Topology.all_reach_tier1 ctx.topo

let origins (ctx : Check.ctx) =
  match ctx.spec with
  | Some spec -> [ spec.Scenario.dest ]
  | None -> Array.to_list (Topology.vertices ctx.topo)

(* the deterministic first-preference uphill walk from [o] to a tier-1 *)
let canonical_uphill topo o =
  let rec walk acc v =
    let ps = Topology.providers topo v in
    if Array.length ps = 0 then List.rev (v :: acc)
    else walk (v :: acc) ps.(0)
  in
  walk [] o

(* named Red_blue_disjoint, not Disjoint: the uphill-path machinery this
   check calls lives in the routing library's Disjoint module *)
module Red_blue_disjoint : Check.CHECK = struct
  let id = "stamp.disjoint"

  let doc =
    "per origin, some locked-blue choice leaves a node-disjoint red \
     uphill path (the Lemma 3.1 capability: Φ can be positive)"

  let run (ctx : Check.ctx) =
    if not (guard ctx) then []
    else begin
      let topo = ctx.topo in
      List.filter_map
        (fun origin ->
          match Coloring.effective_origin topo origin with
          | None -> None (* no colouring point: stamp.lock-coverage reports *)
          | Some o ->
            (* Menger on the uphill DAG: two node-disjoint uphill paths
               from [o] to the tier-1 set exist iff no single vertex cuts
               [o] from every tier-1. A one-vertex cut must lie on every
               uphill path, in particular on the canonical one, so testing
               its vertices is exact. *)
            let path = canonical_uphill topo o in
            let cut =
              List.find_opt
                (fun c ->
                  c <> o
                  && not
                       (Disjoint.reaches_tier1_avoiding topo ~src:o
                          ~blocked:(fun v -> v = c)))
                path
            in
            Option.map
              (fun c ->
                Diagnostic.warning ~check:id
                  (Diagnostic.At_as (Topology.asn topo origin))
                  (Printf.sprintf
                     "every uphill path from colouring origin %d traverses \
                      AS %d: red and blue downhill paths cannot be \
                      node-disjoint for this destination (Φ = 0)"
                     (Topology.asn topo o) (Topology.asn topo c))
                  ~hint:
                    (Printf.sprintf
                       "add a provider path around AS %d to restore \
                        redundancy"
                       (Topology.asn topo c)))
              cut)
        (origins ctx)
    end
end

module Lock_coverage : Check.CHECK = struct
  let id = "stamp.lock-coverage"

  let doc =
    "every origin has a colouring point whose locked blue path reaches a \
     tier-1 AS (Lock-forced blue propagation can start)"

  let run (ctx : Check.ctx) =
    if not (guard ctx) then []
    else begin
      let topo = ctx.topo in
      List.filter_map
        (fun origin ->
          match Coloring.effective_origin topo origin with
          | Some o ->
            (* acyclicity + all-reach-tier1 hold (guard), so the locked
               blue walk from [o] terminates at a tier-1 for any provider
               order — coverage is satisfied *)
            ignore (canonical_uphill topo o : Topology.vertex list);
            None
          | None ->
            if Topology.is_tier1 topo origin then
              (* a tier-1 destination needs no colouring: it is its own
                 top of the hierarchy *)
              None
            else
              Some
                (Diagnostic.warning ~check:id
                   (Diagnostic.At_as (Topology.asn topo origin))
                   "no colouring point: the destination is single-homed all \
                    the way to a tier-1, so no locked blue path exists and \
                    STAMP provides no redundancy for it"
                   ~hint:
                     "multi-home the AS (or one of the ASes on its provider \
                      chain)"))
        (origins ctx)
    end
end
