(* Scenario sanity: every event must reference live nodes and links, the
   fail/recover ordering must make sense, and the timing knobs must be in
   range — all decidable before a single simulation event fires. *)

module Sanity : Check.CHECK = struct
  let id = "scenario.sanity"

  let doc =
    "scenario events reference existing nodes/links, recoveries follow \
     failures, and MRAI / detect_delay are in range"

  (* flatten [At] nesting into (offset, base event), accumulating *)
  let rec offset_of dt = function
    | Scenario.At (dt', e) -> offset_of (dt +. dt') e
    | e -> (dt, e)

  let run (ctx : Check.ctx) =
    match ctx.spec with
    | None -> []
    | Some spec ->
      let topo = ctx.topo in
      let n = Topology.num_vertices topo in
      let diags = ref [] in
      let add d = diags := d :: !diags in
      let in_range v = v >= 0 && v < n in
      let asn v = Topology.asn topo v in
      if not (in_range spec.Scenario.dest) then
        add
          (Diagnostic.error ~check:id Diagnostic.Global
             (Printf.sprintf "destination vertex %d is not in the topology"
                spec.Scenario.dest)
             ~hint:"pick a destination AS of this topology");
      (* resolve each event's vertices; drop events with dead references
         from the ordering simulation (they are already reported) *)
      let resolved =
        List.filter_map
          (fun event ->
            let dt, base = offset_of 0.0 event in
            if dt < 0.0 then begin
              add
                (Diagnostic.error ~check:id Diagnostic.Global
                   (Printf.sprintf "negative event offset %g" dt)
                   ~hint:"at-offsets are seconds after injection, >= 0");
              None
            end
            else begin
              let node_ok what v =
                if in_range v then true
                else begin
                  add
                    (Diagnostic.error ~check:id Diagnostic.Global
                       (Printf.sprintf "%s references vertex %d, not in the \
                                        topology"
                          what v)
                       ~hint:"reference an AS of this topology");
                  false
                end
              in
              let link_ok what u v =
                node_ok what u && node_ok what v
                &&
                if Topology.rel topo u v <> None then true
                else begin
                  add
                    (Diagnostic.error ~check:id
                       (Diagnostic.link (asn u) (asn v))
                       (Printf.sprintf "%s references a link that does not \
                                        exist"
                          what)
                       ~hint:"reference a link of this topology");
                  false
                end
              in
              match base with
              | Scenario.Fail_link (u, v) ->
                if link_ok "fail_link" u v then Some (dt, base) else None
              | Scenario.Recover_link (u, v) ->
                if link_ok "recover_link" u v then Some (dt, base) else None
              | Scenario.Deny_export (u, v) ->
                if link_ok "deny_export" u v then Some (dt, base) else None
              | Scenario.Allow_export (u, v) ->
                if link_ok "allow_export" u v then Some (dt, base) else None
              | Scenario.Fail_node u ->
                if node_ok "fail_node" u then begin
                  if u = spec.Scenario.dest then
                    add
                      (Diagnostic.warning ~check:id (Diagnostic.At_as (asn u))
                         "failing the destination itself: every AS loses \
                          reachability and transient counts are vacuous"
                         ~hint:"fail a transit AS instead");
                  Some (dt, base)
                end
                else None
              | Scenario.Recover_node u ->
                if node_ok "recover_node" u then Some (dt, base) else None
              | Scenario.At _ -> assert false (* flattened above *)
            end)
          spec.Scenario.events
      in
      (* fail/recover ordering: replay in time order (stable for ties, so
         same-time events keep their list order, as the runner injects
         them) *)
      let timed = List.stable_sort (fun (t, _) (t', _) -> compare t t') resolved in
      let down_links = Hashtbl.create 8 in
      let down_nodes = Hashtbl.create 8 in
      let denied = Hashtbl.create 8 in
      let key u v = if u <= v then (u, v) else (v, u) in
      List.iter
        (fun (_, base) ->
          match base with
          | Scenario.Fail_link (u, v) ->
            if Hashtbl.mem down_links (key u v) then
              add
                (Diagnostic.warning ~check:id (Diagnostic.link (asn u) (asn v))
                   "link fails twice without recovering in between"
                   ~hint:"drop the duplicate failure or recover first")
            else Hashtbl.add down_links (key u v) ()
          | Scenario.Recover_link (u, v) ->
            if Hashtbl.mem down_links (key u v) then
              Hashtbl.remove down_links (key u v)
            else
              add
                (Diagnostic.error ~check:id (Diagnostic.link (asn u) (asn v))
                   "link recovers before any failure (recover-before-fail)"
                   ~hint:"fail the link first, or drop the recovery")
          | Scenario.Fail_node u ->
            if Hashtbl.mem down_nodes u then
              add
                (Diagnostic.warning ~check:id (Diagnostic.At_as (asn u))
                   "node fails twice without recovering in between"
                   ~hint:"drop the duplicate failure or recover first")
            else Hashtbl.add down_nodes u ()
          | Scenario.Recover_node u ->
            if Hashtbl.mem down_nodes u then Hashtbl.remove down_nodes u
            else
              add
                (Diagnostic.error ~check:id (Diagnostic.At_as (asn u))
                   "node recovers before any failure (recover-before-fail)"
                   ~hint:"fail the node first, or drop the recovery")
          | Scenario.Deny_export (u, v) ->
            if Hashtbl.mem denied (u, v) then
              add
                (Diagnostic.warning ~check:id (Diagnostic.link (asn u) (asn v))
                   "export denied twice without re-allowing in between"
                   ~hint:"drop the duplicate policy change")
            else Hashtbl.add denied (u, v) ()
          | Scenario.Allow_export (u, v) ->
            if Hashtbl.mem denied (u, v) then Hashtbl.remove denied (u, v)
            else
              add
                (Diagnostic.error ~check:id (Diagnostic.link (asn u) (asn v))
                   "export allowed without a preceding denial"
                   ~hint:"deny the export first, or drop the event")
          | Scenario.At _ -> assert false)
        timed;
      (* timing knobs: a spec-level detect override beats the runner's *)
      let detect =
        match spec.Scenario.detect_delay with
        | Some _ as d -> d
        | None -> ctx.detect_delay
      in
      (match detect with
      | Some d when d < 0.0 ->
        add
          (Diagnostic.error ~check:id Diagnostic.Global
             (Printf.sprintf "detect_delay %g is negative" d)
             ~hint:"detection delays are seconds, >= 0")
      | Some d when d > 180.0 ->
        add
          (Diagnostic.warning ~check:id Diagnostic.Global
             (Printf.sprintf
                "detect_delay %g s exceeds the BGP hold-timer regime (90–180 \
                 s): every protocol will look broken for that long"
                d)
             ~hint:"use a delay within [0, 180] s")
      | Some _ | None -> ());
      (match ctx.mrai_base with
      | Some m when m <= 0.0 ->
        add
          (Diagnostic.error ~check:id Diagnostic.Global
             (Printf.sprintf "MRAI base %g must be positive" m)
             ~hint:"the paper uses 30 s")
      | Some m when m > 120.0 ->
        add
          (Diagnostic.warning ~check:id Diagnostic.Global
             (Printf.sprintf
                "MRAI base %g s is far above deployed practice (the paper \
                 uses 30 s)"
                m)
             ~hint:"use an MRAI base within (0, 120] s")
      | Some _ | None -> ());
      List.rev !diags
end
