type msg = Announce of Topology.vertex list | Withdraw

type t = {
  core : msg Session_core.t;
  topo : Topology.t;
  dest : Topology.vertex;
  procs : (Route.t, Topology.vertex list) Process.t array;
  export_deny : bool array array;
      (** per AS, by slot: its policy currently forbids exporting there *)
  upgraded : bool array;
  backup : Route.t option array;  (** upgraded ASes only: the blue table *)
  num_states : int;  (** packet states: 2 when some AS is upgraded, else 1 *)
}

(* --- advertisement: policy on top of the shared skeleton ------------- *)

(* [i] is the neighbour's slot at [v]. *)
let advertise_to t v i =
  let p = t.procs.(v) in
  let n, to_rel = (Topology.neighbors t.topo v).(i) in
  match
    Process.advertise p t.core ~slot:i ~to_:n ~to_rel
      ~deny:t.export_deny.(v).(i)
  with
  | Announce ->
    Session_core.send t.core ~src:v ~slot:i ~kind:`Announce
      (Announce (Option.get p.rib_out.(i)))
  | Withdraw -> Session_core.send t.core ~src:v ~slot:i ~kind:`Withdraw Withdraw
  | Idle | Deferred -> ()

let advertise_all t v =
  for i = 0 to Topology.degree t.topo v - 1 do
    advertise_to t v i
  done

(* --- the blue table of an upgraded AS ---------------------------------- *)

(* The RIB alternate most downhill-disjoint from the best route. *)
let recompute_backup t v =
  if t.upgraded.(v) then begin
    let p = t.procs.(v) in
    let backup =
      match p.best with
      | None -> None
      | Some best ->
        let downhill path =
          match Valley.decompose t.topo path with
          | _, down -> down
          | exception Invalid_argument _ -> path
        in
        let best_down = downhill (v :: best.as_path) in
        Process.alternate p ~score:(fun (alt : Route.t) ->
            List.length
              (List.filter
                 (fun x -> x <> t.dest && List.mem x best_down)
                 (downhill (v :: alt.as_path))))
    in
    if backup <> t.backup.(v) then begin
      t.backup.(v) <- backup;
      Session_core.mark_fwd t.core v
    end
  end

(* --- decision ------------------------------------------------------ *)

let recompute t v =
  let p = t.procs.(v) in
  let best' = if v = t.dest then Some Route.origin else Process.select p in
  let changed = Process.decide ~prefix:"" p t.core best' in
  recompute_backup t v;
  if changed then advertise_all t v

(* --- receiving ----------------------------------------------------- *)

let receive t v ~slot msg =
  if Session_core.node_up t.core v then begin
    let p = t.procs.(v) in
    (match msg with
    | Announce path ->
      let cls = snd (Topology.neighbors t.topo v).(slot) in
      Process.learn p ~slot (Route.make ~cls path)
    | Withdraw -> Process.withdraw p ~slot);
    recompute t v
  end

(* --- forwarding ----------------------------------------------------- *)

(* Packet states: 0 = primary, 1 = re-coloured onto a backup; with no AS
   upgraded only state 0 exists, and a step returns the next hop itself.
   A step reads [v]'s best route and backup, and the links and node at
   [v]. *)
let step t =
  let links = Session_core.links t.core in
  let k = t.num_states in
  fun v s ->
    if not (Link_state.node_up links v) then Fwd_walk.drop
    else begin
      let nh = Process.next_hop_up t.procs.(v) links in
      (* a packet follows best routes, keeping its state. A re-coloured
         one does too: the backup was an advertised route of the
         deflection neighbour, so its hops are exactly the downstream best
         chain. Following other ASes' backups instead would compose
         unrelated local picks (two neighbouring backups can point at each
         other). One deflection per packet, as in Section 5. *)
      if nh >= 0 then (k * nh) + s
      else if s = 0 && t.upgraded.(v) then
        (* primary missing or physically broken: an upgraded AS
           re-colours the packet onto its blue table *)
        match t.backup.(v) with
        | Some b ->
          let alt = Process.hop_up links v b in
          if alt >= 0 then (k * alt) + 1 else Fwd_walk.drop
        | None -> Fwd_walk.drop
      else Fwd_walk.drop
    end

(* --- construction -------------------------------------------------- *)

let create sim topo ~dest ?(deployed = fun _ -> false) ?(mrai_base = 30.)
    ?(detect_delay = 0.) ?(trace = Trace.null) () =
  let n = Topology.num_vertices topo in
  if dest < 0 || dest >= n then invalid_arg "Bgp_net.create: bad destination";
  let upgraded = Array.init n deployed in
  let core =
    Session_core.create ~mrai_base ~detect_delay ~trace ~who:"Bgp_net"
      ~blank:Withdraw sim topo
  in
  let t =
    {
      core;
      topo;
      dest;
      procs =
        Array.init n (fun v ->
            Process.create v ~degree:(Topology.degree topo v) ~route:Fun.id);
      export_deny =
        Array.init n (fun v -> Array.make (Topology.degree topo v) false);
      upgraded;
      backup = Array.make n None;
      num_states = (if Array.exists Fun.id upgraded then 2 else 1);
    }
  in
  Session_core.on_receive core (fun ~src:_ ~dst ~slot msg ->
      receive t dst ~slot msg);
  Session_core.on_flush core (fun ~src ~slot ~proc:_ ->
      advertise_to t src slot);
  Session_core.on_forward core ~dest ~num_states:t.num_states
    ~start:(fun _ -> 0) ~step:(step t);
  t

let start t = recompute t t.dest

(* --- failures ------------------------------------------------------ *)

(* Session reset on both sides of the link [u]-[v]. *)
let forget_session t u v =
  Process.forget t.procs.(u) ~slot:(Topology.slot t.topo u v);
  Process.forget t.procs.(v) ~slot:(Topology.slot t.topo v u)

let fail_link t u v =
  Session_core.fail_link t.core u v ~react:(fun () ->
      forget_session t u v;
      recompute t u;
      recompute t v)

let recover_link t u v =
  Session_core.recover_link t.core u v ~react:(fun () ->
      forget_session t u v;
      (* session re-establishes: each side advertises its current best *)
      advertise_to t u (Topology.slot t.topo u v);
      advertise_to t v (Topology.slot t.topo v u))

let fail_node t v =
  Session_core.fail_node t.core v;
  Process.clear t.procs.(v);
  t.backup.(v) <- None;
  Array.iter
    (fun (n, _) ->
      Process.forget t.procs.(n) ~slot:(Topology.slot t.topo n v);
      recompute t n)
    (Topology.neighbors t.topo v)

let recover_node t v =
  Session_core.recover_node t.core v;
  (* re-originates if [v] is the destination; otherwise the RIBs are empty
     and best stays None until neighbours re-announce *)
  recompute t v;
  Array.iteri
    (fun i (n, _) ->
      (* sessions re-establish: each side advertises its current best *)
      advertise_to t n (Topology.slot t.topo n v);
      advertise_to t v i)
    (Topology.neighbors t.topo v)

let set_export t v n ~op ~deny =
  let i = Session_core.slot t.core ~op v n in
  t.export_deny.(v).(i) <- deny;
  advertise_to t v i

let deny_export t v n = set_export t v n ~op:"deny_export" ~deny:true
let allow_export t v n = set_export t v n ~op:"allow_export" ~deny:false

(* --- observation ---------------------------------------------------- *)

let best t v = t.procs.(v).best
let next_hop t v =
  match Process.next_hop t.procs.(v) with -1 -> None | nh -> Some nh
let backup t v = t.backup.(v)

let has_disjoint_backup t v =
  match (t.procs.(v).best, t.backup.(v)) with
  | Some b, Some a ->
    Valley.downhill_disjoint t.topo (v :: b.as_path) (v :: a.as_path)
  | _ -> false

let to_table t = Process.table t.procs

let walk_all t = Session_core.probe t.core
let fresh_walk t = Session_core.fresh_walk t.core

let message_count t = Session_core.message_count t.core
let last_change t = Session_core.last_change t.core
let counters t = Session_core.counters t.core
