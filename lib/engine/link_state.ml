(* A failed link is flagged at the edge id of its lower-to-higher
   direction. [link_up] runs at every forwarding step and every
   advertisement, so it looks a link up only while some link is down. The
   flags take a byte per edge, allocated at the first link failure. *)
type t = {
  topo : Topology.t;
  mutable down : Bytes.t;  (* by edge id; empty until a link fails *)
  mutable num_down : int;
  node_down : bool array;
}

let create topo =
  {
    topo;
    down = Bytes.empty;
    num_down = 0;
    node_down = Array.make (Topology.num_vertices topo) false;
  }

let flag b = if b then '\001' else '\000'

(* -1 when the vertices are not adjacent *)
let edge t u v =
  if u < v then Topology.edge t.topo u v else Topology.edge t.topo v u

let set_link t u v down =
  let e = edge t u v in
  if e < 0 then invalid_arg "Link_state: vertices not adjacent";
  if Bytes.length t.down = 0 then
    t.down <- Bytes.make (Topology.num_edges t.topo) (flag false);
  if Bytes.get t.down e <> flag down then begin
    Bytes.set t.down e (flag down);
    t.num_down <- (t.num_down + if down then 1 else -1)
  end

let fail_link t u v = set_link t u v true
let recover_link t u v = set_link t u v false
let fail_node t v = t.node_down.(v) <- true
let recover_node t v = t.node_down.(v) <- false

let link_up t u v =
  (not t.node_down.(u))
  && (not t.node_down.(v))
  && (t.num_down = 0
     ||
     let e = edge t u v in
     e < 0 || Bytes.get t.down e = flag false)

let node_up t v = not t.node_down.(v)

(* Edge ids follow vertices × neighbours, neighbours ascending: the scan
   meets the lower-to-higher directions in sorted order. *)
let failed_links t =
  let acc = ref [] in
  for u = Topology.num_vertices t.topo - 1 downto 0 do
    let nbrs = Topology.neighbors t.topo u in
    for i = Array.length nbrs - 1 downto 0 do
      let v = fst nbrs.(i) in
      if
        u < v
        && t.num_down > 0
        && Bytes.get t.down (Topology.first_edge t.topo u + i) = flag true
      then acc := (u, v) :: !acc
    done
  done;
  !acc
