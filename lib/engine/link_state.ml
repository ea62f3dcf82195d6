(* Failed links are keyed by [lo * n + hi] (an int, so a lookup hashes
   without allocating a tuple: [link_up] runs at every forwarding step). *)
type t = {
  n : int;
  down_links : (int, unit) Hashtbl.t;
  node_down : bool array;
}

let create ~n =
  { n; down_links = Hashtbl.create 8; node_down = Array.make n false }

let key t u v = if u < v then (u * t.n) + v else (v * t.n) + u
let fail_link t u v = Hashtbl.replace t.down_links (key t u v) ()
let recover_link t u v = Hashtbl.remove t.down_links (key t u v)
let fail_node t v = t.node_down.(v) <- true
let recover_node t v = t.node_down.(v) <- false

let link_up t u v =
  (not t.node_down.(u))
  && (not t.node_down.(v))
  && (Hashtbl.length t.down_links = 0
     || not (Hashtbl.mem t.down_links (key t u v)))

let node_up t v = not t.node_down.(v)

let failed_links t =
  Hashtbl.fold (fun k () acc -> (k / t.n, k mod t.n) :: acc) t.down_links []
  |> List.sort compare
