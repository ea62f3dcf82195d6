type status = Delivered | Looped | Blackholed

let equal_status a b =
  match (a, b) with
  | Delivered, Delivered | Looped, Looped | Blackholed, Blackholed -> true
  | (Delivered | Looped | Blackholed), _ -> false

let pp_status ppf s =
  Format.pp_print_string ppf
    (match s with
    | Delivered -> "delivered"
    | Looped -> "looped"
    | Blackholed -> "blackholed")

let drop = -1
let deliver = -2

(* Memo cell codes, one byte per (vertex, state) pair. *)
let unknown = '\000'
let in_progress = '\001'
let c_delivered = '\002'
let c_looped = '\003'
let c_blackholed = '\004'

let status_of_cell c =
  if c = c_delivered then Delivered
  else if c = c_looped then Looped
  else Blackholed

let walk_all ~n ~dest ~num_states ~start ~step =
  if num_states < 1 then invalid_arg "Fwd_walk.walk_all: num_states < 1";
  let cells = n * num_states in
  let memo = Bytes.make cells unknown in
  (* [idx] = vertex * num_states + state: the same encoding a step returns
     for a forward, so the next cell is the step's code itself *)
  let rec go idx =
    let v = idx / num_states in
    if v = dest then c_delivered
    else begin
      let c = Bytes.unsafe_get memo idx in
      if c = unknown then begin
        Bytes.unsafe_set memo idx in_progress;
        let code = step v (idx - (v * num_states)) in
        let st =
          if code >= 0 then begin
            if code >= cells then invalid_arg "Fwd_walk.walk_all: bad step code";
            go code
          end
          else if code = drop then c_blackholed
          else if code = deliver then c_delivered
          else invalid_arg "Fwd_walk.walk_all: bad step code"
        in
        Bytes.unsafe_set memo idx st;
        st
      end
      else if c = in_progress then c_looped
      else c
    end
  in
  Array.init n (fun v ->
      let s = start v in
      if s < 0 || s >= num_states then
        invalid_arg "Fwd_walk.walk_all: bad start state";
      status_of_cell (go ((v * num_states) + s)))
