type status = Delivered | Looped | Blackholed

let equal_status a b =
  match (a, b) with
  | Delivered, Delivered | Looped, Looped | Blackholed, Blackholed -> true
  | (Delivered | Looped | Blackholed), _ -> false

let string_of_status = function
  | Delivered -> "delivered"
  | Looped -> "looped"
  | Blackholed -> "blackholed"

let status_of_string = function
  | "delivered" -> Delivered
  | "looped" -> Looped
  | "blackholed" -> Blackholed
  | s -> invalid_arg (Printf.sprintf "Fwd_walk.status_of_string: %S" s)

let pp_status ppf s = Format.pp_print_string ppf (string_of_status s)

let drop = -1
let deliver = -2

(* Memo cell codes, one byte per (vertex, state) pair. A cell leaves
   [unknown] when it is first stepped; from then on [code] holds its step
   code and, for a forward, the cell sits in its successor's reverse list.
   [stale] marks a stepped cell whose status must be resolved again. *)
let unknown = '\000'
let in_progress = '\001'
let c_delivered = '\002'
let c_looped = '\003'
let c_blackholed = '\004'
let stale = '\005'

let status_of_cell c =
  if c = c_delivered then Delivered
  else if c = c_looped then Looped
  else Blackholed

(* A refresh with more dirty vertices than n / [full_walk_fraction] walks
   everything again. *)
let full_walk_fraction = 4

type t = {
  n : int;
  dest : int;
  num_states : int;
  cells : int;
  start : int -> int;
  step : int -> int -> int;
  memo : Bytes.t;  (* by cell: [unknown], a status, or transiently more *)
  code : int array;  (* by stepped cell: its last step code *)
  (* The reverse edges of the last walk: by cell, the first stepped cell
     whose code forwards to it, and per stepped cell its neighbours in
     that list. A changed code moves one entry in O(1). *)
  head : int array;
  next : int array;
  prev : int array;
  starts : int array;  (* by vertex: its start state in the last walk *)
  mutable status : status array;  (* [||] before the first walk *)
  dirty : int array;  (* the marked vertices, [ndirty] of them *)
  is_dirty : bool array;
  mutable ndirty : int;
  mutable all : bool;  (* the next refresh walks everything *)
  mutable cone : int array;  (* scratch: seeds first, then their cone *)
  mutable seed_code : int array;  (* scratch: each seed's new code *)
}

let create ~n ~dest ~num_states ~start ~step =
  if num_states < 1 then invalid_arg "Fwd_walk.walk_all: num_states < 1";
  let cells = n * num_states in
  {
    n;
    dest;
    num_states;
    cells;
    start;
    step;
    memo = Bytes.make cells unknown;
    code = Array.make cells 0;
    head = Array.make cells (-1);
    next = Array.make cells (-1);
    prev = Array.make cells (-1);
    starts = Array.make n 0;
    status = [||];
    dirty = Array.make n 0;
    is_dirty = Array.make n false;
    ndirty = 0;
    all = true;
    cone = [||];
    seed_code = [||];
  }

let mark t v =
  if not (t.all || t.is_dirty.(v)) then
    if (t.ndirty + 1) * full_walk_fraction > t.n then t.all <- true
    else begin
      t.is_dirty.(v) <- true;
      t.dirty.(t.ndirty) <- v;
      t.ndirty <- t.ndirty + 1
    end

let mark_all t = t.all <- true

let link t x target =
  let h = t.head.(target) in
  t.next.(x) <- h;
  t.prev.(x) <- -1;
  if h >= 0 then t.prev.(h) <- x;
  t.head.(target) <- x

let unlink t x target =
  let p = t.prev.(x) and nx = t.next.(x) in
  if p >= 0 then t.next.(p) <- nx else t.head.(target) <- nx;
  if nx >= 0 then t.prev.(nx) <- p

let step_cell t x =
  let v = x / t.num_states in
  let code = t.step v (x - (v * t.num_states)) in
  if code >= t.cells || (code < 0 && code <> drop && code <> deliver) then
    invalid_arg "Fwd_walk.walk_all: bad step code";
  code

let start_state t v =
  let s = t.start v in
  if s < 0 || s >= t.num_states then
    invalid_arg "Fwd_walk.walk_all: bad start state";
  s

(* Resolve cell [x]: [x] = vertex * num_states + state, the same encoding
   a step returns for a forward, so the next cell is the step's code
   itself. An unknown cell is stepped and linked; a stale one follows its
   recorded code. *)
let rec go t x =
  let v = x / t.num_states in
  if v = t.dest then c_delivered
  else begin
    let c = Bytes.unsafe_get t.memo x in
    if c = unknown || c = stale then begin
      Bytes.unsafe_set t.memo x in_progress;
      let code =
        if c = stale then Array.unsafe_get t.code x
        else begin
          let code = step_cell t x in
          t.code.(x) <- code;
          if code >= 0 then link t x code;
          code
        end
      in
      let st =
        if code >= 0 then go t code
        else if code = drop then c_blackholed
        else c_delivered
      in
      Bytes.unsafe_set t.memo x st;
      st
    end
    else if c = in_progress then c_looped
    else c
  end

let clear_marks t =
  for i = 0 to t.ndirty - 1 do
    t.is_dirty.(t.dirty.(i)) <- false
  done;
  t.ndirty <- 0;
  t.all <- false

(* The walk from scratch. The previous array comes back when no status
   moved. *)
let walk t =
  clear_marks t;
  Bytes.fill t.memo 0 t.cells unknown;
  Array.fill t.head 0 t.cells (-1);
  let fresh =
    Array.init t.n (fun v ->
        let s = start_state t v in
        t.starts.(v) <- s;
        status_of_cell (go t ((v * t.num_states) + s)))
  in
  if Array.length t.status = t.n && Array.for_all2 equal_status fresh t.status
  then t.status
  else begin
    t.status <- fresh;
    fresh
  end

(* Re-step the dirty vertices' stepped cells, re-resolve the upstream cone
   of those whose code changed, and update the statuses of the vertices
   that start in that cone or are dirty. *)
let update t =
  let k = t.num_states in
  if Array.length t.cone = 0 then begin
    t.cone <- Array.make t.cells 0;
    t.seed_code <- Array.make t.cells 0
  end;
  let len = ref 0 in
  for i = 0 to t.ndirty - 1 do
    let v = t.dirty.(i) in
    t.starts.(v) <- start_state t v;
    if v <> t.dest then
      for x = v * k to (v * k) + k - 1 do
        if Bytes.get t.memo x <> unknown then begin
          let code = step_cell t x in
          if code <> t.code.(x) then begin
            Bytes.set t.memo x stale;
            t.cone.(!len) <- x;
            t.seed_code.(!len) <- code;
            incr len
          end
        end
      done
  done;
  let seeds = !len in
  (* the cone over the last walk's reverse edges, before any moves *)
  let i = ref 0 in
  while !i < !len do
    let y = ref t.head.(t.cone.(!i)) in
    while !y >= 0 do
      if Bytes.get t.memo !y <> stale then begin
        Bytes.set t.memo !y stale;
        t.cone.(!len) <- !y;
        incr len
      end;
      y := t.next.(!y)
    done;
    incr i
  done;
  for i = 0 to seeds - 1 do
    let x = t.cone.(i) and code = t.seed_code.(i) in
    if t.code.(x) >= 0 then unlink t x t.code.(x);
    t.code.(x) <- code;
    if code >= 0 then link t x code
  done;
  for i = 0 to !len - 1 do
    ignore (go t t.cone.(i) : char)
  done;
  (* copy on the first status that moves: a returned array is never
     written again *)
  let out = ref t.status in
  let resolve v =
    let st = status_of_cell (go t ((v * k) + t.starts.(v))) in
    if not (equal_status st !out.(v)) then begin
      if !out == t.status then out := Array.copy t.status;
      !out.(v) <- st
    end
  in
  for i = 0 to !len - 1 do
    let x = t.cone.(i) in
    let v = x / k in
    if x - (v * k) = t.starts.(v) then resolve v
  done;
  for i = 0 to t.ndirty - 1 do
    resolve t.dirty.(i)
  done;
  clear_marks t;
  t.status <- !out;
  !out

let refresh t =
  if t.all then walk t else if t.ndirty = 0 then t.status else update t

let walk_all ~n ~dest ~num_states ~start ~step =
  walk (create ~n ~dest ~num_states ~start ~step)

let fresh t =
  walk_all ~n:t.n ~dest:t.dest ~num_states:t.num_states ~start:t.start
    ~step:t.step
