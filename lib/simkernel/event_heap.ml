(* Slots at or beyond [size] hold [Empty], never a cell: a popped event's
   payload (a closure capturing engine state, in a simulation) must not
   stay reachable from the heap. *)
type 'a slot = Empty | Cell of { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a slot array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

(* Earlier time first, then insertion order; [Empty] sorts last. *)
let slot_lt a b =
  match (a, b) with
  | Cell a, Cell b -> a.time < b.time || (a.time = b.time && a.seq < b.seq)
  | Cell _, Empty -> true
  | Empty, (Cell _ | Empty) -> false

let grow t =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let data = Array.make (max 16 (cap * 2)) Empty in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  let cell = Cell { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t;
  (* sift up *)
  let i = ref t.size in
  t.size <- t.size + 1;
  t.data.(!i) <- cell;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if slot_lt t.data.(!i) t.data.(parent) then begin
      let tmp = t.data.(parent) in
      t.data.(parent) <- t.data.(!i);
      t.data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let root t = if t.size = 0 then Empty else t.data.(0)

let pop_min t =
  match root t with
  | Empty -> None
  | Cell top ->
    t.size <- t.size - 1;
    if t.size = 0 then
      (* release the backing array: it may have grown large in a burst *)
      t.data <- [||]
    else begin
      t.data.(0) <- t.data.(t.size);
      t.data.(t.size) <- Empty;
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && slot_lt t.data.(l) t.data.(!smallest) then
          smallest := l;
        if r < t.size && slot_lt t.data.(r) t.data.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          let tmp = t.data.(!smallest) in
          t.data.(!smallest) <- t.data.(!i);
          t.data.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.time, top.payload)

let peek_time t = match root t with Empty -> None | Cell c -> Some c.time

let size t = t.size
let is_empty t = t.size = 0
