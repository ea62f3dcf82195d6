(* A binary min-heap kept as a struct of arrays: times unboxed in a
   [Float.Array], insertion sequence numbers and int payloads in [int
   array]s. Sifting moves a hole instead of swapping, so each level costs
   one write per array, and no write is a pointer: the heap holds no
   value the collector must trace. *)
type t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable payloads : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
  }

let grow t =
  let cap = Array.length t.seqs in
  if t.size = cap then begin
    let cap' = max 16 (cap * 2) in
    let times = Float.Array.create cap' in
    Float.Array.blit t.times 0 times 0 t.size;
    let seqs = Array.make cap' 0 in
    Array.blit t.seqs 0 seqs 0 t.size;
    let payloads = Array.make cap' 0 in
    Array.blit t.payloads 0 payloads 0 t.size;
    t.times <- times;
    t.seqs <- seqs;
    t.payloads <- payloads
  end

(* Earlier time first, then insertion order. *)
let before t i ~time ~seq =
  let ti = Float.Array.unsafe_get t.times i in
  ti < time || (ti = time && Array.unsafe_get t.seqs i < seq)

let move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.payloads dst (Array.unsafe_get t.payloads src)

let place t i ~time ~seq payload =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.payloads i payload

let push t ~time payload =
  if Float.is_nan time then invalid_arg "Event_heap.push: NaN time";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  grow t;
  (* sift the hole up from the new last slot; a newer event never
     overtakes an equal time, so only a strictly later parent moves down *)
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && Float.Array.unsafe_get t.times ((!i - 1) / 2) > time do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  place t !i ~time ~seq payload

let next_time t =
  if t.size = 0 then invalid_arg "Event_heap.next_time: empty heap";
  Float.Array.unsafe_get t.times 0

let take t =
  if t.size = 0 then invalid_arg "Event_heap.take: empty heap";
  let top = Array.unsafe_get t.payloads 0 in
  let last = t.size - 1 in
  t.size <- last;
  if last = 0 then begin
    (* release the backing arrays: they may have grown large in a burst *)
    t.times <- Float.Array.create 0;
    t.seqs <- [||];
    t.payloads <- [||]
  end
  else begin
    (* sift the hole down from the root, then fill it with the last event *)
    let time = Float.Array.unsafe_get t.times last
    and seq = Array.unsafe_get t.seqs last
    and payload = Array.unsafe_get t.payloads last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < last
            && before t r
                 ~time:(Float.Array.unsafe_get t.times l)
                 ~seq:(Array.unsafe_get t.seqs l)
          then r
          else l
        in
        if before t c ~time ~seq then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place t !i ~time ~seq payload
  end;
  top

let size t = t.size
let is_empty t = t.size = 0
