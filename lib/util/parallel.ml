(* A deterministic batch executor over a fixed set of domains.

   Batches are published to the workers through a (mutex, condvar,
   generation counter) handshake; within a batch, jobs are claimed with a
   single atomic fetch-and-add, results land in a per-batch array slot
   owned by the claiming worker, and the last finisher wakes the
   submitter. The submitter participates in the claim loop, so a pool of
   [jobs = 1] spawns no domain and degenerates to a plain sequential
   loop. *)

type batch = {
  run : int -> unit;  (* claim-owner executes job [i] and stores its slot *)
  size : int;
  next : int Atomic.t;  (* next unclaimed index *)
}

type t = {
  size : int;
  mutex : Mutex.t;
  work : Condition.t;  (* wakes workers: new generation or shutdown *)
  finished : Condition.t;  (* wakes the submitter: a batch completed *)
  mutable current : batch option;
  mutable generation : int;  (* bumped once per published batch *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let claim_all (b : batch) =
  let rec go () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < b.size then (b.run i; go ())
  in
  go ()

(* Workers sleep between batches and re-check on every wake-up: a worker
   that slept through an entire batch sees [current = None] and just
   resynchronises its generation. *)
let rec worker_loop t gen =
  Mutex.lock t.mutex;
  while (not t.closed) && t.generation = gen do
    Condition.wait t.work t.mutex
  done;
  if t.closed then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let b = t.current in
    Mutex.unlock t.mutex;
    Option.iter claim_all b;
    worker_loop t gen
  end

let create ?jobs () =
  let size = max 1 (Option.value jobs ~default:(default_jobs ())) in
  let t =
    {
      size;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      current = None;
      generation = 0;
      closed = false;
      domains = [];
    }
  in
  t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let jobs t = t.size

let shutdown t =
  Mutex.lock t.mutex;
  let domains = t.domains in
  t.closed <- true;
  t.domains <- [];
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join domains

let run_batch (type a) t (thunks : (unit -> a) array) : a array =
  let n = Array.length thunks in
  if n = 0 then [||]
  else begin
    let results :
        (a, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let left = Atomic.make n in
    let run i =
      let r =
        try Ok (thunks.(i) ())
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r;
      if Atomic.fetch_and_add left (-1) = 1 then begin
        (* last job of the batch: wake the submitter *)
        Mutex.lock t.mutex;
        Condition.broadcast t.finished;
        Mutex.unlock t.mutex
      end
    in
    let b = { run; size = n; next = Atomic.make 0 } in
    Mutex.lock t.mutex;
    if t.closed then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.run_batch: pool is shut down"
    end;
    if t.current <> None then begin
      Mutex.unlock t.mutex;
      invalid_arg "Parallel.run_batch: pool already running a batch"
    end;
    t.current <- Some b;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    claim_all b;
    Mutex.lock t.mutex;
    while Atomic.get left > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.current <- None;
    Mutex.unlock t.mutex;
    (* all slots filled (left reached 0); re-raise the first failure in
       submission order, otherwise extract in submission order *)
    Array.iter
      (function
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | Some (Ok _) | None -> ())
      results;
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error _) | None -> assert false)
      results
  end

let map t f xs =
  Array.to_list
    (run_batch t (Array.of_list (List.map (fun x -> fun () -> f x) xs)))
