(** Deterministic fixed-size domain pool for embarrassingly parallel
    experiment batches.

    Every (protocol, scenario, instance) run in this repository is an
    independent job driven by its own seeded [Sim.t] / [Random.State.t],
    so the only thing a parallel executor must guarantee is that it does
    not introduce nondeterminism of its own. This pool guarantees:

    - {b submission-order results}: [run_batch] returns results indexed
      exactly like the submitted jobs, whatever order the workers happened
      to finish in;
    - {b no hidden randomness}: the pool itself never touches any RNG;
      jobs are responsible for deriving all randomness from explicit
      per-job seeds (the test suite greps [lib/] for uses of the global
      [Random] module to keep it that way);
    - {b same seeds ⇒ same results for any worker count}: a job never
      observes which worker runs it or how many workers exist, so
      [jobs = 1] and [jobs = 64] produce bit-identical outputs.

    The pool is a batch executor, not a task graph: one batch runs at a
    time and the submitting thread participates as a worker ([create
    ~jobs:1] therefore spawns no domain at all and runs everything
    inline, which is the sequential baseline by construction). Submitting
    from multiple threads concurrently is not supported. *)

type t
(** A pool of worker domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the bench fleet's default. *)

val create : ?jobs:int -> unit -> t
(** Pool with [jobs] workers (default {!default_jobs}, clamped to at least
    1). The submitter counts as one worker, so [jobs - 1] domains are
    spawned; they idle on a condition variable between batches. *)

val jobs : t -> int
(** The worker count the pool was created with. *)

val shutdown : t -> unit
(** Join all worker domains. Idempotent. Submitting to a shut-down pool
    raises [Invalid_argument]. Never call while a batch is in flight. *)

val run_batch : t -> (unit -> 'a) array -> 'a array
(** Execute every thunk, each exactly once, on the pool's workers and
    return their results in submission order. If one or more jobs raise,
    the remaining jobs still run to completion and the exception of the
    {e lowest-indexed} failing job is re-raised in the submitter (with its
    backtrace). The empty batch returns immediately.
    @raise Invalid_argument if the pool is shut down or already running a
    batch (re-entrant submission from inside a job). *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] is [List.map f xs] with the applications distributed
    over the pool — same order, same exception contract as
    {!run_batch}. *)
