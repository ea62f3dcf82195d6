(* Source-hygiene lint: a small rule table grepped over the repository
   sources, so conventions the type checker cannot see fail the build
   instead of rotting silently. [test/dune] declares (source_tree ../lib),
   (source_tree ../bin) and (source_tree ../bench) so the sources are
   present in the build directory under dune runtest.

   Moved here from test_parallel.ml and generalised: each rule names the
   forbidden substrings, the directories it scans, and an allowlist of
   path fragments where the pattern is legitimate. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec source_files acc dir =
  Array.fold_left
    (fun acc entry ->
      if entry = "" || entry.[0] = '.' then acc
      else
        let path = Filename.concat dir entry in
        if Sys.is_directory path then source_files acc path
        else if
          Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
        then path :: acc
        else acc)
    acc (Sys.readdir dir)

(* "../lib" under dune runtest (cwd = _build/default/test); "lib" when the
   executable is run from the workspace root via dune exec *)
let resolve dir =
  List.find_opt Sys.file_exists
    [ "../" ^ dir; dir; "_build/default/" ^ dir ]

type rule = {
  name : string;
  patterns : string list;  (** forbidden substrings *)
  dirs : string list;  (** directories to scan (repo-relative) *)
  allowed : string -> bool;  (** paths where the patterns are fine *)
  why : string;  (** shown with the offending paths *)
}

let contains_fragment fragments path =
  List.exists (fun f -> Astring.String.is_infix ~affix:f path) fragments

let rules =
  [
    (* The determinism contract of Parallel/Experiment rests on every
       piece of worker-reachable code deriving its randomness from an
       explicit Random.State (Sim.rng or a seeded state). The global
       Random module is domain-local in OCaml 5, so a stray Random.int
       would not crash — it would silently produce worker-count-dependent
       numbers. *)
    {
      name = "no global Random in lib/";
      patterns =
        [
          "Random.int";
          "Random.float";
          "Random.bool";
          "Random.bits";
          "Random.full_int";
          "Random.self_init";
        ];
      dirs = [ "lib" ];
      allowed = (fun _ -> false);
      why = "use an explicit Random.State (Sim.rng or a seeded state)";
    };
    (* The session substrate owns the simulator's randomness: the RNG
       draw-order contract (one float per MRAI timer at creation, one per
       message sent) is pinned by the golden Runner numbers, and it only
       holds if no protocol draws from Sim.rng behind Session_core's
       back. *)
    {
      name = "Sim.rng only in the session core";
      patterns = [ "Sim.rng" ];
      dirs = [ "lib" ];
      allowed = contains_fragment [ "engine/session_core.ml"; "simkernel/" ];
      why = "draw session delays and MRAI intervals in Session_core";
    };
    (* Libraries report through Logs / Fmt / returned values; writing to
       stdout from lib/ corrupts machine-readable output (stamp_check
       --json, the bench JSON) and bypasses log levels. Executables own
       their stdout. *)
    {
      name = "no stdout printing in lib/";
      (* bare print_string is excluded from the pattern list: it is a
         substring of Format.pp_print_string, which is fine everywhere *)
      patterns = [ "Printf.printf"; "print_endline"; "print_newline" ];
      dirs = [ "lib" ];
      allowed = (fun _ -> false);
      why = "libraries log via Logs or return data; only bin//bench/ print";
    };
    (* Every forwarding-plane measurement folds over Transient.watch, the
       one loop that drives a simulation in checkpoint slices; a second
       slice loop would drift from it (the Traffic loop once probed the
       final state twice). *)
    {
      name = "one checkpoint loop in lib/";
      patterns = [ "Sim.run ~until" ];
      dirs = [ "lib" ];
      allowed = contains_fragment [ "analysis/transient.ml" ];
      why = "fold over Transient.watch instead of slicing Sim.run";
    };
    (* The paper's per-AS count (troubled at the baseline or a checkpoint,
       transient when delivered at the end, broken when not) is one fold
       in Transient; the monitor and Timeline both drive it, so they agree
       by construction. A second troubled set would drift from it. *)
    {
      name = "one outage rule in lib/";
      patterns = [ "troubled"; "count_broken" ];
      dirs = [ "lib" ];
      allowed = contains_fragment [ "analysis/transient.ml" ];
      why = "fold statuses with Transient.observe";
    };
    (* Trace Status events name forwarding statuses; Fwd_walk owns the one
       status<->string pair, so the writer and the reader agree. *)
    {
      name = "status names only in Fwd_walk";
      patterns = [ "\"delivered\""; "\"looped\""; "\"blackholed\"" ];
      dirs = [ "lib" ];
      allowed = contains_fragment [ "engine/fwd_walk.ml" ];
      why = "use Fwd_walk.string_of_status / status_of_string";
    };
    (* Every best-route change goes through Process.decide, the one place
       that installs a new best route and reports it (trace event,
       forwarding dirty mark, convergence instant); an engine reporting
       decisions itself would drift from the other engines' causes. *)
    {
      name = "one decision path in lib/";
      patterns = [ "Session_core.note_decision" ];
      dirs = [ "lib" ];
      allowed = contains_fragment [ "bgp/process.ml" ];
      why = "install best routes with Process.decide";
    };
    (* Process caches the slot of the best Adj-RIB-In entry, and the
       cache is exact only if every write to the RIB goes through
       Process (learn, withdraw, forget, clear, purge); engines read it
       through Process helpers too. *)
    {
      name = "Adj-RIB-In written only inside Process";
      patterns = [ "adj_rib_in" ];
      dirs = [ "lib" ];
      allowed = contains_fragment [ "bgp/process.ml" ];
      why = "go through Process (learn/withdraw/forget/clear/purge/entry)";
    };
    (* Engines probe the forwarding plane through Session_core, whose
       dirty set decides what a probe re-walks; an engine walking on its
       own would bypass the marks (and the test that checks them). *)
    {
      name = "one probe path in lib/";
      patterns =
        [ "Fwd_walk.walk_all"; "Fwd_walk.create"; "Fwd_walk.refresh" ];
      dirs = [ "lib" ];
      allowed = contains_fragment [ "lib/engine/" ];
      why = "probe with Session_core.probe (fresh: Session_core.fresh_walk)";
    };
    (* The per-message path is flat: channels and MRAI timers are indexed
       by directed edge id, RIBs by neighbour slot, failed links by edge
       id. A hash table in the session core, the routing process or the
       link overlay (read at every advertisement and forwarding step)
       would bring back a hash per message. *)
    {
      name = "flat hot path in Session_core and Process";
      patterns = [ "Hashtbl" ];
      dirs = [ "lib" ];
      allowed =
        (fun path ->
          not
            (contains_fragment
               [
                 "engine/session_core.ml";
                 "engine/link_state.ml";
                 "bgp/process.ml";
               ]
               path));
      why = "index by Topology edge id or neighbour slot";
    };
    (* OCaml's %S is not JSON: it writes control and non-ASCII bytes as
       decimal escapes (\001, \195\169) that no JSON parser accepts.
       Hand-written JSON writers quote their strings with Json.string or
       Json.add_string. *)
    {
      name = "one JSON string escaper";
      patterns = [ "\\\": %S"; "\\\":%S" ];
      dirs = [ "lib"; "bin"; "bench" ];
      allowed = (fun _ -> false);
      why = "use the shared escaper (Json.string / Json.add_string)";
    };
    (* Obj.magic defeats the type system wholesale; nothing in a
       simulator of this size justifies it. *)
    {
      name = "no Obj.magic anywhere";
      patterns = [ "Obj.magic" ];
      dirs = [ "lib"; "bin"; "bench" ];
      allowed = (fun _ -> false);
      why = "find a typed encoding";
    };
  ]

let run_rule rule () =
  let files =
    List.concat_map
      (fun dir ->
        match resolve dir with
        | Some d -> source_files [] d
        | None ->
          Alcotest.failf
            "%s sources not found (missing source_tree dep in test/dune?)" dir)
      rule.dirs
  in
  Alcotest.(check bool) "found sources to scan" true (List.length files > 5);
  let offenders =
    List.concat_map
      (fun path ->
        if rule.allowed path then []
        else
          let content = read_file path in
          List.filter_map
            (fun pattern ->
              if Astring.String.is_infix ~affix:pattern content then
                Some (path ^ ": " ^ pattern)
              else None)
            rule.patterns)
      files
  in
  if offenders <> [] then
    Alcotest.failf "%s — %s:\n%s" rule.name rule.why
      (String.concat "\n" offenders)

let () =
  Alcotest.run "hygiene"
    [
      ( "source lint",
        List.map
          (fun rule -> Alcotest.test_case rule.name `Quick (run_rule rule))
          rules );
    ]
