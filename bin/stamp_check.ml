(* Lint a topology (and optionally a scenario) with the static safety
   analyzer — no simulation, just the verdict.

     # whole-topology lint, human-readable report
     dune exec bin/stamp_check.exe -- examples/data/clique4.rel

     # scenario-scoped, machine-readable, fail on warnings too
     dune exec bin/stamp_check.exe -- --json --strict \
         examples/data/clique4.rel examples/data/provider_failure.scn

   Exit codes: 0 — clean (warnings allowed unless --strict); 1 — the
   analyzer found errors (or warnings under --strict), the report names
   the check ids; 2 — the input files could not be parsed. *)

open Cmdliner

let run topo_file scenario_file json strict quiet mrai detect =
  match
    let topo = Topo_io.load_relationships topo_file in
    let spec = Option.map (Scenario_io.load topo) scenario_file in
    (topo, spec)
  with
  | exception (Invalid_argument msg | Sys_error msg) ->
    Printf.eprintf "stamp_check: %s\n" msg;
    2
  | topo, spec ->
    let report =
      Staticcheck.analyze ?spec ?mrai_base:mrai ?detect_delay:detect topo
    in
    if json then print_endline (Staticcheck.report_to_json report)
    else if not quiet then Format.printf "%a" Staticcheck.pp_report report;
    let failing =
      if strict then report.Staticcheck.diagnostics
      else Staticcheck.errors report
    in
    if failing = [] then 0
    else begin
      if not (json || quiet) then
        Format.eprintf "stamp_check: %d failing diagnostic%s (%s)@."
          (List.length failing)
          (if List.length failing = 1 then "" else "s")
          (String.concat ", "
             (List.sort_uniq String.compare
                (List.map (fun d -> d.Diagnostic.check) failing)));
      1
    end

let topo_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TOPOLOGY"
        ~doc:"CAIDA serial-1 relationship file to analyze.")

let scenario_file =
  Arg.(
    value
    & pos 1 (some file) None
    & info [] ~docv:"SCENARIO"
        ~doc:
          "Optional scenario file; adds the scenario.sanity check and \
           scopes the per-origin checks to its destination.")

let json =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit the report as one JSON object on stdout.")

let strict =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:"Exit non-zero on warnings too, not only errors.")

let quiet =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Suppress the report; exit code only.")

let mrai =
  Arg.(
    value
    & opt (some float) None
    & info [ "mrai" ] ~docv:"SECONDS"
        ~doc:"MRAI base interval to validate (scenario.sanity range check).")

let detect =
  Arg.(
    value
    & opt (some float) None
    & info [ "detect" ] ~docv:"SECONDS"
        ~doc:"Failure-detection delay to validate.")

let cmd =
  let doc = "statically verify a topology and scenario before simulating" in
  Cmd.v
    (Cmd.info "stamp_check" ~doc)
    Term.(
      const run $ topo_file $ scenario_file $ json $ strict $ quiet $ mrai
      $ detect)

let () = exit (Cmd.eval' cmd)
