(* Record, inspect and compare simulation traces.

     # record a traced run to JSONL (and print its timeline)
     dune exec bin/stamp_trace.exe -- record -n 500 --protocol stamp \
         -o run.jsonl --summary

     # events touching AS 64500 between t=10 and t=40, as JSONL
     dune exec bin/stamp_trace.exe -- filter run.jsonl --as 64500 \
         --from 10 --until 40 --json

     # reconstruct the convergence timeline from a trace alone
     dune exec bin/stamp_trace.exe -- timeline run.jsonl

     # compare two traces after normalisation (exit 1 when they differ)
     dune exec bin/stamp_trace.exe -- diff a.jsonl b.jsonl *)

open Cmdliner

(* Read one event per non-empty line; the parse error of a bad line is
   re-raised with its line number so truncated or hand-edited files fail
   with a usable message. *)
let load_trace path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line when String.trim line = "" -> go (lineno + 1) acc
        | line ->
          let ev =
            try Trace.of_json line
            with Invalid_argument msg ->
              Fmt.failwith "%s:%d: %s" path lineno msg
          in
          go (lineno + 1) (ev :: acc)
      in
      go 1 [])

let print_events ~json events =
  if json then List.iter (fun e -> print_endline (Trace.to_json e)) events
  else List.iter (Format.printf "%a@." Trace.pp) events

(* --- record ------------------------------------------------------------- *)

let record (a : Scenario_cli.t) output summary =
  let topo = Scenario_cli.topology a in
  let spec = Scenario_cli.spec a topo in
  (* record into memory (so --summary can reconstruct the timeline), then
     write the JSONL file from the buffer *)
  let trace = Trace.memory () in
  let r =
    Runner.run ~seed:a.seed ~mrai_base:a.mrai ~trace a.protocol topo spec
  in
  let events = Trace.events trace in
  (match output with
  | None -> print_events ~json:true events
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        List.iter
          (fun e ->
            output_string oc (Trace.to_json e);
            output_char oc '\n')
          events);
    Format.eprintf "wrote %d events to %s (%s, %a)@." (List.length events)
      path
      (Runner.protocol_name a.protocol)
      (Scenario.pp_spec topo) spec);
  if summary then begin
    match r.Runner.timeline with
    | Some tl -> Format.printf "%a@." Timeline.pp tl
    | None -> ()
  end;
  0

(* --- filter ------------------------------------------------------------- *)

let filter file ases links kinds from_t until_t json =
  let events = load_trace file in
  let link_matches (a, b) = function
    | Trace.Link (u, v) -> (u = a && v = b) || (u = b && v = a)
    | Trace.Net | Trace.Node _ -> false
  in
  let keep e =
    (ases = [] || List.exists (Trace.mentions_node e) ases)
    && (links = [] || List.exists (fun l -> link_matches l e.Trace.loc) links)
    && (kinds = [] || List.mem (Trace.kind_label e) kinds)
    && (match from_t with None -> true | Some t -> e.Trace.vtime >= t)
    && match until_t with None -> true | Some t -> e.Trace.vtime <= t
  in
  print_events ~json (List.filter keep events);
  0

(* --- timeline ----------------------------------------------------------- *)

let timeline file json =
  let tl = Timeline.of_events (load_trace file) in
  if json then print_endline (Timeline.to_json tl)
  else Format.printf "%a@." Timeline.pp tl;
  0

(* --- diff --------------------------------------------------------------- *)

let diff file_a file_b json =
  let a = Trace.normalize (load_trace file_a)
  and b = Trace.normalize (load_trace file_b) in
  let ds = Trace.diff a b in
  if ds = [] then begin
    if not json then Format.printf "traces identical (%d events)@."
        (List.length a);
    0
  end
  else begin
    if json then begin
      let side = function
        | None -> "null"
        | Some e -> Trace.to_json e
      in
      print_endline
        ("["
        ^ String.concat ",\n "
            (List.map
               (fun (i, l, r) ->
                 Printf.sprintf "{\"index\": %d, \"left\": %s, \"right\": %s}"
                   i (side l) (side r))
               ds)
        ^ "]")
    end
    else
      List.iter
        (fun (i, l, r) ->
          Format.printf "@[<v 2>#%d:@ " i;
          (match l with
          | Some e -> Format.printf "< %a@ " Trace.pp e
          | None -> Format.printf "< (absent)@ ");
          (match r with
          | Some e -> Format.printf "> %a" Trace.pp e
          | None -> Format.printf "> (absent)");
          Format.printf "@]@.")
        ds;
    1
  end

(* --- command line ------------------------------------------------------- *)

let trace_file_pos n doc =
  Arg.(required & pos n (some file) None & info [] ~docv:"TRACE" ~doc)

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSONL instead of prose.")

let record_cmd =
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the JSONL trace here (stdout if omitted).")
  in
  let summary =
    Arg.(
      value & flag
      & info [ "summary" ]
          ~doc:"Also print the reconstructed convergence timeline.")
  in
  let doc = "run one scenario with tracing on and dump the JSONL trace" in
  Cmd.v (Cmd.info "record" ~doc)
    Term.(const record $ Scenario_cli.term $ output $ summary)

let filter_cmd =
  let ases =
    Arg.(
      value & opt_all int []
      & info [ "as" ] ~docv:"ASN"
          ~doc:"Keep events mentioning this AS (repeatable, OR).")
  in
  let links =
    Arg.(
      value & opt_all Scenario_cli.link_conv []
      & info [ "link" ] ~docv:"ASN:ASN"
          ~doc:"Keep events on this link, either direction (repeatable, OR).")
  in
  let kinds =
    Arg.(
      value & opt_all string []
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Keep events of this kind (repeatable, OR): enqueue, deliver, \
             drop, mrai-defer, mrai-flush, decision, recolor, session-reset, \
             session-up, scenario, status or phase.")
  in
  let from_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "from" ] ~docv:"T" ~doc:"Drop events before virtual time T.")
  in
  let until_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "until" ] ~docv:"T" ~doc:"Drop events after virtual time T.")
  in
  let doc = "select events from a JSONL trace" in
  Cmd.v (Cmd.info "filter" ~doc)
    Term.(
      const filter
      $ trace_file_pos 0 "JSONL trace file."
      $ ases $ links $ kinds $ from_t $ until_t $ json_flag)

let timeline_cmd =
  let doc = "reconstruct the convergence timeline from a JSONL trace" in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(const timeline $ trace_file_pos 0 "JSONL trace file." $ json_flag)

let diff_cmd =
  let doc =
    "compare two JSONL traces after normalisation; exit 1 when they differ"
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const diff
      $ trace_file_pos 0 "Left trace."
      $ trace_file_pos 1 "Right trace."
      $ json_flag)

let cmd =
  let doc = "record, inspect and compare simulation traces" in
  Cmd.group (Cmd.info "stamp_trace" ~doc)
    [ record_cmd; filter_cmd; timeline_cmd; diff_cmd ]

let () = exit (Cmd.eval' cmd)
