let strip_comment line =
  match String.index_opt line '#' with
  | None -> line
  | Some i -> String.sub line 0 i

let lines_of content =
  String.split_on_char '\n' content
  |> List.mapi (fun i l -> (i + 1, String.trim (strip_comment l)))
  |> List.filter (fun (_, l) -> l <> "")

let tokens_of line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let parse topo content =
  let err lineno fmt =
    Printf.ksprintf
      (fun msg ->
        invalid_arg (Printf.sprintf "Scenario_io: %s on line %d" msg lineno))
      fmt
  in
  let vertex lineno s =
    match int_of_string_opt s with
    | None -> err lineno "bad AS number %S" s
    | Some asn -> (
      match Topology.vertex_of_asn topo asn with
      | Some v -> v
      | None -> err lineno "AS %d not in topology" asn)
  in
  let float_of lineno s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> err lineno "bad number %S" s
  in
  let rec event lineno = function
    | [ "fail_link"; a; b ] ->
      Scenario.Fail_link (vertex lineno a, vertex lineno b)
    | [ "fail_node"; a ] -> Scenario.Fail_node (vertex lineno a)
    | [ "deny_export"; a; b ] ->
      Scenario.Deny_export (vertex lineno a, vertex lineno b)
    | [ "recover_link"; a; b ] ->
      Scenario.Recover_link (vertex lineno a, vertex lineno b)
    | [ "recover_node"; a ] -> Scenario.Recover_node (vertex lineno a)
    | [ "allow_export"; a; b ] ->
      Scenario.Allow_export (vertex lineno a, vertex lineno b)
    | "at" :: dt :: (_ :: _ as rest) ->
      Scenario.At (float_of lineno dt, event lineno rest)
    | toks -> err lineno "malformed event %S" (String.concat " " toks)
  in
  let dest = ref None and detect = ref None and events = ref [] in
  List.iter
    (fun (lineno, line) ->
      match tokens_of line with
      | [ "dest"; a ] ->
        if !dest <> None then err lineno "duplicate dest directive";
        dest := Some (vertex lineno a)
      | [ "detect"; dt ] ->
        if !detect <> None then err lineno "duplicate detect directive";
        detect := Some (float_of lineno dt)
      | toks -> events := event lineno toks :: !events)
    (lines_of content);
  match !dest with
  | None -> invalid_arg "Scenario_io: missing dest directive"
  | Some dest ->
    { Scenario.dest; events = List.rev !events; detect_delay = !detect }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load topo path = parse topo (read_file path)

let to_string topo (spec : Scenario.spec) =
  let buf = Buffer.create 256 in
  let asn v = Topology.asn topo v in
  Buffer.add_string buf (Printf.sprintf "dest %d\n" (asn spec.dest));
  (match spec.detect_delay with
  | None -> ()
  | Some dt -> Buffer.add_string buf (Printf.sprintf "detect %.17g\n" dt));
  let rec emit = function
    | Scenario.Fail_link (u, v) -> Printf.sprintf "fail_link %d %d" (asn u) (asn v)
    | Scenario.Fail_node u -> Printf.sprintf "fail_node %d" (asn u)
    | Scenario.Deny_export (u, v) ->
      Printf.sprintf "deny_export %d %d" (asn u) (asn v)
    | Scenario.Recover_link (u, v) ->
      Printf.sprintf "recover_link %d %d" (asn u) (asn v)
    | Scenario.Recover_node u -> Printf.sprintf "recover_node %d" (asn u)
    | Scenario.Allow_export (u, v) ->
      Printf.sprintf "allow_export %d %d" (asn u) (asn v)
    | Scenario.At (dt, e) -> Printf.sprintf "at %.17g %s" dt (emit e)
  in
  List.iter
    (fun e ->
      Buffer.add_string buf (emit e);
      Buffer.add_char buf '\n')
    spec.events;
  Buffer.contents buf
