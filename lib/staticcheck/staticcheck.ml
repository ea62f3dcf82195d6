let src = Logs.Src.create "stamp.staticcheck" ~doc:"static safety analyzer"

module Log = (val Logs.src_log src : Logs.LOG)

(* The catalog, in report order: [timings] and [timings_ms] follow it. *)
let builtin_checks : (module Check.CHECK) list =
  [
    (module Check_graph.Wellformed);
    (module Check_graph.Tier1_clique);
    (module Check_policy.Valley_free);
    (module Check_policy.Dispute_wheel);
    (module Check_scenario.Sanity);
    (module Check_stamp.Red_blue_disjoint);
    (module Check_stamp.Lock_coverage);
  ]

type validate = [ `Off | `Warn | `Strict ]

type certificate =
  | Convergence_certified
  | Not_certified of string

type report = {
  diagnostics : Diagnostic.t list;
  certificate : certificate;
  timings : (string * float) list;
}

(* convergence is a property of the policy graph alone: well-formed
   relationships and no dispute wheel certify it (GSW) *)
let safety_checks = [ "topo.wellformed"; "policy.dispute-wheel" ]

let analyze ?spec ?mrai_base ?detect_delay topo =
  let ctx = Check.ctx ?spec ?mrai_base ?detect_delay topo in
  let runs =
    List.map
      (fun (module C : Check.CHECK) ->
        let t0 = Sys.time () in
        let diags = C.run ctx in
        (C.id, diags, Sys.time () -. t0))
      builtin_checks
  in
  let certificate =
    match
      List.find_opt
        (fun (id, diags, _) ->
          List.mem id safety_checks && List.exists Diagnostic.is_error diags)
        runs
    with
    | None -> Convergence_certified
    | Some (id, diags, _) ->
      let d = List.find Diagnostic.is_error diags in
      Not_certified (Printf.sprintf "%s: %s" id d.Diagnostic.message)
  in
  {
    diagnostics =
      List.concat_map (fun (_, diags, _) -> diags) runs
      |> List.sort Diagnostic.compare;
    certificate;
    timings = List.map (fun (id, _, dt) -> (id, dt)) runs;
  }

let errors r = List.filter Diagnostic.is_error r.diagnostics
let warnings r =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Warning) r.diagnostics

let has_errors r = errors r <> []

let enforce ?(what = "topology") validate r =
  match validate with
  | `Off -> ()
  | (`Warn | `Strict) as v -> (
    match errors r with
    | [] -> ()
    | errs -> (
      match v with
      | `Warn ->
        List.iter
          (fun d -> Log.warn (fun m -> m "%s: %a" what Diagnostic.pp d))
          errs
      | `Strict ->
        invalid_arg
          (Format.asprintf "static check failed for %s: %a" what
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
                Diagnostic.pp)
             errs)))

let certificate_to_string = function
  | Convergence_certified ->
    "convergence certified: policy graph is dispute-wheel-free \
     (Griffin–Shepherd–Wilfong)"
  | Not_certified why -> "not certified: " ^ why

let pp_report ppf r =
  List.iter (fun d -> Format.fprintf ppf "%a@." Diagnostic.pp d) r.diagnostics;
  Format.fprintf ppf "%s@." (certificate_to_string r.certificate)

let report_to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf {|{"errors":%d,"warnings":%d,"certified":%b|}
       (List.length (errors r))
       (List.length (warnings r))
       (r.certificate = Convergence_certified));
  (match r.certificate with
  | Convergence_certified -> ()
  | Not_certified why ->
    Buffer.add_string buf {|,"blocked_by":|};
    Json.add_string buf why);
  Buffer.add_string buf {|,"diagnostics":[|};
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Diagnostic.to_json d))
    r.diagnostics;
  Buffer.add_string buf {|],"timings_ms":{|};
  List.iteri
    (fun i (id, dt) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf {|"%s":%.3f|} id (dt *. 1000.)))
    r.timings;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let preflight ?pool ?mrai_base ?detect_delay topo specs =
  let job spec = analyze ~spec ?mrai_base ?detect_delay topo in
  match pool with
  | None -> List.map job specs
  | Some pool -> Parallel.map pool job specs
