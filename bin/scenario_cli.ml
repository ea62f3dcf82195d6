(* The options sim_run and stamp_trace record share: the topology, the
   protocol, the scenario and the MRAI base of one run. *)

open Cmdliner

type t = {
  topo_file : string option;
  n : int;
  seed : int;
  protocol : Runner.protocol;
  dest : int option;
  fails : (int * int) list;
  scenario : [ `Single | `Two_apart | `Two_shared | `Node | `Policy ];
  mrai : float;
}

let protocol_conv =
  let parse = function
    | "bgp" -> Ok Runner.Bgp
    | "rbgp" -> Ok Runner.Rbgp
    | "rbgp-norci" -> Ok Runner.Rbgp_no_rci
    | "stamp" -> Ok Runner.Stamp
    | s -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print ppf p = Format.pp_print_string ppf (Runner.protocol_name p) in
  Arg.conv (parse, print)

let link_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ a; b ] -> begin
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> Ok (a, b)
      | _ -> Error (`Msg "expected ASN:ASN")
    end
    | _ -> Error (`Msg "expected ASN:ASN")
  in
  let print ppf (a, b) = Format.fprintf ppf "%d:%d" a b in
  Arg.conv (parse, print)

let scenario_conv =
  let parse = function
    | "single" -> Ok `Single
    | "two-apart" -> Ok `Two_apart
    | "two-shared" -> Ok `Two_shared
    | "node" -> Ok `Node
    | "policy" -> Ok `Policy
    | s -> Error (`Msg (Printf.sprintf "unknown scenario %S" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
      | `Single -> "single"
      | `Two_apart -> "two-apart"
      | `Two_shared -> "two-shared"
      | `Node -> "node"
      | `Policy -> "policy")
  in
  Arg.conv (parse, print)

let vertex_of_asn_exn topo asn =
  match Topology.vertex_of_asn topo asn with
  | Some v -> v
  | None -> Fmt.failwith "ASN %d not in topology" asn

let topology a =
  match a.topo_file with
  | Some path -> Topo_io.load_relationships path
  | None -> Topo_gen.generate (Topo_gen.default_params ~seed:a.seed ~n:a.n ())

(* --dest with at least one --fail is an explicit scenario; otherwise a
   random one of the --scenario kind, drawn from --seed. *)
let spec a topo =
  let st = Random.State.make [| a.seed |] in
  match (a.dest, a.fails) with
  | Some asn, (_ :: _ as links) ->
    {
      Scenario.dest = vertex_of_asn_exn topo asn;
      events =
        List.map
          (fun (a, b) ->
            Scenario.Fail_link
              (vertex_of_asn_exn topo a, vertex_of_asn_exn topo b))
          links;
      detect_delay = None;
    }
  | Some _, [] | None, _ -> begin
    match a.scenario with
    | `Single -> Scenario.single_link st topo
    | `Two_apart -> Scenario.two_links_apart st topo
    | `Two_shared -> Scenario.two_links_shared st topo
    | `Node -> Scenario.node_failure st topo
    | `Policy -> Scenario.policy_withdraw st topo
  end

let term =
  let topo_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "topo" ] ~docv:"FILE" ~doc:"CAIDA relationship file to load.")
  in
  let n =
    Arg.(
      value & opt int 1000
      & info [ "n" ] ~docv:"N" ~doc:"Generated topology size (without --topo).")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"RNG seed.")
  in
  let protocol =
    Arg.(
      value
      & opt protocol_conv Runner.Stamp
      & info [ "protocol" ] ~docv:"P"
          ~doc:"Protocol: bgp, rbgp, rbgp-norci or stamp.")
  in
  let dest =
    Arg.(
      value
      & opt (some int) None
      & info [ "dest" ] ~docv:"ASN"
          ~doc:"Destination AS (random multi-homed AS if omitted).")
  in
  let fails =
    Arg.(
      value & opt_all link_conv []
      & info [ "fail" ] ~docv:"ASN:ASN"
          ~doc:"Link to fail after convergence (repeatable; needs --dest).")
  in
  let scenario =
    Arg.(
      value & opt scenario_conv `Single
      & info [ "scenario" ] ~docv:"KIND"
          ~doc:
            "Random scenario kind: single, two-apart, two-shared, node or \
             policy.")
  in
  let mrai =
    Arg.(
      value & opt float 30.
      & info [ "mrai" ] ~docv:"SECONDS" ~doc:"MRAI base interval.")
  in
  let make topo_file n seed protocol dest fails scenario mrai =
    { topo_file; n; seed; protocol; dest; fails; scenario; mrai }
  in
  Term.(
    const make $ topo_file $ n $ seed $ protocol $ dest $ fails $ scenario
    $ mrai)
