type severity = Error | Warning

type location =
  | Global
  | At_as of int
  | At_link of int * int

type t = {
  check : string;
  severity : severity;
  location : location;
  message : string;
  hint : string option;
}

let make severity ~check ?hint location message =
  { check; severity; location; message; hint }

let error ~check ?hint location message = make Error ~check ?hint location message
let warning ~check ?hint location message =
  make Warning ~check ?hint location message

let link a b = if a <= b then At_link (a, b) else At_link (b, a)

let is_error d = d.severity = Error

let severity_rank = function Error -> 0 | Warning -> 1

let location_rank = function
  | Global -> (0, 0, 0)
  | At_as a -> (1, a, 0)
  | At_link (a, b) -> (2, a, b)

let compare d d' =
  let c = compare (severity_rank d.severity) (severity_rank d'.severity) in
  if c <> 0 then c
  else
    let c = String.compare d.check d'.check in
    if c <> 0 then c
    else
      let c = compare (location_rank d.location) (location_rank d'.location) in
      if c <> 0 then c else String.compare d.message d'.message

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"

let pp_location ppf = function
  | Global -> Format.pp_print_string ppf "topology"
  | At_as a -> Format.fprintf ppf "AS %d" a
  | At_link (a, b) -> Format.fprintf ppf "link %d-%d" a b

let pp ppf d =
  (* "@@" = a literal '@': plain "@ " is a Format break hint *)
  Format.fprintf ppf "%s %s @@ %a: %s"
    (severity_to_string d.severity)
    d.check pp_location d.location d.message;
  match d.hint with
  | None -> ()
  | Some h -> Format.fprintf ppf " (hint: %s)" h

let location_to_json = function
  | Global -> {|{"kind":"global"}|}
  | At_as a -> Printf.sprintf {|{"kind":"as","asn":%d}|} a
  | At_link (a, b) -> Printf.sprintf {|{"kind":"link","asns":[%d,%d]}|} a b

let to_json d =
  let hint =
    match d.hint with
    | None -> ""
    | Some h -> Printf.sprintf {|,"hint":%s|} (Json.string h)
  in
  Printf.sprintf {|{"check":%s,"severity":"%s","location":%s,"message":%s%s}|}
    (Json.string d.check)
    (severity_to_string d.severity)
    (location_to_json d.location)
    (Json.string d.message) hint
