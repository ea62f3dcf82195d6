type t = { as_path : Topology.vertex list; cls : Relationship.t; length : int }

let make ~cls as_path = { as_path; cls; length = List.length as_path }
let origin = make ~cls:Relationship.Customer []
let learned_from r = match r.as_path with [] -> None | nh :: _ -> Some nh
let contains r v = List.mem v r.as_path

let pp ppf r =
  Format.fprintf ppf "[%a] via %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_int)
    r.as_path Relationship.pp r.cls
