type t = Red | Blue

let other = function Red -> Blue | Blue -> Red

let equal a b =
  match (a, b) with Red, Red | Blue, Blue -> true | (Red | Blue), _ -> false

let to_int = function Red -> 0 | Blue -> 1

let of_int = function
  | 0 -> Red
  | 1 -> Blue
  | n -> invalid_arg (Printf.sprintf "Color.of_int: %d" n)

let all = [ Red; Blue ]
let to_string = function Red -> "red" | Blue -> "blue"
