(* Structured event tracing. See trace.mli for the contract; the key
   invariant is that the Null sink costs one branch and nothing else, so
   traced and untraced runs stay bit-identical. *)

type msg_kind = Announce | Withdraw

type location = Net | Node of int | Link of int * int

type kind =
  | Enqueue of { msg : msg_kind; deliver_at : float }
  | Deliver
  | Drop
  | Mrai_defer of { until : float; proc : int }
  | Mrai_flush of { proc : int }
  | Decision of { old_next : int option; new_next : int option; cause : string }
  | Recolor of { color : string; et_ok : bool }
  | Session_reset
  | Session_up
  | Scenario_event of string
  | Status of { status : string; changed : bool }
  | Phase of string

type event = {
  vtime : float;
  seq : int;
  engine : string;
  loc : location;
  kind : kind;
}

(* Sinks *)

type memory_state = { mutable buf : event array; mutable len : int }

type sink =
  | Null
  | Memory of memory_state
  | Stream of { oc : out_channel; mutable total : int }

let null = Null
let memory () = Memory { buf = [||]; len = 0 }
let stream oc = Stream { oc; total = 0 }

let enabled = function Null -> false | Memory _ | Stream _ -> true
let readable = function Memory _ -> true | Null | Stream _ -> false

let dummy_event = { vtime = 0.; seq = 0; engine = ""; loc = Net; kind = Deliver }

let push_memory m e =
  let n = Array.length m.buf in
  if m.len = n then begin
    let buf' = Array.make (max 64 (2 * n)) dummy_event in
    Array.blit m.buf 0 buf' 0 n;
    m.buf <- buf'
  end;
  m.buf.(m.len) <- e;
  m.len <- m.len + 1

(* Serialisation, defined before [emit] because streaming needs it. *)

let loc_string = function
  | Net -> "net"
  | Node n -> Printf.sprintf "as:%d" n
  | Link (u, v) -> Printf.sprintf "link:%d-%d" u v

let msg_kind_string = function Announce -> "announce" | Withdraw -> "withdraw"

let kind_name = function
  | Enqueue _ -> "enqueue"
  | Deliver -> "deliver"
  | Drop -> "drop"
  | Mrai_defer _ -> "mrai-defer"
  | Mrai_flush _ -> "mrai-flush"
  | Decision _ -> "decision"
  | Recolor _ -> "recolor"
  | Session_reset -> "session-reset"
  | Session_up -> "session-up"
  | Scenario_event _ -> "scenario"
  | Status _ -> "status"
  | Phase _ -> "phase"

let kind_label e = kind_name e.kind

let to_json e =
  let b = Buffer.create 96 in
  Buffer.add_string b (Printf.sprintf "{\"t\":%.17g,\"seq\":%d,\"engine\":" e.vtime e.seq);
  Json.add_string b e.engine;
  Buffer.add_string b ",\"loc\":";
  Json.add_string b (loc_string e.loc);
  Buffer.add_string b ",\"kind\":";
  Json.add_string b (kind_name e.kind);
  (match e.kind with
  | Enqueue { msg; deliver_at } ->
      Buffer.add_string b ",\"msg\":";
      Json.add_string b (msg_kind_string msg);
      Buffer.add_string b (Printf.sprintf ",\"deliver_at\":%.17g" deliver_at)
  | Deliver | Drop | Session_reset | Session_up -> ()
  | Mrai_defer { until; proc } ->
      Buffer.add_string b (Printf.sprintf ",\"until\":%.17g,\"proc\":%d" until proc)
  | Mrai_flush { proc } -> Buffer.add_string b (Printf.sprintf ",\"proc\":%d" proc)
  | Decision { old_next; new_next; cause } ->
      let opt = function None -> "null" | Some n -> string_of_int n in
      Buffer.add_string b
        (Printf.sprintf ",\"old_next\":%s,\"new_next\":%s,\"cause\":" (opt old_next)
           (opt new_next));
      Json.add_string b cause
  | Recolor { color; et_ok } ->
      Buffer.add_string b ",\"color\":";
      Json.add_string b color;
      Buffer.add_string b (Printf.sprintf ",\"et_ok\":%b" et_ok)
  | Scenario_event label ->
      Buffer.add_string b ",\"label\":";
      Json.add_string b label
  | Status { status; changed } ->
      Buffer.add_string b ",\"status\":";
      Json.add_string b status;
      Buffer.add_string b (Printf.sprintf ",\"changed\":%b" changed)
  | Phase name ->
      Buffer.add_string b ",\"name\":";
      Json.add_string b name);
  Buffer.add_char b '}';
  Buffer.contents b

let emit sink ~vtime ~engine ~loc kind =
  match sink with
  | Null -> ()
  | Memory m -> push_memory m { vtime; seq = m.len; engine; loc; kind }
  | Stream s ->
      let e = { vtime; seq = s.total; engine; loc; kind } in
      s.total <- s.total + 1;
      output_string s.oc (to_json e);
      output_char s.oc '\n'

let events = function
  | Null | Stream _ -> []
  | Memory m -> List.init m.len (Array.get m.buf)

let recorded = function Null -> 0 | Memory m -> m.len | Stream s -> s.total

(* Minimal JSON-object parser: enough for the flat one-line objects
   [to_json] produces (string / number / bool / null values only). *)

module P = struct
  type t = { s : string; mutable pos : int }

  let fail p msg =
    invalid_arg (Printf.sprintf "Trace.of_json: %s at %d in %S" msg p.pos p.s)

  let skip_ws p =
    while
      p.pos < String.length p.s
      && (match p.s.[p.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      p.pos <- p.pos + 1
    done

  let peek p = if p.pos < String.length p.s then Some p.s.[p.pos] else None

  let expect p c =
    match peek p with
    | Some c' when c' = c -> p.pos <- p.pos + 1
    | _ -> fail p (Printf.sprintf "expected %c" c)

  let string p =
    expect p '"';
    let b = Buffer.create 16 in
    let rec go () =
      if p.pos >= String.length p.s then fail p "unterminated string";
      let c = p.s.[p.pos] in
      p.pos <- p.pos + 1;
      if c = '"' then Buffer.contents b
      else if c = '\\' then begin
        (if p.pos >= String.length p.s then fail p "bad escape";
         let e = p.s.[p.pos] in
         p.pos <- p.pos + 1;
         match e with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 't' -> Buffer.add_char b '\t'
         | 'r' -> Buffer.add_char b '\r'
         | 'u' ->
             if p.pos + 4 > String.length p.s then fail p "bad \\u escape";
             let code = int_of_string ("0x" ^ String.sub p.s p.pos 4) in
             p.pos <- p.pos + 4;
             if code < 0x80 then Buffer.add_char b (Char.chr code)
             else fail p "non-ASCII \\u escape unsupported"
         | _ -> fail p "bad escape");
        go ()
      end
      else begin
        Buffer.add_char b c;
        go ()
      end
    in
    go ()

  type value = S of string | F of float | B of bool | Nil

  let value p =
    skip_ws p;
    match peek p with
    | Some '"' -> S (string p)
    | Some 't' ->
        if p.pos + 4 <= String.length p.s && String.sub p.s p.pos 4 = "true"
        then (p.pos <- p.pos + 4; B true)
        else fail p "bad literal"
    | Some 'f' ->
        if p.pos + 5 <= String.length p.s && String.sub p.s p.pos 5 = "false"
        then (p.pos <- p.pos + 5; B false)
        else fail p "bad literal"
    | Some 'n' ->
        if p.pos + 4 <= String.length p.s && String.sub p.s p.pos 4 = "null"
        then (p.pos <- p.pos + 4; Nil)
        else fail p "bad literal"
    | Some ('-' | '0' .. '9') ->
        let start = p.pos in
        while
          p.pos < String.length p.s
          && (match p.s.[p.pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false)
        do
          p.pos <- p.pos + 1
        done;
        (try F (float_of_string (String.sub p.s start (p.pos - start)))
         with _ -> fail p "bad number")
    | _ -> fail p "expected value"

  let obj p =
    skip_ws p;
    expect p '{';
    let fields = ref [] in
    skip_ws p;
    (match peek p with
    | Some '}' -> p.pos <- p.pos + 1
    | _ ->
        let rec go () =
          skip_ws p;
          let k = string p in
          skip_ws p;
          expect p ':';
          let v = value p in
          fields := (k, v) :: !fields;
          skip_ws p;
          match peek p with
          | Some ',' -> p.pos <- p.pos + 1; go ()
          | Some '}' -> p.pos <- p.pos + 1
          | _ -> fail p "expected , or }"
        in
        go ());
    skip_ws p;
    if p.pos <> String.length p.s then fail p "trailing garbage";
    List.rev !fields
end

let of_json line =
  let p = { P.s = line; pos = 0 } in
  let fields = P.obj p in
  let find k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Trace.of_json: missing field %S" k)
  in
  let str k = match find k with P.S s -> s | _ ->
    invalid_arg (Printf.sprintf "Trace.of_json: field %S not a string" k) in
  let num k = match find k with P.F f -> f | _ ->
    invalid_arg (Printf.sprintf "Trace.of_json: field %S not a number" k) in
  let boolean k = match find k with P.B b -> b | _ ->
    invalid_arg (Printf.sprintf "Trace.of_json: field %S not a bool" k) in
  let int_opt k = match find k with
    | P.Nil -> None
    | P.F f -> Some (int_of_float f)
    | _ -> invalid_arg (Printf.sprintf "Trace.of_json: field %S not int/null" k)
  in
  let loc =
    let s = str "loc" in
    if s = "net" then Net
    else
      match String.index_opt s ':' with
      | Some i ->
          let tag = String.sub s 0 i in
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          (match tag with
          | "as" -> (
              match int_of_string_opt rest with
              | Some n -> Node n
              | None -> invalid_arg ("Trace.of_json: bad loc " ^ s))
          | "link" -> (
              match String.index_opt rest '-' with
              | Some j -> (
                  let u = String.sub rest 0 j in
                  let v = String.sub rest (j + 1) (String.length rest - j - 1) in
                  match (int_of_string_opt u, int_of_string_opt v) with
                  | Some u, Some v -> Link (u, v)
                  | _ -> invalid_arg ("Trace.of_json: bad loc " ^ s))
              | None -> invalid_arg ("Trace.of_json: bad loc " ^ s))
          | _ -> invalid_arg ("Trace.of_json: bad loc " ^ s))
      | None -> invalid_arg ("Trace.of_json: bad loc " ^ s)
  in
  let kind =
    match str "kind" with
    | "enqueue" ->
        let msg =
          match str "msg" with
          | "announce" -> Announce
          | "withdraw" -> Withdraw
          | s -> invalid_arg ("Trace.of_json: bad msg " ^ s)
        in
        Enqueue { msg; deliver_at = num "deliver_at" }
    | "deliver" -> Deliver
    | "drop" -> Drop
    | "mrai-defer" ->
        Mrai_defer { until = num "until"; proc = int_of_float (num "proc") }
    | "mrai-flush" -> Mrai_flush { proc = int_of_float (num "proc") }
    | "decision" ->
        Decision
          { old_next = int_opt "old_next";
            new_next = int_opt "new_next";
            cause = str "cause" }
    | "recolor" -> Recolor { color = str "color"; et_ok = boolean "et_ok" }
    | "session-reset" -> Session_reset
    | "session-up" -> Session_up
    | "scenario" -> Scenario_event (str "label")
    | "status" -> Status { status = str "status"; changed = boolean "changed" }
    | "phase" -> Phase (str "name")
    | s -> invalid_arg ("Trace.of_json: unknown kind " ^ s)
  in
  { vtime = num "t";
    seq = int_of_float (num "seq");
    engine = str "engine";
    loc;
    kind }

let pp ppf e =
  Format.fprintf ppf "@[<h>%.6f %s %s %s" e.vtime e.engine (loc_string e.loc)
    (kind_name e.kind);
  (match e.kind with
  | Enqueue { msg; deliver_at } ->
      Format.fprintf ppf " %s deliver_at=%.6f" (msg_kind_string msg) deliver_at
  | Deliver | Drop | Session_reset | Session_up -> ()
  | Mrai_defer { until; proc } ->
      Format.fprintf ppf " proc=%d until=%.6f" proc until
  | Mrai_flush { proc } -> Format.fprintf ppf " proc=%d" proc
  | Decision { old_next; new_next; cause } ->
      let opt = function None -> "-" | Some n -> string_of_int n in
      Format.fprintf ppf " %s->%s (%s)" (opt old_next) (opt new_next) cause
  | Recolor { color; et_ok } ->
      Format.fprintf ppf " color=%s et_ok=%b" color et_ok
  | Scenario_event label -> Format.fprintf ppf " %s" label
  | Status { status; changed } ->
      Format.fprintf ppf " %s%s" status (if changed then " (changed)" else "")
  | Phase name -> Format.fprintf ppf " %s" name);
  Format.fprintf ppf "@]"

let equal_event (a : event) (b : event) =
  a.vtime = b.vtime && a.seq = b.seq && a.engine = b.engine && a.loc = b.loc
  && a.kind = b.kind

let normalize evs =
  let evs = List.map (fun e -> { e with seq = 0 }) evs in
  (* Stable partition into runs of equal vtime, sort each run by the
     serialised form: emission order inside one instant is an artefact of
     hash-table iteration, not semantics. *)
  let rec runs acc cur = function
    | [] -> List.rev (List.rev cur :: acc)
    | e :: rest -> (
        match cur with
        | [] -> runs acc [ e ] rest
        | c :: _ when c.vtime = e.vtime -> runs acc (e :: cur) rest
        | _ -> runs (List.rev cur :: acc) [ e ] rest)
  in
  match evs with
  | [] -> []
  | _ ->
      runs [] [] evs
      |> List.concat_map (fun run ->
             List.sort (fun a b -> compare (to_json a) (to_json b)) run)

let diff a b =
  let rec go i a b acc =
    match (a, b) with
    | [], [] -> List.rev acc
    | x :: a', [] -> go (i + 1) a' [] ((i, Some x, None) :: acc)
    | [], y :: b' -> go (i + 1) [] b' ((i, None, Some y) :: acc)
    | x :: a', y :: b' ->
        if equal_event x y then go (i + 1) a' b' acc
        else go (i + 1) a' b' ((i, Some x, Some y) :: acc)
  in
  go 0 a b []

let mentions_node e n =
  match e.loc with
  | Net -> false
  | Node m -> m = n
  | Link (u, v) -> u = n || v = n
