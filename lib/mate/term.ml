module Netlist = Pruning_netlist.Netlist

type literal = {
  wire : Netlist.wire;
  value : bool;
}

type t = literal list

let always_true = []

let of_literals pairs =
  let sorted = List.sort_uniq compare (List.map (fun (wire, value) -> { wire; value }) pairs) in
  let rec consistent = function
    | a :: (b :: _ as rest) -> if a.wire = b.wire then None else consistent rest
    | [ _ ] | [] -> Some sorted
  in
  consistent sorted

exception Contradiction

(* Both sides are normalized, so merging them keeps the result sorted
   with each wire at most once. *)
let conjoin a b =
  let rec merge a b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: a', y :: b' ->
      if x.wire < y.wire then x :: merge a' b
      else if y.wire < x.wire then y :: merge a b'
      else if x.value = y.value then x :: merge a' b'
      else raise_notrace Contradiction
  in
  match merge a b with
  | t -> Some t
  | exception Contradiction -> None

let holds t valuation = List.for_all (fun l -> valuation l.wire = l.value) t

let literals t = t
let inputs t = List.map (fun l -> l.wire) t
let n_inputs t = List.length t
let compare = Stdlib.compare
let equal a b = compare a b = 0

let hash t =
  List.fold_left (fun h l -> ((h * 31) + (2 * l.wire) + Bool.to_int l.value) land max_int) 17 t

let to_string nl t =
  match t with
  | [] -> "(true)"
  | _ ->
    let literal l = (if l.value then "" else "!") ^ Netlist.wire_name nl l.wire in
    "(" ^ String.concat " & " (List.map literal t) ^ ")"
