(** Fault-masking terms over netlist wires.

    A term is a conjunction of wire literals (wire = 0 / wire = 1),
    normalized: sorted by wire index, each wire at most once. A MATE is
    such a term over the border wires of a fault cone; when it holds in a
    cycle of the fault-free execution, the corresponding faults are benign
    (Section 3 of the paper). *)

type literal = {
  wire : Pruning_netlist.Netlist.wire;
  value : bool;
}

type t = private literal list
(** Normalized conjunction; the empty list is the always-true term. *)

val of_literals : (Pruning_netlist.Netlist.wire * bool) list -> t option
(** Normalize; [None] when contradictory (some wire required both 0 and
    1). Duplicate consistent literals collapse. *)

val always_true : t

val conjoin : t -> t -> t option
(** Conjunction, [None] on contradiction. *)

val holds : t -> (Pruning_netlist.Netlist.wire -> bool) -> bool
(** Evaluate under a wire valuation. *)

val literals : t -> literal list
val inputs : t -> Pruning_netlist.Netlist.wire list
(** Distinct wires mentioned (the MATE's hardware inputs). *)

val n_inputs : t -> int
val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : Pruning_netlist.Netlist.t -> t -> string
(** e.g. ["(!f & h)"] with netlist wire names. *)

val hash : t -> int
(** A hash over every literal, consistent with {!equal} (the generic
    [Hashtbl.hash] only looks at a term's first few literals). *)
