(** The fault space of a HAFI campaign. Historically (flip-flops x clock
    cycles), per the paper's system model: an SEU manifests as a state
    flip of one flip-flop in one cycle. With first-class fault models
    the space generalizes to (keys x cycles), where the {!Fault_model.t}
    decides what a key ranges over ({!draw_key}) and what corruption it
    denotes ({!expand}, {!hold}). [Seu] keys are netlist flop ids, so
    SEU campaigns are bit-identical to the historical behavior. *)

type t = {
  netlist : Pruning_netlist.Netlist.t;
  flops : Pruning_netlist.Netlist.flop array;  (** flops under injection *)
  cycles : int;
  index : int array;
      (** flop_id -> dense flop index, [-1] for flops outside the space
          (precomputed so {!flop_index} is O(1)) *)
  model : Fault_model.t;  (** the fault model this space enumerates *)
  cone_cache : (int, int array) Hashtbl.t;
      (** per-gate SET expansion cache; guard with [cone_lock] *)
  cone_lock : Mutex.t;
}

val full : ?model:Fault_model.t -> Pruning_netlist.Netlist.t -> cycles:int -> t
(** Every flip-flop ("FF" in the paper's tables). [model] defaults to
    [Seu]; raises [Invalid_argument] for an invalid model (e.g. an MBU
    cluster larger than the flop count). *)

val without_prefix :
  ?model:Fault_model.t -> Pruning_netlist.Netlist.t -> prefix:string -> cycles:int -> t
(** Excluding a named register bank, e.g. the register file ("FF w/o RF"). *)

val only_prefix :
  ?model:Fault_model.t -> Pruning_netlist.Netlist.t -> prefix:string -> cycles:int -> t
(** Only a named register bank, e.g. the register file: the complement
    of {!without_prefix}. *)

val n_keys : t -> int
(** Distinct fault keys the model enumerates: |flops| for [Seu] and
    [Intermittent], |gates| for [Set], |flops| - K + 1 for [Mbu K]. *)

val size : t -> int
(** {!n_keys} x cycles. *)

val flop_index : t -> int -> int option
(** Map a netlist [flop_id] to this space's dense flop index. *)

val draw_key : t -> int -> int
(** The key for a uniform draw [i] in [0, {!n_keys}): the netlist flop
    id for flop-keyed models (preserving historical SEU sampling), the
    gate index for [Set], the cluster start position for [Mbu]. *)

val expand : t -> int -> int array
(** The netlist flop ids a key corrupts at the injection cycle: the
    key itself for [Seu]/[Intermittent], the flops latching from the
    gate's output cone for [Set] (possibly empty — a pulse nothing
    latches, trivially benign), the K adjacent flops for [Mbu K]. SET
    expansions are cached per gate and safe to query concurrently. *)

val hold : t -> int
(** Cycles the fault is re-armed for: N for [Intermittent N], else 1. *)

val lift_pruned : t -> pruned:(flop_id:int -> cycle:int -> bool) -> flop_id:int -> cycle:int -> bool
(** Lift a per-(flop, cycle) SEU prune predicate to this model's keys
    ([~flop_id] is the fault {e key}). Sound by construction: prunes
    only instances provably equivalent to covered SEUs — pass-through
    for [Seu]; every forced cycle masked for [Intermittent]; singleton
    expansions only for [Set]; never for [Mbu K >= 2] (one-cycle
    masking terms do not compose across simultaneous flips). *)

val lift_masking :
  t -> masking:(flop_id:int -> cycle:int -> 'a list) -> flop_id:int -> cycle:int -> 'a list
(** The violation-attribution counterpart of {!lift_pruned}: the union
    of the per-member, per-forced-cycle masking terms the lifted prune
    rests on. *)
