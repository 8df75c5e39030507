(** Cycle-accurate netlist simulator.

    Two-phase semantics per clock cycle: {!eval} stabilizes the
    combinational logic (including attached {!device}s, to a fixed point),
    then {!latch} clocks every flip-flop with the value on its D wire and
    lets devices perform their clocked side effects (e.g. RAM writes).

    Devices model the circuit's environment — instruction ROM, data RAM,
    output monitors. A device's combinational callback may read any wire
    and drive primary-input wires; the simulator iterates until the inputs
    stop changing (diverging devices raise [Failure] after a few rounds).

    The simulator doubles as the hardware-assisted fault-injection (HAFI)
    platform stand-in: {!set_flop} flips state bits mid-run, and
    {!save_state}/restore snapshots support the one-cycle masking oracle. *)

type t

type reader = Pruning_netlist.Netlist.wire -> bool
type writer = Pruning_netlist.Netlist.wire -> bool -> unit

type device = {
  dev_name : string;
  dev_comb : reader -> writer -> unit;
      (** Combinational response: read outputs, drive primary inputs. *)
  dev_clock : reader -> unit;
      (** Clocked side effect, runs at the latch edge with pre-latch wire
          values. *)
  dev_save : unit -> unit -> unit;
      (** [dev_save ()] captures internal state and returns a restorer. *)
}

val pure_device : string -> (reader -> writer -> unit) -> device
(** A stateless combinational device. *)

val create : Pruning_netlist.Netlist.t -> t
(** Fresh simulator; flip-flops start at their [init] values, primary
    inputs at 0. *)

val netlist : t -> Pruning_netlist.Netlist.t
val cycle : t -> int

val add_device : t -> device -> unit

val set_input : t -> Pruning_netlist.Netlist.wire -> bool -> unit
(** Drive a primary-input wire. Raises [Invalid_argument] for wires not
    driven by a primary input. *)

val peek : t -> Pruning_netlist.Netlist.wire -> bool
(** Value of any wire as of the last {!eval}. *)

val set_port : t -> string -> int -> unit
(** Drive a whole input port with an integer (LSB-first). *)

val get_port : t -> string -> int
(** Read a whole output (or input) port as an integer. *)

val eval : t -> unit
(** Stabilize combinational logic and devices for the current cycle: one
    full netlist pass, then — while devices keep changing primary
    inputs — re-evaluation of just the gates downstream of a primary
    input (the rest cannot change). *)

val latch : t -> unit
(** Clock edge: run device clocked hooks, update every flip-flop from its
    D wire, advance the cycle counter. Call after {!eval}. *)

val record_row : t -> Trace.t -> unit
(** Append every wire's current value to [trace] as its next row. Call
    after {!eval}. *)

val step : t -> ?trace:Trace.t -> unit -> unit
(** [eval]; optionally {!record_row} into [trace]; [latch]. *)

val run : t -> ?trace:Trace.t -> cycles:int -> unit -> unit

val get_flop : t -> int -> bool
(** Current Q value of a flop (by [flop_id]). *)

val set_flop : t -> int -> bool -> unit
(** Overwrite a flop's Q value — the SEU injection primitive. Takes effect
    on the next {!eval}. *)

val save_state : t -> unit -> unit
(** Capture flop values, input values, cycle count and device states
    (every attached device's [dev_save], which for memory devices covers
    their RAM backing); returns a restorer closure. Snapshots are the
    basis of the masking oracle and of campaign checkpointing. *)
