module Netlist = Pruning_netlist.Netlist
module Cell = Pruning_cell.Cell

type reader = Netlist.wire -> bool
type writer = Netlist.wire -> bool -> unit

type device = {
  dev_name : string;
  dev_comb : reader -> writer -> unit;
  dev_clock : reader -> unit;
  dev_save : unit -> unit -> unit;
}

let pure_device name dev_comb =
  { dev_name = name; dev_comb; dev_clock = (fun _ -> ()); dev_save = (fun () () -> ()) }

(* Gates flattened for the inner loop: truth table + wire indices. *)
type packed_gate = {
  table : int;
  g_inputs : int array;
  g_output : int;
}

type t = {
  nl : Netlist.t;
  values : bool array;
  is_input : bool array;
  packed : packed_gate array; (* in topological order *)
  input_cone : packed_gate array;
      (* the gates downstream of a primary input, in topological order:
         the only gates a device round can change *)
  latch_buf : bool array; (* scratch for the two-phase flop update *)
  mutable devices_rev : device list; (* newest first; O(1) attach *)
  mutable devices_ord : device list option; (* cached attach order *)
  mutable cyc : int;
}

let create nl =
  let nw = Netlist.n_wires nl in
  let values = Array.make nw false in
  Array.iter (fun (f : Netlist.flop) -> values.(f.q) <- f.init) nl.Netlist.flops;
  let is_input = Array.make nw false in
  List.iter
    (fun (p : Netlist.port) -> Array.iter (fun w -> is_input.(w) <- true) p.Netlist.port_wires)
    nl.Netlist.inputs;
  let packed =
    Array.map
      (fun gid ->
        let g = nl.Netlist.gates.(gid) in
        { table = g.Netlist.cell.Cell.table; g_inputs = g.Netlist.inputs; g_output = g.Netlist.output })
      nl.Netlist.topo
  in
  let tainted = Array.copy is_input in
  let input_cone =
    Array.of_list
      (Array.fold_left
         (fun acc g ->
           if Array.exists (fun w -> tainted.(w)) g.g_inputs then begin
             tainted.(g.g_output) <- true;
             g :: acc
           end
           else acc)
         [] packed
      |> List.rev)
  in
  {
    nl;
    values;
    is_input;
    packed;
    input_cone;
    latch_buf = Array.make (Netlist.n_flops nl) false;
    devices_rev = [];
    devices_ord = None;
    cyc = 0;
  }

let netlist t = t.nl
let cycle t = t.cyc

let devices t =
  match t.devices_ord with
  | Some ds -> ds
  | None ->
    let ds = List.rev t.devices_rev in
    t.devices_ord <- Some ds;
    ds

let add_device t d =
  t.devices_rev <- d :: t.devices_rev;
  t.devices_ord <- None

let set_input t w v =
  if not t.is_input.(w) then
    invalid_arg (Printf.sprintf "Sim.set_input: %s is not a primary input" (Netlist.wire_name t.nl w));
  t.values.(w) <- v

let peek t w = t.values.(w)

let set_port t name value =
  let port = Netlist.find_input_port t.nl name in
  Array.iteri (fun i w -> set_input t w (value land (1 lsl i) <> 0)) port.Netlist.port_wires

let get_port t name =
  let port =
    try Netlist.find_output_port t.nl name
    with Not_found -> Netlist.find_input_port t.nl name
  in
  let v = ref 0 in
  Array.iteri (fun i w -> if t.values.(w) then v := !v lor (1 lsl i)) port.Netlist.port_wires;
  !v

let eval_gates values gates =
  Array.iter
    (fun g ->
      let pattern = ref 0 in
      let ins = g.g_inputs in
      for j = 0 to Array.length ins - 1 do
        if values.(ins.(j)) then pattern := !pattern lor (1 lsl j)
      done;
      values.(g.g_output) <- g.table land (1 lsl !pattern) <> 0)
    gates

let max_device_rounds = 5

let eval t =
  eval_gates t.values t.packed;
  if t.devices_rev <> [] then begin
    let changed = ref true in
    let rounds = ref 0 in
    let reader w = t.values.(w) in
    let writer w v =
      if not t.is_input.(w) then
        invalid_arg
          (Printf.sprintf "Sim device: %s is not a primary input" (Netlist.wire_name t.nl w));
      if t.values.(w) <> v then begin
        t.values.(w) <- v;
        changed := true
      end
    in
    while !changed do
      changed := false;
      List.iter (fun d -> d.dev_comb reader writer) (devices t);
      if !changed then begin
        incr rounds;
        if !rounds > max_device_rounds then
          failwith "Sim.eval: device inputs failed to stabilize";
        (* Devices drive only primary inputs, so every gate outside the
           input cone already holds its settled value. *)
        eval_gates t.values t.input_cone
      end
    done
  end

let latch t =
  let reader w = t.values.(w) in
  List.iter (fun d -> d.dev_clock reader) (devices t);
  let flops = t.nl.Netlist.flops in
  let n = Array.length flops in
  let next = t.latch_buf in
  for i = 0 to n - 1 do
    next.(i) <- t.values.(flops.(i).Netlist.d)
  done;
  for i = 0 to n - 1 do
    t.values.(flops.(i).Netlist.q) <- next.(i)
  done;
  t.cyc <- t.cyc + 1

let record_row t trace = Trace.append trace t.values

let step t ?trace () =
  eval t;
  Option.iter (record_row t) trace;
  latch t

let run t ?trace ~cycles () =
  for _ = 1 to cycles do
    step t ?trace ()
  done

let get_flop t fid = t.values.(t.nl.Netlist.flops.(fid).Netlist.q)
let set_flop t fid v = t.values.(t.nl.Netlist.flops.(fid).Netlist.q) <- v

let save_state t =
  let values = Array.copy t.values in
  let cyc = t.cyc in
  let device_restores = List.map (fun d -> d.dev_save ()) (devices t) in
  fun () ->
    Array.blit values 0 t.values 0 (Array.length values);
    t.cyc <- cyc;
    List.iter (fun restore -> restore ()) device_restores
