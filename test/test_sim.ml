open Helpers

let test_eval_figure1 () =
  let nl = figure1_netlist () in
  let sim = Sim.create nl in
  (* k = (c xor d) and !(a and b); l = (c xor d) or (not e); h = not e *)
  let set name v = Sim.set_port sim name v in
  set "a" 0;
  set "b" 1;
  set "c" 1;
  set "d" 0;
  set "e" 1;
  Sim.eval sim;
  check_int "k" 1 (Sim.get_port sim "k");
  check_int "l" 1 (Sim.get_port sim "l");
  check_int "h" 0 (Sim.get_port sim "h");
  set "a" 1;
  set "e" 0;
  Sim.eval sim;
  check_int "k" 0 (Sim.get_port sim "k");
  check_int "l" 1 (Sim.get_port sim "l");
  check_int "h" 1 (Sim.get_port sim "h")

let test_set_input_validation () =
  let nl = figure1_netlist () in
  let sim = Sim.create nl in
  let k = Netlist.find_wire nl "k" in
  Alcotest.check_raises "not an input" (Invalid_argument "Sim.set_input: k is not a primary input")
    (fun () -> Sim.set_input sim k true)

let test_trace_recording () =
  let nl = counter_netlist () in
  let sim = Sim.create nl in
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  Sim.set_port sim "enable" 1;
  Sim.run sim ~trace ~cycles:10 ();
  check_int "cycles recorded" 10 (Trace.n_cycles trace);
  (* count[0] toggles every cycle while enabled. *)
  let bit0 = Netlist.find_wire nl "count[0]" in
  for cycle = 0 to 9 do
    check_bool
      (Printf.sprintf "count[0] at %d" cycle)
      (cycle land 1 = 1)
      (Trace.get trace ~cycle bit0)
  done;
  (* changed detects toggles. *)
  check_bool "changed at 0" true (Trace.changed trace ~cycle:0 bit0);
  check_bool "changed at 5" true (Trace.changed trace ~cycle:5 bit0);
  let bit3 = Netlist.find_wire nl "count[3]" in
  check_bool "bit3 stable at 5" false (Trace.changed trace ~cycle:5 bit3)

let test_flop_injection () =
  let nl = counter_netlist () in
  let sim = Sim.create nl in
  Sim.set_port sim "enable" 1;
  Sim.run sim ~cycles:3 ();
  Sim.eval sim;
  check_int "count is 3" 3 (Sim.get_port sim "count_o");
  (* Flip bit 2 of the counter: 3 -> 7. *)
  let f = Netlist.find_flop nl "count[2]" in
  Sim.set_flop sim f.Netlist.flop_id (not (Sim.get_flop sim f.Netlist.flop_id));
  Sim.eval sim;
  check_int "after SEU" 7 (Sim.get_port sim "count_o")

let test_save_restore () =
  let nl = counter_netlist () in
  let sim = Sim.create nl in
  Sim.set_port sim "enable" 1;
  Sim.run sim ~cycles:5 ();
  Sim.eval sim;
  let restore = Sim.save_state sim in
  let before = Sim.get_port sim "count_o" in
  Sim.run sim ~cycles:7 ();
  Sim.eval sim;
  check_bool "state advanced" true (Sim.get_port sim "count_o" <> before);
  restore ();
  Sim.eval sim;
  check_int "restored" before (Sim.get_port sim "count_o");
  check_int "cycle restored" 5 (Sim.cycle sim)

let test_device_rom () =
  (* A circuit that asks a device for data: addr register feeds a "ROM"
     device that answers combinationally. *)
  let open Signal in
  let c = create_circuit "romtest" in
  let data = input c "data" 8 in
  let addr = reg c "addr" 4 in
  connect addr (q addr +: const c ~width:4 1);
  output c "addr_o" (q addr);
  output c "data_o" data;
  let nl = Synth.to_netlist c in
  let sim = Sim.create nl in
  let addr_port = Netlist.find_output_port nl "addr_o" in
  let data_port = Netlist.find_input_port nl "data" in
  let rom_value a = (a * 3 + 1) land 0xFF in
  let device =
    Sim.pure_device "rom" (fun read write ->
        let a = ref 0 in
        Array.iteri
          (fun i w -> if read w then a := !a lor (1 lsl i))
          addr_port.Netlist.port_wires;
        let v = rom_value !a in
        Array.iteri
          (fun i w -> write w (v land (1 lsl i) <> 0))
          data_port.Netlist.port_wires)
  in
  Sim.add_device sim device;
  for i = 0 to 9 do
    Sim.eval sim;
    check_int (Printf.sprintf "addr %d" i) (i land 15) (Sim.get_port sim "addr_o");
    check_int (Printf.sprintf "data %d" i) (rom_value (i land 15)) (Sim.get_port sim "data_o");
    Sim.latch sim
  done

let test_device_state_save () =
  (* A device with internal state: an accumulator that sums the port value
     every clock, exercised by save/restore. *)
  let open Signal in
  let c = create_circuit "acc" in
  let r = reg c "r" 4 in
  connect r (q r +: const c ~width:4 1);
  output c "v" (q r);
  let nl = Synth.to_netlist c in
  let sim = Sim.create nl in
  let total = ref 0 in
  let port = Netlist.find_output_port nl "v" in
  let device =
    {
      Sim.dev_name = "accumulator";
      dev_comb = (fun _ _ -> ());
      dev_clock =
        (fun read ->
          let v = ref 0 in
          Array.iteri (fun i w -> if read w then v := !v lor (1 lsl i)) port.Netlist.port_wires;
          total := !total + !v);
      dev_save =
        (fun () ->
          let saved = !total in
          fun () -> total := saved);
    }
  in
  Sim.add_device sim device;
  Sim.run sim ~cycles:4 ();
  (* 0+1+2+3 *)
  check_int "sum after 4" 6 !total;
  let restore = Sim.save_state sim in
  Sim.run sim ~cycles:2 ();
  check_int "sum after 6" 15 !total;
  restore ();
  check_int "sum restored" 6 !total;
  Sim.run sim ~cycles:2 ();
  check_int "sum replayed" 15 !total

let test_counter_netlist_trace_vs_sim () =
  (* The trace row equals simulator wire values at each recorded cycle. *)
  let nl = counter_netlist () in
  let sim = Sim.create nl in
  Sim.set_port sim "enable" 1;
  let trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  Sim.run sim ~trace ~cycles:6 ();
  let sim2 = Sim.create nl in
  Sim.set_port sim2 "enable" 1;
  for cycle = 0 to 5 do
    Sim.eval sim2;
    let row = Trace.row trace ~cycle in
    Array.iteri
      (fun w expected ->
        check_bool
          (Printf.sprintf "wire %s cycle %d" (Netlist.wire_name nl w) cycle)
          expected (Sim.peek sim2 w))
      row;
    Sim.latch sim2
  done

(* [Sim.eval] re-evaluates only the gates downstream of a primary input
   on device rounds. Property: on random small netlists with a
   combinational device driving primary inputs from other wires, every
   wire after [Sim.eval] equals a full-netlist fixed point computed here
   from scratch. Input j is driven only from a wire whose input support
   lies in inputs < j, so the fixed point exists and is unique. *)
let prop_device_rounds_fixed_point =
  QCheck2.Test.make ~name:"sim: device rounds = full-netlist fixed point" ~count:300
    QCheck2.Gen.(pair int (int_range 1 6))
    (fun (seed, cycles) ->
      let rng = Prng.create seed in
      let nl = Test_mate.random_netlist rng 0 in
      let n_wires = Netlist.n_wires nl in
      let inputs =
        Array.of_list
          (List.map (fun (p : Netlist.port) -> p.Netlist.port_wires.(0)) nl.Netlist.inputs)
      in
      let support = Array.make n_wires 0 in
      Array.iteri (fun i w -> support.(w) <- 1 lsl i) inputs;
      Array.iter
        (fun gid ->
          let g = nl.Netlist.gates.(gid) in
          support.(g.Netlist.output) <-
            Array.fold_left (fun acc w -> acc lor support.(w)) 0 g.Netlist.inputs)
        nl.Netlist.topo;
      let drives =
        List.filter_map
          (fun j ->
            if Prng.bool rng then None
            else begin
              let below = (1 lsl j) - 1 in
              let sources =
                List.filter (fun w -> support.(w) land lnot below = 0) (List.init n_wires Fun.id)
              in
              Some (inputs.(j), Prng.pick rng sources, Prng.bool rng)
            end)
          (List.init (Array.length inputs) Fun.id)
      in
      let driven w = List.exists (fun (i, _, _) -> i = w) drives in
      let sim = Sim.create nl in
      Sim.add_device sim
        (Sim.pure_device "driver" (fun read write ->
             List.iter (fun (i, src, inv) -> write i (read src <> inv)) drives));
      (* Reference: flop Qs and free inputs as the simulator holds them,
         driven inputs from an arbitrary start, then whole-netlist passes
         and device writes until nothing changes. *)
      let reference () =
        let v = Array.init n_wires (fun w -> if driven w then false else Sim.peek sim w) in
        let rec settle rounds =
          if rounds > 10 then failwith "reference failed to settle";
          Array.iter
            (fun gid ->
              let g = nl.Netlist.gates.(gid) in
              v.(g.Netlist.output) <-
                Cell.eval g.Netlist.cell (Array.map (fun w -> v.(w)) g.Netlist.inputs))
            nl.Netlist.topo;
          let changed = ref false in
          List.iter
            (fun (i, src, inv) ->
              let x = v.(src) <> inv in
              if v.(i) <> x then begin
                v.(i) <- x;
                changed := true
              end)
            drives;
          if !changed then settle (rounds + 1)
        in
        settle 0;
        v
      in
      let ok = ref true in
      for _ = 1 to cycles do
        Array.iter (fun w -> if not (driven w) then Sim.set_input sim w (Prng.bool rng)) inputs;
        Sim.eval sim;
        let want = reference () in
        Array.iteri (fun w x -> if Sim.peek sim w <> x then ok := false) want;
        Sim.latch sim
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "combinational eval" `Quick test_eval_figure1;
    Alcotest.test_case "set_input validation" `Quick test_set_input_validation;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
    Alcotest.test_case "flop SEU injection" `Quick test_flop_injection;
    Alcotest.test_case "save/restore" `Quick test_save_restore;
    Alcotest.test_case "combinational ROM device" `Quick test_device_rom;
    Alcotest.test_case "device state in snapshots" `Quick test_device_state_save;
    Alcotest.test_case "trace matches live simulation" `Quick test_counter_netlist_trace_vs_sim;
    QCheck_alcotest.to_alcotest prop_device_rounds_fixed_point;
  ]
