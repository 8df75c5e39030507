(* Test helper for test_dist: a worker that completes the handshake,
   takes a chunk lease, and then stalls forever on its first experiment.
   The SIGKILL chaos tests launch it as a real OS process (via
   create_process — Unix.fork is unavailable once domains exist) and
   kill it mid-chunk; it must never submit a single verdict.

   Usage: dist_victim PORT [delta-batched MARKER]. With [delta-batched]
   it runs the AVR delta-batched kernel, so it gathers a whole lease
   window before its first experiment, and creates the file MARKER as
   it stalls — the window is fully leased by then. *)

module Journal = Pruning_fi.Journal
module Campaign = Pruning_fi.Campaign
module Fault_space = Pruning_fi.Fault_space
module Worker = Pruning_fi.Worker
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Programs = Pruning_cpu.Programs

let () =
  let port = int_of_string Sys.argv.(1) in
  let lanes = Array.length Sys.argv > 3 && Sys.argv.(2) = "delta-batched" in
  (* Any engine works: the stall fires before the first injection, so
     the fault list and verdicts of this engine are never used. *)
  let resolve (h : Journal.header) =
    let nl = System.avr_netlist () in
    let program = Avr_asm.assemble Programs.avr_fib_halting in
    let make () = System.create_avr ~netlist:nl ~program "avr/fib" in
    let make_delta_batch ~trace =
      System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib"
    in
    let campaign = Campaign.create ~make ~make_delta_batch ~total_cycles:h.Journal.cycles () in
    let space = Fault_space.full nl ~cycles:h.Journal.cycles in
    let kernel = if lanes then Campaign.Delta_batched else Campaign.Scalar in
    { Worker.campaign; space; skip = None; kernel }
  in
  let stall ~chunk_id:_ ~index:_ ~attempt:_ =
    if lanes then close_out (open_out Sys.argv.(3));
    Unix.sleep 3600
  in
  ignore (Worker.run ~host:"127.0.0.1" ~port ~resolve ~name:"victim" ~fault:stall ())
