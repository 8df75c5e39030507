open Helpers
module Search = Pruning_mate.Search
module Term = Pruning_mate.Term
module System = Pruning_cpu.System
module Experiments = Pruning_report.Experiments

(* The Domain-parallel MATE search must not depend on the domain count,
   and its output is pinned byte for byte: any change to the propagation
   semantics of candidate validation shows up as a different report. *)

(* Every field of the report except the timings, one line per wire plus
   one per MATE. *)
let print_report nl (r : Search.report) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (fr : Search.flop_result) ->
      let w = fr.Search.result in
      Printf.bprintf b "%s wire=%d cone=%d options=%d tried=%d" fr.Search.flop.Netlist.flop_name
        w.Search.wire w.Search.cone_size w.Search.n_options w.Search.candidates_tried;
      match w.Search.outcome with
      | Search.Unmaskable -> Buffer.add_string b " unmaskable\n"
      | Search.Mates ms ->
        Printf.bprintf b " mates=%d\n" (List.length ms);
        List.iter (fun t -> Printf.bprintf b "  %s\n" (Term.to_string nl t)) ms)
    r.Search.flop_results;
  Buffer.contents b

let untimed (r : Search.report) =
  ( r.Search.params,
    List.map
      (fun (fr : Search.flop_result) ->
        { fr with Search.result = { fr.Search.result with Search.time_s = 0. } })
      r.Search.flop_results )

let msp_setup = lazy (Experiments.msp_setup ())
let avr_setup = lazy (Experiments.avr_setup ())

let norf_flops (setup : Experiments.setup) =
  Netlist.flops_excluding setup.Experiments.netlist ~prefix:setup.Experiments.rf_prefix

(* The FF-w/o-RF search of a core under [default_params], on one domain;
   trace-seeded from the first [cycles] of fib when [cycles > 0]. *)
let serial_search setup ~cycles =
  let nl = setup.Experiments.netlist in
  let traces =
    if cycles = 0 then []
    else [ System.record ((List.assoc "fib" setup.Experiments.programs) nl) ~cycles ]
  in
  Search.search_flops ~jobs:1 ~traces nl (norf_flops setup)

let search setup ~cycles = lazy (serial_search (Lazy.force setup) ~cycles)
let msp_serial = search msp_setup ~cycles:0

(* Digests of [print_report], as printed by the sequential search that
   re-evaluated every candidate from scratch, with the total candidate
   and MATE counts. *)
let pinned =
  [
    ("msp430 structural", msp_setup, msp_serial, "42079adb315a925801055ad1872b1e84", 203136, 5131);
    ("avr structural", avr_setup, search avr_setup ~cycles:0, "e89b8f6f4d750262eb42a90ea8c3adb5",
     44000, 578);
    ("msp430 seeded (fib, 250 cycles)", msp_setup, search msp_setup ~cycles:250,
     "2555279577037291d546d85aedaec3fe", 333460, 5180);
    ("avr seeded (fib, 250 cycles)", avr_setup, search avr_setup ~cycles:250,
     "bea68ffc822cbadc8e6658a1dd443853", 141378, 613);
  ]

let test_pinned_digests () =
  List.iter
    (fun (name, setup, report, digest, candidates, mates) ->
      let nl = (Lazy.force setup).Experiments.netlist and report = Lazy.force report in
      check_int (name ^ " candidates") candidates (Search.total_candidates report);
      check_int (name ^ " mates") mates (Search.total_mates report);
      check_string (name ^ " report digest") digest
        (Digest.to_hex (Digest.string (print_report nl report))))
    pinned

let test_jobs_independent () =
  let setup = Lazy.force msp_setup in
  let nl = setup.Experiments.netlist and flops = norf_flops setup in
  let serial = Lazy.force msp_serial in
  List.iter
    (fun jobs ->
      let report = Search.search_flops ~jobs nl flops in
      check_bool (Printf.sprintf "jobs:%d report = jobs:1 report" jobs) true
        (untimed report = untimed serial);
      check_string (Printf.sprintf "jobs:%d printed" jobs) (print_report nl serial)
        (print_report nl report))
    [ 2; 5 ]

let test_runtime_is_summed () =
  let report = Lazy.force msp_serial in
  let sum =
    List.fold_left
      (fun acc fr -> acc +. fr.Search.result.Search.time_s)
      0. report.Search.flop_results
  in
  check_bool "runtime_s = sum of per-wire times" true (report.Search.runtime_s = sum);
  check_bool "per-wire times non-negative" true
    (List.for_all (fun fr -> fr.Search.result.Search.time_s >= 0.) report.Search.flop_results)

let test_small_inputs () =
  (* More domains than wires, and no wires at all. *)
  let nl = figure1_seq_netlist () in
  let flops = Array.to_list nl.Netlist.flops in
  let serial = Search.search_flops ~jobs:1 nl flops in
  let wide = Search.search_flops ~jobs:16 nl flops in
  check_bool "jobs:16 = jobs:1" true (untimed wide = untimed serial);
  let empty = Search.search_flops ~jobs:3 nl [] in
  check_int "no wires" 0 (Search.n_faulty_wires empty);
  check_bool "no time" true (empty.Search.runtime_s = 0.)

let suite =
  [
    Alcotest.test_case "FF w/o RF report digests" `Quick test_pinned_digests;
    Alcotest.test_case "report independent of jobs" `Quick test_jobs_independent;
    Alcotest.test_case "runtime is summed per wire" `Quick test_runtime_is_summed;
    Alcotest.test_case "more jobs than wires" `Quick test_small_inputs;
  ]
