(* The distributed campaign layer: wire-protocol framing (round-trip,
   truncation, corruption, malformed messages), and coordinator/worker
   chaos paths — stats parity distributed-vs-local on both cores and
   both engines, straggler lease re-dispatch with duplicate dedup, a
   SIGKILLed worker mid-chunk, coordinator kill/resume from its journal,
   and protocol-violating clients that must never corrupt a campaign. *)

open Helpers
module Campaign = Pruning_fi.Campaign
module Durable = Pruning_fi.Durable
module Fault_space = Pruning_fi.Fault_space
module Journal = Pruning_fi.Journal
module Proto = Pruning_fi.Proto
module Coordinator = Pruning_fi.Coordinator
module Worker = Pruning_fi.Worker
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Term = Pruning_mate.Term

let check_stats label (a : Campaign.stats) (b : Campaign.stats) =
  check_int (label ^ ": injections") a.Campaign.injections b.Campaign.injections;
  check_int (label ^ ": benign") a.Campaign.benign b.Campaign.benign;
  check_int (label ^ ": latent") a.Campaign.latent b.Campaign.latent;
  check_int (label ^ ": sdc") a.Campaign.sdc b.Campaign.sdc;
  check_int (label ^ ": skipped") a.Campaign.skipped b.Campaign.skipped;
  check_int (label ^ ": crashed") a.Campaign.crashed b.Campaign.crashed

let scratch_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_dir () =
  incr scratch_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pruning-dist-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rm_rf d;
  d

(* --- wire protocol: frames and messages ------------------------------ *)

let sample_header =
  {
    Journal.core = "avr";
    program = "fib";
    cycles = 120;
    seed = 42;
    samples = 10;
    prune = true;
    audit = 0.;
    shards = 0;
    batched = false;
    epoch = 0;
    fault_model = Pruning_fi.Fault_model.Seu;
    prng = Prng.save (Prng.create 42);
    shard_prng = [||];
  }

let all_msgs =
  [
    Proto.Hello { version = Proto.version; name = "worker-1"; epoch = -1 };
    Proto.Welcome { header = sample_header; suspicion = 2 };
    Proto.Request;
    Proto.Assign
      { Proto.chunk_id = 3; lo = 12; hi = 15; model = 0; model_param = 0; purpose = Proto.Data };
    Proto.Wait;
    Proto.Results
      {
        chunk_id = 3;
        results =
          [|
            (12, Journal.Benign);
            (13, Journal.Latent);
            (14, Journal.Sdc 37);
            (15, Journal.Skipped);
            (16, Journal.Crashed);
          |];
      };
    Proto.Chunk_done { chunk_id = 3 };
    Proto.Heartbeat;
    Proto.Done;
  ]

let test_msg_round_trip () =
  List.iteri
    (fun i m ->
      check_bool (Printf.sprintf "msg %d round-trips" i) true (Proto.decode (Proto.encode m) = m))
    all_msgs

(* The streaming decoder must reassemble frames regardless of how the
   byte stream is sliced — including one byte at a time. *)
let test_decoder_streaming () =
  let wire = String.concat "" (List.map (fun m -> Proto.encode_frame (Proto.encode m)) all_msgs) in
  let run_with step =
    let d = Proto.decoder () in
    let got = ref [] in
    let i = ref 0 in
    while !i < String.length wire do
      let n = min step (String.length wire - !i) in
      Proto.feed d (Bytes.of_string (String.sub wire !i n)) n;
      i := !i + n;
      let continue = ref true in
      while !continue do
        match Proto.next_frame d with
        | None -> continue := false
        | Some payload -> got := Proto.decode payload :: !got
      done
    done;
    check_bool (Printf.sprintf "all frames at step %d" step) true (List.rev !got = all_msgs)
  in
  List.iter run_with [ 1; 3; 7; String.length wire ]

let test_frame_corruption () =
  let frame = Proto.encode_frame (Proto.encode Proto.Request) in
  (* Flip one payload bit: the CRC must catch it. *)
  let corrupt = Bytes.of_string frame in
  Bytes.set corrupt 8 (Char.chr (Char.code (Bytes.get corrupt 8) lxor 0x40));
  let d = Proto.decoder () in
  Proto.feed d corrupt (Bytes.length corrupt);
  (match Proto.next_frame d with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "corrupt frame must raise");
  (* A length field beyond the cap is rejected before any allocation. *)
  let huge = Bytes.make 8 '\xff' in
  let d = Proto.decoder () in
  Proto.feed d huge 8;
  match Proto.next_frame d with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "oversized frame length must raise"

let test_frame_sockets () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  List.iter (fun m -> Proto.send a m) all_msgs;
  List.iteri
    (fun i m -> check_bool (Printf.sprintf "socket msg %d" i) true (Proto.recv b = m))
    all_msgs;
  (* Clean EOF at a frame boundary is Closed, not an error... *)
  Unix.close a;
  (match Proto.recv b with
  | exception Proto.Closed -> ()
  | _ -> Alcotest.fail "EOF at boundary must raise Closed");
  Unix.close b;
  (* ...but EOF mid-frame is a truncation error. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame =
    Proto.encode_frame
      (Proto.encode
         (Proto.Assign
            { chunk_id = 1; lo = 0; hi = 9; model = 0; model_param = 0; purpose = Proto.Data }))
  in
  let partial = String.sub frame 0 (String.length frame - 2) in
  ignore (Unix.write_substring a partial 0 (String.length partial));
  Unix.close a;
  (match Proto.recv b with
  | exception Proto.Error _ -> ()
  | _ -> Alcotest.fail "EOF mid-frame must raise Error");
  Unix.close b

let test_malformed_messages () =
  let expect_error label s =
    match Proto.decode s with
    | exception Proto.Error _ -> ()
    | _ -> Alcotest.fail (label ^ " must raise")
  in
  expect_error "empty" "";
  expect_error "unknown tag" "Z";
  expect_error "trailing garbage" (Proto.encode Proto.Request ^ "x");
  expect_error "truncated Assign" "A\x01\x00\x00";
  (* A Results header claiming more entries than the payload could hold. *)
  expect_error "absurd results count" "r\x00\x00\x00\x00\xff\xff\xff\x00";
  expect_error "unknown outcome kind"
    "r\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x09\x00\x00\x00\x00";
  expect_error "bad Welcome header" "W\x03\x00\x00\x00abc"

(* --- coordinator/worker integration ---------------------------------- *)

let toy_cycles = 8
let toy_n = 60
let toy_seed = 21

let toy_parts () =
  let nl = figure1_seq_netlist () in
  let make () =
    {
      System.kind = System.Avr;
      name = "toy";
      netlist = nl;
      sim = Sim.create nl;
      ram = [||];
      rf_prefix = "!none";
    }
  in
  let space = Fault_space.full nl ~cycles:toy_cycles in
  let campaign = Campaign.create ~make ~total_cycles:toy_cycles () in
  (nl, make, space, campaign)

let toy_engine ?skip () =
  let _, _, space, campaign = toy_parts () in
  { Worker.campaign; space; skip; kernel = Campaign.Scalar }

(* One MATE claiming flop [a] always benign — honestly prunable in this
   circuit, and rebuilt deterministically by every worker. *)
let toy_prune_skip () =
  let nl, make, space, _ = toy_parts () in
  let a = ref (-1) in
  Array.iter
    (fun (f : Netlist.flop) -> if f.Netlist.flop_name = "a" then a := f.Netlist.flop_id)
    nl.Netlist.flops;
  let set = Mateset.build [ (!a, [ Term.always_true ]) ] in
  let trace = System.record (make ()) ~cycles:toy_cycles in
  let triggers = Replay.triggers set trace in
  let p = Replay.pruner set triggers ~space () in
  fun ~flop_id ~cycle -> Replay.pruned p ~flop_id ~cycle

let make_header ?(core = "toy") ?(program = "toy") ?(cycles = toy_cycles) ?(samples = toy_n)
    ?(seed = toy_seed) ?(prune = false) () =
  {
    Journal.core;
    program;
    cycles;
    seed;
    samples;
    prune;
    audit = 0.;
    shards = 0;
    batched = false;
    epoch = 0;
    fault_model = Pruning_fi.Fault_model.Seu;
    prng = Prng.save (Prng.create seed);
    shard_prng = [||];
  }

let test_config =
  {
    Coordinator.default_config with
    Coordinator.chunk_size = 4;
    lease = 5.;
    tick = 0.01;
    drain = 10.;
  }

(* Thread-collected events, and serve/work running off the main thread. *)
let event_log () =
  let lock = Mutex.create () in
  let events = ref [] in
  let push e =
    Mutex.lock lock;
    events := e :: !events;
    Mutex.unlock lock
  in
  let all () =
    Mutex.lock lock;
    let es = List.rev !events in
    Mutex.unlock lock;
    es
  in
  (push, all)

let wait_for ?(timeout = 20.) pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.yield ();
    Unix.sleepf 0.01
  done;
  if not (pred ()) then Alcotest.fail ("timed out waiting for " ^ what)

let serve_bg coord ~header ?journal ?resume ?should_stop ?on_event () =
  let result = ref None in
  let thread =
    Thread.create
      (fun () ->
        result :=
          Some
            (match Coordinator.serve coord ~header ?journal ?resume ?should_stop ?on_event () with
            | r -> Ok r
            | exception e -> Error e))
      ()
  in
  let join () =
    Thread.join thread;
    match !result with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None -> assert false
  in
  join

let work_bg ~port ~name ~resolve ?retry_backoff ?reconnect_backoff ?max_reconnects
    ?results_per_frame ?heartbeat ?fault () =
  let report = ref None in
  let thread =
    Thread.create
      (fun () ->
        report :=
          Some
            (match
               Worker.run ~host:"127.0.0.1" ~port ~resolve ~name ?retry_backoff ?reconnect_backoff
                 ?max_reconnects ?results_per_frame ?heartbeat ?fault ()
             with
            | r -> Ok r
            | exception e -> Error e))
      ()
  in
  let join () =
    Thread.join thread;
    match !report with
    | Some (Ok r) -> r
    | Some (Error e) -> raise e
    | None -> assert false
  in
  join

let toy_reference ?skip () =
  let _, _, space, campaign = toy_parts () in
  Campaign.run_sample campaign ~space ~rng:(Prng.create toy_seed) ~n:toy_n ?skip ()

(* Plain fleet, no chaos: three workers must reproduce the local stats
   bit-for-bit, with and without a deterministic pruner on every node. *)
let test_parity_toy () =
  List.iter
    (fun prune ->
      let reference =
        toy_reference ?skip:(if prune then Some (toy_prune_skip ()) else None) ()
      in
      let coord = Coordinator.create ~config:test_config () in
      let port = Coordinator.port coord in
      let join = serve_bg coord ~header:(make_header ~prune ()) () in
      let workers =
        List.init 3 (fun i ->
            work_bg ~port
              ~name:(Printf.sprintf "w%d" i)
              ~resolve:(fun _ ->
                toy_engine ?skip:(if prune then Some (toy_prune_skip ()) else None) ())
              ())
      in
      let reports = List.map (fun j -> j ()) workers in
      let r = join () in
      let label = if prune then "toy pruned" else "toy" in
      check_bool (label ^ ": completed") true r.Coordinator.completed;
      check_int (label ^ ": workers") 3 r.Coordinator.workers;
      check_int (label ^ ": mismatches") 0 r.Coordinator.mismatches;
      check_stats label reference r.Coordinator.stats;
      List.iter
        (fun rep -> check_bool (label ^ ": worker done") true (rep.Worker.ended = Worker.Campaign_done))
        reports;
      check_bool (label ^ ": all samples submitted once or more") true
        (List.fold_left (fun acc rep -> acc + rep.Worker.submitted) 0 reports >= toy_n);
      if prune then check_bool (label ^ ": something pruned") true (reference.Campaign.skipped > 0))
    [ false; true ]

(* A real core's fault space and campaign at [cycles], with every
   engine enabled. *)
let core_build (nl, make, make_lanes, make_delta, make_delta_batch) ~cycles =
  let space = Fault_space.full nl ~cycles in
  let campaign =
    Campaign.create ~make ~make_lanes ~make_delta ~make_delta_batch ~total_cycles:cycles ()
  in
  (space, campaign)

let core_engine makers ?skip kernel _ =
  let space, campaign = core_build makers ~cycles:120 in
  { Worker.campaign; space; skip; kernel }

(* Distributed-vs-local parity on the real cores, with a mixed fleet:
   one scalar, one batched, one delta and one delta-batched worker
   (their verdicts are bit-identical, so mixing kernels is legal). *)
let check_parity_core label makers =
  let n = 200 in
  let seed = 7 in
  let reference =
    let space, campaign = core_build makers ~cycles:120 in
    Campaign.run_sample campaign ~space ~rng:(Prng.create seed) ~n ()
  in
  let config = { test_config with Coordinator.chunk_size = 16 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let header = make_header ~core:label ~program:"fib" ~cycles:120 ~samples:n ~seed () in
  let join = serve_bg coord ~header () in
  let engine kernel = core_engine makers kernel in
  let w1 = work_bg ~port ~name:"scalar" ~resolve:(engine Campaign.Scalar) () in
  let w2 = work_bg ~port ~name:"batched" ~resolve:(engine Campaign.Batched) () in
  let w3 = work_bg ~port ~name:"delta" ~resolve:(engine Campaign.Delta) () in
  let w4 = work_bg ~port ~name:"delta-batched" ~resolve:(engine Campaign.Delta_batched) () in
  let reports = [ w1 (); w2 (); w3 (); w4 () ] in
  let r = join () in
  check_bool (label ^ ": completed") true r.Coordinator.completed;
  check_int (label ^ ": mismatches") 0 r.Coordinator.mismatches;
  check_stats (label ^ ": mixed fleet parity") reference r.Coordinator.stats;
  check_bool (label ^ ": all finished") true
    (List.for_all (fun rep -> rep.Worker.ended = Worker.Campaign_done) reports)

let avr_makers () =
  let nl = System.avr_netlist () in
  let program = Avr_asm.assemble Programs.avr_fib_halting in
  ( nl,
    (fun () -> System.create_avr ~netlist:nl ~program "avr/fib"),
    (fun () -> System.create_avr_lanes ~netlist:nl ~program "avr/fib"),
    (fun ~trace -> System.create_avr_delta ~netlist:nl ~program ~trace "avr/fib"),
    fun ~trace -> System.create_avr_delta_batch ~netlist:nl ~program ~trace "avr/fib" )

let msp_makers () =
  let nl = System.msp_netlist () in
  let program = Msp_asm.assemble Programs.msp_fib_halting in
  ( nl,
    (fun () -> System.create_msp ~netlist:nl ~program "msp/fib"),
    (fun () -> System.create_msp_lanes ~netlist:nl ~program "msp/fib"),
    (fun ~trace -> System.create_msp_delta ~netlist:nl ~program ~trace "msp/fib"),
    fun ~trace -> System.create_msp_delta_batch ~netlist:nl ~program ~trace "msp/fib" )

let test_parity_avr () = check_parity_core "avr" (avr_makers ())
let test_parity_msp () = check_parity_core "msp430" (msp_makers ())

(* --- lease windows on the lane kernels ------------------------------- *)

(* An AVR campaign the lane-window tests share: 320 samples, so chunks
   of 4 and 16 divide it evenly and a full window leaves chunks over. *)
let window_n = 320
let window_seed = 7
let window_header () =
  make_header ~core:"avr" ~program:"fib" ~cycles:120 ~samples:window_n ~seed:window_seed ()

let avr_window_reference =
  lazy
    (let space, campaign = core_build (avr_makers ()) ~cycles:120 in
     Campaign.run_sample campaign ~space ~rng:(Prng.create window_seed) ~n:window_n ())

(* Leases held by the worker at once, from the coordinator's events:
   each [Assigned] takes one, and each chunk retires as one Results frame
   ([Progress]) followed by its [Chunk_done] — chunks of at most
   [results_per_frame] samples, one lone worker, no cross-validation. *)
let lease_tracker () =
  let held = ref 0 and peak = ref 0 in
  let on_event = function
    | Coordinator.Assigned _ ->
      incr held;
      peak := max !peak !held
    | Coordinator.Progress _ -> decr held
    | _ -> ()
  in
  (on_event, fun () -> !peak)

(* A lone delta-batched worker leases a window of ceil(252 / s) chunks
   of s samples (252 = four passes of the delta lanes) and classifies it
   in one batch; chunks of 252 or more are leased one at a time. Stats
   equal the scalar reference either way. *)
let test_lane_window_leases () =
  let reference = Lazy.force avr_window_reference in
  let makers = avr_makers () in
  let window = 4 * Campaign.max_delta_lanes in
  List.iter
    (fun chunk_size ->
      let label = Printf.sprintf "chunk %d" chunk_size in
      let config = { test_config with Coordinator.chunk_size } in
      let coord = Coordinator.create ~config () in
      let port = Coordinator.port coord in
      let on_event, peak = lease_tracker () in
      let join = serve_bg coord ~header:(window_header ()) ~on_event () in
      let w =
        work_bg ~port ~name:"lanes" ~results_per_frame:256
          ~resolve:(core_engine makers Campaign.Delta_batched)
          ()
      in
      let rep = w () in
      let r = join () in
      check_bool (label ^ ": completed") true r.Coordinator.completed;
      check_stats (label ^ ": scalar parity") reference r.Coordinator.stats;
      check_bool (label ^ ": worker done") true (rep.Worker.ended = Worker.Campaign_done);
      check_int (label ^ ": every chunk acknowledged")
        ((window_n + chunk_size - 1) / chunk_size)
        rep.Worker.chunks;
      if chunk_size >= window then check_int (label ^ ": one lease at a time") 1 (peak ())
      else begin
        check_bool (label ^ ": several leases at once") true (peak () > 1);
        check_bool
          (Printf.sprintf "%s: at most ceil(%d / s) leases (peak %d)" label window (peak ()))
          true
          (peak () <= (window + chunk_size - 1) / chunk_size)
      end)
    [ 4; 16; 256 ]

let journal_outcomes dir =
  let _, entries, _ = Journal.load ~dir in
  let out = Array.make window_n None in
  Array.iter
    (function
      | Journal.Outcome (i, o) -> out.(i) <- Some o
      | _ -> ())
    entries;
  out

(* A [fault] hook that always raises for one chunk crashes exactly that
   chunk's unpruned samples: the merged window batch fails, and the
   per-chunk fallback attributes the crash like a one-chunk window
   would — here, a delta worker running the same campaign chunk by
   chunk. Every other verdict equals the local reference. *)
let test_lane_window_crash_attribution () =
  let makers = avr_makers () in
  let skip ~flop_id ~cycle = (flop_id + cycle) mod 5 = 0 in
  let chunk_size = 4 and victim_chunk = 5 in
  let fast = { Pruning_util.Backoff.base = 0.001; cap = 0.002; factor = 2. } in
  let run kernel =
    let dir = scratch_dir () in
    let config = { test_config with Coordinator.chunk_size } in
    let coord = Coordinator.create ~config () in
    let port = Coordinator.port coord in
    let join = serve_bg coord ~header:(window_header ()) ~journal:dir () in
    let w =
      work_bg ~port ~name:(Campaign.kernel_name kernel) ~retry_backoff:fast
        ~resolve:(core_engine makers ~skip kernel)
        ~fault:(fun ~chunk_id ~index:_ ~attempt:_ ->
          if chunk_id = victim_chunk then failwith "poisoned chunk")
        ()
    in
    let rep = w () in
    let r = join () in
    let outcomes = journal_outcomes dir in
    rm_rf dir;
    (rep, r, outcomes)
  in
  let space, campaign = core_build makers ~cycles:120 in
  let samples =
    Campaign.draw_samples campaign ~space ~rng:(Prng.create window_seed) ~n:window_n
  in
  let local = Campaign.inject_delta_batch campaign ~faults:samples () in
  let lo = victim_chunk * chunk_size in
  let unpruned = ref 0 in
  for i = lo to lo + chunk_size - 1 do
    let flop_id, cycle = samples.(i) in
    if not (skip ~flop_id ~cycle) then incr unpruned
  done;
  check_bool "the poisoned chunk has unpruned samples" true (!unpruned > 0);
  let rep, r, outcomes = run Campaign.Delta_batched in
  let rep1, r1, outcomes1 = run Campaign.Delta in
  check_bool "completed" true r.Coordinator.completed;
  check_int "crashed = the chunk's unpruned samples" !unpruned r.Coordinator.stats.Campaign.crashed;
  check_int "worker reports the same crashes" !unpruned rep.Worker.crashes;
  check_int "a one-chunk window crashes as many" r1.Coordinator.stats.Campaign.crashed
    r.Coordinator.stats.Campaign.crashed;
  check_int "one-chunk worker reports as many" rep1.Worker.crashes rep.Worker.crashes;
  check_bool "journal identical to the one-chunk window's" true (outcomes = outcomes1);
  Array.iteri
    (fun i o ->
      let flop_id, cycle = samples.(i) in
      let expected =
        if skip ~flop_id ~cycle then Journal.Skipped
        else if i / chunk_size = victim_chunk then Journal.Crashed
        else
          match local.(i) with
          | Campaign.Benign -> Journal.Benign
          | Campaign.Latent -> Journal.Latent
          | Campaign.Sdc c -> Journal.Sdc c
      in
      check_bool (Printf.sprintf "sample %d verdict" i) true (o = Some expected))
    outcomes

(* A delta-batched worker SIGKILLed while it holds a lease window (it
   stalls in its first experiment, after gathering): every chunk of the
   window is requeued, and a second worker completes the campaign to
   the scalar reference stats. *)
let test_lane_window_worker_death () =
  let reference = Lazy.force avr_window_reference in
  let config = { test_config with Coordinator.chunk_size = 16 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(window_header ()) ~on_event:push () in
  let marker = scratch_dir () in
  let victim_exe = Filename.concat (Filename.dirname Sys.executable_name) "dist_victim.exe" in
  let victim =
    Unix.create_process victim_exe
      [| victim_exe; string_of_int port; "delta-batched"; marker |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  wait_for ~timeout:60. (fun () -> Sys.file_exists marker) "the victim to stall holding its window";
  Unix.kill victim Sys.sigkill;
  let _, status = Unix.waitpid [] victim in
  check_bool "victim really SIGKILLed" true (status = Unix.WSIGNALED Sys.sigkill);
  let survivor =
    work_bg ~port ~name:"survivor" ~resolve:(core_engine (avr_makers ()) Campaign.Delta_batched) ()
  in
  let rep = survivor () in
  let r = join () in
  rm_rf marker;
  let count pred = List.length (List.filter pred (all ())) in
  let held =
    count (function
      | Coordinator.Assigned { worker = "victim"; _ } -> true
      | _ -> false)
  in
  let requeued =
    count (function
      | Coordinator.Redispatched { worker = "victim"; _ } -> true
      | _ -> false)
  in
  check_bool "victim held a window" true (held > 1);
  check_int "every window chunk requeued" held requeued;
  check_bool "completed" true r.Coordinator.completed;
  check_stats "death parity" reference r.Coordinator.stats;
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_bool "survivor finished" true (rep.Worker.ended = Worker.Campaign_done)

(* A straggler: stalls mid-chunk long past its lease, so the chunk is
   re-dispatched and recomputed by the healthy worker — then the
   straggler wakes up and delivers anyway. Its late verdicts must be
   deduplicated (asserted equal), never double-counted. *)
let test_straggler_dedup () =
  let reference = toy_reference () in
  let config = { test_config with Coordinator.lease = 0.3 } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ()) ~on_event:push () in
  let stalled = ref false in
  let straggler =
    work_bg ~port ~name:"straggler"
      ~resolve:(fun _ -> toy_engine ())
      ~heartbeat:30. ~results_per_frame:1
      ~fault:(fun ~chunk_id:_ ~index:_ ~attempt:_ ->
        if not !stalled then begin
          stalled := true;
          Unix.sleepf 1.2
        end)
      ()
  in
  (* Let the straggler grab (and stall on) a chunk before the healthy
     worker joins, so the re-dispatch is guaranteed to happen. *)
  wait_for (fun () -> !stalled) "straggler to stall";
  let healthy = work_bg ~port ~name:"healthy" ~resolve:(fun _ -> toy_engine ()) () in
  let r_straggler = straggler () in
  let r_healthy = healthy () in
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_stats "straggler parity" reference r.Coordinator.stats;
  check_bool "lease was re-dispatched" true (r.Coordinator.redispatched >= 1);
  check_bool "late duplicates deduplicated" true (r.Coordinator.duplicates >= 1);
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_bool "straggler still finished" true (r_straggler.Worker.ended = Worker.Campaign_done);
  check_bool "healthy finished" true (r_healthy.Worker.ended = Worker.Campaign_done);
  check_bool "expiry event emitted" true
    (List.exists
       (function
         | Coordinator.Redispatched { reason = "lease expired"; _ } -> true
         | _ -> false)
       (all ()))

(* The acceptance scenario: three workers, one SIGKILLed mid-chunk (a
   real OS process, killed for real), campaign completes with stats
   bit-identical to the single-process run. The victim is the
   dist_victim helper executable: it handshakes, takes a chunk lease,
   and stalls forever on its first experiment. (Unix.fork is off limits
   here — earlier suites spawn domains — so it is a spawned process.) *)
let test_sigkill_worker () =
  let reference = toy_reference () in
  let coord = Coordinator.create ~config:test_config () in
  let port = Coordinator.port coord in
  let victim_exe = Filename.concat (Filename.dirname Sys.executable_name) "dist_victim.exe" in
  let victim =
    Unix.create_process victim_exe
      [| victim_exe; string_of_int port |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let push, all = event_log () in
  let join = serve_bg coord ~header:(make_header ()) ~on_event:push () in
  let victim_leased () =
    List.exists
      (function
        | Coordinator.Assigned { worker = "victim"; _ } -> true
        | _ -> false)
      (all ())
  in
  wait_for victim_leased "the victim to hold a chunk lease";
  Unix.kill victim Sys.sigkill;
  let _, status = Unix.waitpid [] victim in
  check_bool "victim really SIGKILLed" true (status = Unix.WSIGNALED Sys.sigkill);
  let w1 = work_bg ~port ~name:"w1" ~resolve:(fun _ -> toy_engine ()) () in
  let w2 = work_bg ~port ~name:"w2" ~resolve:(fun _ -> toy_engine ()) () in
  let r1 = w1 () and r2 = w2 () in
  let r = join () in
  check_bool "completed without the victim" true r.Coordinator.completed;
  check_stats "SIGKILL parity" reference r.Coordinator.stats;
  check_int "three workers joined" 3 r.Coordinator.workers;
  check_bool "victim's chunk re-dispatched" true (r.Coordinator.redispatched >= 1);
  check_int "no mismatches" 0 r.Coordinator.mismatches;
  check_bool "survivors finished" true
    (r1.Worker.ended = Worker.Campaign_done && r2.Worker.ended = Worker.Campaign_done);
  check_bool "victim death observed" true
    (List.exists
       (function
         | Coordinator.Left { worker = "victim"; _ } -> true
         | _ -> false)
       (all ()))

(* Coordinator kill/resume: stop the coordinator partway (its worker is
   left to give up reconnecting), then resume from the journal with a
   fresh coordinator and worker — recovered verdicts are not recomputed
   and the final stats match the uninterrupted local run. The journal is
   marked distributed (shards = 0), so a local Durable resume on it must
   refuse. *)
let test_coordinator_resume () =
  let reference = toy_reference () in
  let dir = scratch_dir () in
  let header = make_header () in
  let seen = Atomic.make 0 in
  let coord1 = Coordinator.create ~config:test_config () in
  let port1 = Coordinator.port coord1 in
  let join1 =
    serve_bg coord1 ~header ~journal:dir
      ~should_stop:(fun () -> Atomic.get seen >= 20)
      ~on_event:(function
        | Coordinator.Progress { done_; _ } -> Atomic.set seen done_
        | _ -> ())
      ()
  in
  let fast_giveup = { Pruning_util.Backoff.base = 0.01; cap = 0.05; factor = 2. } in
  let w1 =
    work_bg ~port:port1 ~name:"phase1"
      ~resolve:(fun _ -> toy_engine ())
      ~results_per_frame:1 ~reconnect_backoff:fast_giveup ~max_reconnects:2 ()
  in
  let r1 = join1 () in
  check_bool "phase 1 interrupted" false r1.Coordinator.completed;
  (match (w1 ()).Worker.ended with
  | Worker.Gave_up _ -> ()
  | _ -> Alcotest.fail "orphaned worker must give up reconnecting");
  (* A distributed journal is not resumable by the local runner. *)
  (let _, _, space, campaign = toy_parts () in
   match
     Durable.run campaign ~space ~seed:toy_seed ~n:toy_n ~ident:("toy", "toy") ~journal:dir
       ~resume:true ()
   with
  | exception Journal.Error _ -> ()
  | _ -> Alcotest.fail "local resume of a distributed journal must refuse");
  let coord2 = Coordinator.create ~config:test_config () in
  let port2 = Coordinator.port coord2 in
  let join2 = serve_bg coord2 ~header ~journal:dir ~resume:true () in
  let w2 = work_bg ~port:port2 ~name:"phase2" ~resolve:(fun _ -> toy_engine ()) () in
  let rep2 = w2 () in
  let r2 = join2 () in
  check_bool "phase 2 completed" true r2.Coordinator.completed;
  check_bool "recovered some verdicts" true (r2.Coordinator.recovered >= 20);
  check_bool "recovered only part" true (r2.Coordinator.recovered < toy_n);
  check_stats "resume parity" reference r2.Coordinator.stats;
  check_bool "phase 2 worker done" true (rep2.Worker.ended = Worker.Campaign_done);
  check_bool "phase 2 did real work" true (rep2.Worker.submitted > 0);
  rm_rf dir

(* Misbehaving clients: a wrong protocol version, out-of-range sample
   indices, and a verdict that contradicts the recorded one. Each only
   costs the offender its connection; the campaign completes with clean
   statistics either way, and the disagreement is surfaced. *)
let test_rogue_clients () =
  let reference = toy_reference () in
  let coord = Coordinator.create ~config:test_config () in
  let port = Coordinator.port coord in
  let join = serve_bg coord ~header:(make_header ()) () in
  let connect () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    fd
  in
  let expect_disconnect label fd =
    match Proto.recv fd with
    | exception (Proto.Closed | Proto.Error _ | Unix.Unix_error _) -> Unix.close fd
    | _ -> Alcotest.fail (label ^ ": rogue client must be disconnected")
  in
  (* Wrong protocol version: refused before any campaign state. *)
  let bad_version = connect () in
  Proto.send bad_version (Proto.Hello { version = 99; name = "from-the-future"; epoch = -1 });
  expect_disconnect "bad version" bad_version;
  (* Speaking before Hello: refused. *)
  let no_hello = connect () in
  Proto.send no_hello Proto.Request;
  expect_disconnect "no hello" no_hello;
  (* A rogue that holds its connection open while an honest worker runs
     the campaign, then submits an out-of-range index... *)
  let rogue = connect () in
  Proto.send rogue (Proto.Hello { version = Proto.version; name = "rogue"; epoch = -1 });
  (match Proto.recv rogue with
  | Proto.Welcome { header = h; _ } -> check_bool "rogue got the real header" true (h = make_header ())
  | _ -> Alcotest.fail "expected Welcome");
  let rogue2 = connect () in
  Proto.send rogue2 (Proto.Hello { version = Proto.version; name = "rogue2"; epoch = -1 });
  (match Proto.recv rogue2 with
  | Proto.Welcome _ -> ()
  | _ -> Alcotest.fail "expected Welcome");
  let worker = work_bg ~port ~name:"honest" ~resolve:(fun _ -> toy_engine ()) () in
  let rep = worker () in
  check_bool "honest worker done" true (rep.Worker.ended = Worker.Campaign_done);
  (* ...the campaign is complete; now both rogues strike during the
     coordinator's drain window. Sdc toy_cycles+999 can never be a real
     verdict, so this is a guaranteed determinism mismatch. *)
  Proto.send rogue2 (Proto.Results { chunk_id = 0; results = [| (toy_n + 5, Journal.Benign) |] });
  expect_disconnect "out-of-range index" rogue2;
  Proto.send rogue (Proto.Results { chunk_id = 0; results = [| (0, Journal.Sdc 999) |] });
  expect_disconnect "mismatched verdict" rogue;
  let r = join () in
  check_bool "completed" true r.Coordinator.completed;
  check_int "one mismatch surfaced" 1 r.Coordinator.mismatches;
  (* A drain-phase dissenter cannot recruit voters: the dispute counts as
     unresolved (exit 19 upstairs) and the recorded verdict stands. *)
  check_int "drain-time dispute unresolved" 1 r.Coordinator.arb_unresolved;
  check_stats "first verdict kept" reference r.Coordinator.stats

let suite =
  [
    Alcotest.test_case "messages round-trip" `Quick test_msg_round_trip;
    Alcotest.test_case "streaming decoder reassembly" `Quick test_decoder_streaming;
    Alcotest.test_case "frame corruption detected" `Quick test_frame_corruption;
    Alcotest.test_case "frames over sockets, EOF semantics" `Quick test_frame_sockets;
    Alcotest.test_case "malformed messages rejected" `Quick test_malformed_messages;
    Alcotest.test_case "parity: toy fleet, plain and pruned" `Quick test_parity_toy;
    Alcotest.test_case "parity: avr mixed scalar+batched+delta fleet" `Slow test_parity_avr;
    Alcotest.test_case "parity: msp430 mixed scalar+batched+delta fleet" `Slow test_parity_msp;
    Alcotest.test_case "lane window: leases and scalar parity" `Slow test_lane_window_leases;
    Alcotest.test_case "lane window: crash attributed per chunk" `Slow
      test_lane_window_crash_attribution;
    Alcotest.test_case "lane window: SIGKILLed holder requeues the window" `Slow
      test_lane_window_worker_death;
    Alcotest.test_case "straggler lease re-dispatch + dedup" `Quick test_straggler_dedup;
    Alcotest.test_case "SIGKILLed worker mid-chunk" `Quick test_sigkill_worker;
    Alcotest.test_case "coordinator kill/resume from journal" `Quick test_coordinator_resume;
    Alcotest.test_case "rogue clients cannot corrupt a campaign" `Quick test_rogue_clients;
  ]
