(* One cold iteration of a benchmark workload.

   Every iteration runs in its own process and builds everything from
   the netlist up — synthesis, fault space, a fresh Campaign.t (golden
   run, checkpoints, golden trace, kernel worker) and, where the
   workload has them, MATE search, replay and a coordinator with its
   journal — so no verdict memo, search table or heap growth carries
   over from an earlier iteration. It prints one JSON object on stdout.

   With --trace, spans around the calls into each layer (see Spans) and
   layer counters are added to the output. With --check, the verdicts
   are then verified against reference engines, outside the timed
   window; a failed check is reported in the output and makes the
   process exit 1.

   Usage:
     bench.exe --workload NAME --seed N [--trace] [--check] [--out-dir DIR]
               [--setup-only]

   perfbench/run.py drives it; see perfbench/README.md. *)

module Netlist = Pruning_netlist.Netlist
module Trace = Pruning_sim.Trace
module System = Pruning_cpu.System
module Avr_asm = Pruning_cpu.Avr_asm
module Msp_asm = Pruning_cpu.Msp_asm
module Programs = Pruning_cpu.Programs
module Fault_space = Pruning_fi.Fault_space
module Fault_model = Pruning_fi.Fault_model
module Campaign = Pruning_fi.Campaign
module Coordinator = Pruning_fi.Coordinator
module Worker = Pruning_fi.Worker
module Journal = Pruning_fi.Journal
module Search = Pruning_mate.Search
module Mateset = Pruning_mate.Mateset
module Replay = Pruning_mate.Replay
module Prng = Pruning_util.Prng
module Mono = Pruning_util.Mono

(* ------------------------------------------------------------------ *)
(* Workload sizes                                                       *)

(* inject-seu-avr: the paper's 8500-cycle trace length, full SEU space. *)
let seu_cycles = 8500
let seu_samples = 16_000

(* inject-models-avr: same core and horizon, the non-SEU models. *)
let models_cycles = 8500
let models_samples = 600

let models =
  [ ("set", Fault_model.Set); ("mbu2", Fault_model.Mbu 2); ("intermittent3", Fault_model.Intermittent 3) ]

(* prune-msp-norf: MATE search over the "FF w/o RF" flops, then a pruned
   campaign over the full space. *)
let prune_cycles = 2000
let prune_samples = 2000

(* dist-seu-avr: coordinator + one delta-batched worker over loopback. *)
let dist_cycles = 2000
let dist_samples = 24_000
let dist_chunk = 16

(* Leading samples of each sample list re-classified by the scalar
   reference engine in the --check pass. *)
let seu_ref_prefix = 16
let models_ref_prefix = 5

(* ------------------------------------------------------------------ *)
(* Cores                                                                *)

type core = {
  core : string;
  synth : unit -> Netlist.t;
  make : Netlist.t -> unit -> System.t;
  make_delta : Netlist.t -> trace:Trace.t -> System.delta;
  make_delta_batch : Netlist.t -> trace:Trace.t -> System.delta_batch;
  rf_prefix : string;
}

let avr =
  let program = lazy (Avr_asm.assemble Programs.avr_fib) in
  {
    core = "avr";
    synth = System.avr_netlist;
    make = (fun nl () -> System.create_avr ~netlist:nl ~program:(Lazy.force program) "avr/fib");
    make_delta =
      (fun nl ~trace ->
        System.create_avr_delta ~netlist:nl ~program:(Lazy.force program) ~trace "avr/fib");
    make_delta_batch =
      (fun nl ~trace ->
        System.create_avr_delta_batch ~netlist:nl ~program:(Lazy.force program) ~trace "avr/fib");
    rf_prefix = Pruning_cpu.Avr_core.rf_prefix;
  }

let msp =
  let program = lazy (Msp_asm.assemble Programs.msp_fib) in
  {
    core = "msp430";
    synth = System.msp_netlist;
    make = (fun nl () -> System.create_msp ~netlist:nl ~program:(Lazy.force program) "msp/fib");
    make_delta =
      (fun nl ~trace ->
        System.create_msp_delta ~netlist:nl ~program:(Lazy.force program) ~trace "msp/fib");
    make_delta_batch =
      (fun nl ~trace ->
        System.create_msp_delta_batch ~netlist:nl ~program:(Lazy.force program) ~trace "msp/fib");
    rf_prefix = Pruning_cpu.Msp_core.rf_prefix;
  }

(* ------------------------------------------------------------------ *)
(* Measurements                                                         *)

let span = Spans.span

(* Whether this is a traced iteration; unlike [Spans.enabled] it stays
   set for the untimed work after the measured window. *)
let traced = ref false

(* Set once, right before the first search or injection call. With
   --setup-only the iteration ends there. *)
let setup_end = ref None
let setup_only = ref false

exception Setup_complete

let setup_done () =
  if !setup_end = None then begin
    setup_end := Some (Mono.now ());
    if !setup_only then raise Setup_complete
  end

(* Per-layer values that are not span times, in emission order. *)
let layer_values : (string * float) list ref = ref []

let layer name v = layer_values := (name, v) :: !layer_values

(* Verdict counts per fault-model label, in emission order. *)
let verdicts : (string * Campaign.stats) list ref = ref []

let checks : (string * bool * string) list ref = ref []

let check name ok detail = checks := (name, ok, detail) :: !checks

let stats_string (s : Campaign.stats) =
  Printf.sprintf "benign=%d latent=%d sdc=%d skipped=%d crashed=%d" s.Campaign.benign
    s.Campaign.latent s.Campaign.sdc s.Campaign.skipped s.Campaign.crashed

let check_stats name ~expected ~got =
  check name (expected = got)
    (Printf.sprintf "reference %s, benchmark %s" (stats_string expected) (stats_string got))

let median_sorted a =
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* A fresh campaign with its golden run, golden trace and (optionally)
   the batched-delta worker — the whole per-campaign setup. *)
let build_campaign core nl ~cycles ~batch_worker =
  let c =
    span "fi.campaign_create" (fun () ->
        Campaign.create ~make:(core.make nl) ~make_delta:(core.make_delta nl)
          ~make_delta_batch:(core.make_delta_batch nl) ~total_cycles:cycles ())
  in
  ignore (span "fi.golden_trace" (fun () -> Campaign.golden_trace c));
  if batch_worker then
    span "fi.worker_build" (fun () -> ignore (Campaign.inject_delta_batch c ~faults:[||] ()));
  c

(* Untimed reference campaign for the checks. *)
let reference_campaign core nl ~cycles =
  Campaign.create ~make:(core.make nl) ~make_delta:(core.make_delta nl)
    ~make_delta_batch:(core.make_delta_batch nl) ~total_cycles:cycles ()

let inject_time = ref 0.
let inject_minor_words = ref 0.

(* The injection phase proper: one delta-batched campaign pass. *)
let inject c ~space ~seed ~n ?skip () =
  setup_done ();
  let w0 = Gc.minor_words () in
  let t0 = Mono.now () in
  let stats =
    span "fi.inject" (fun () ->
        Campaign.run_sample_delta_batched c ~space ~rng:(Prng.create seed) ~n ?skip ())
  in
  let dt = Mono.now () -. t0 in
  inject_time := !inject_time +. dt;
  inject_minor_words := !inject_minor_words +. (Gc.minor_words () -. w0);
  (stats, dt)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

(* Each returns (sampled faults attempted, faults without a usable
   verdict). *)

let attempted_of (s : Campaign.stats) = s.Campaign.injections + s.Campaign.skipped + s.Campaign.crashed

let inject_seu_avr ~seed ~do_check =
  let nl = span "rtl.synth" avr.synth in
  let space = span "fi.space" (fun () -> Fault_space.full nl ~cycles:seu_cycles) in
  let c = build_campaign avr nl ~cycles:seu_cycles ~batch_worker:true in
  let stats, _ = inject c ~space ~seed ~n:seu_samples () in
  verdicts := [ ("seu", stats) ];
  let after () =
    if do_check then begin
      (* The leading samples, verdict by verdict, against the scalar
         reference engine on an independent campaign. *)
      let sc = reference_campaign avr nl ~cycles:seu_cycles in
      let prefix =
        Campaign.draw_samples sc ~space ~rng:(Prng.create seed) ~n:seu_ref_prefix
      in
      let scalar = Array.map (fun (flop_id, cycle) -> Campaign.inject sc ~flop_id ~cycle) prefix in
      let db = reference_campaign avr nl ~cycles:seu_cycles in
      let batched = Campaign.inject_delta_batch db ~faults:prefix () in
      let differing = ref 0 in
      Array.iteri (fun i v -> if v <> batched.(i) then incr differing) scalar;
      check "seu.scalar_prefix" (!differing = 0)
        (Printf.sprintf "%d of %d leading samples differ from the scalar engine" !differing
           seu_ref_prefix)
    end
  in
  (attempted_of stats, stats.Campaign.crashed, after)

let inject_models_avr ~seed ~do_check =
  let nl = span "rtl.synth" avr.synth in
  let runs =
    List.map
      (fun (label, model) ->
        let space = span "fi.space" (fun () -> Fault_space.full ~model nl ~cycles:models_cycles) in
        (* Non-SEU models run on the single-fault delta fallback, which
           never touches the batched worker: build only what is used. *)
        let c = build_campaign avr nl ~cycles:models_cycles ~batch_worker:false in
        (label, space, c))
      models
  in
  let results =
    List.map
      (fun (label, space, c) ->
        let stats, dt = inject c ~space ~seed ~n:models_samples () in
        layer ("fi.inject_per_s." ^ label) (float_of_int stats.Campaign.injections /. dt);
        (label, space, stats))
      runs
  in
  verdicts := List.map (fun (label, _, stats) -> (label, stats)) results;
  let after () =
    if do_check then begin
      (* A campaign is not tied to a model: one scalar and one delta
         reference campaign serve all three spaces. *)
      let sc = reference_campaign avr nl ~cycles:models_cycles in
      let dc = reference_campaign avr nl ~cycles:models_cycles in
      List.iter
        (fun (label, space, _) ->
          let rng () = Prng.create seed in
          let scalar = Campaign.run_sample sc ~space ~rng:(rng ()) ~n:models_ref_prefix () in
          let delta =
            Campaign.run_sample_delta_batched dc ~space ~rng:(rng ()) ~n:models_ref_prefix ()
          in
          check_stats (label ^ ".scalar_prefix") ~expected:scalar ~got:delta)
        results
    end
  in
  let attempted = List.fold_left (fun acc (_, _, s) -> acc + attempted_of s) 0 results in
  let failed = List.fold_left (fun acc (_, _, s) -> acc + s.Campaign.crashed) 0 results in
  (attempted, failed, after)

let write_wires ~out_dir ~workload ~seed nl (report : Search.report) =
  let file = Filename.concat out_dir (Printf.sprintf "search-wires-%s-seed%d.tsv" workload seed) in
  let oc = open_out file in
  output_string oc "wire\tcone_size\tn_options\tcandidates_tried\toutcome\ttime_s\n";
  List.iter
    (fun (fr : Search.flop_result) ->
      let r = fr.Search.result in
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%s\t%.6f\n" (Netlist.wire_name nl r.Search.wire)
        r.Search.cone_size r.Search.n_options r.Search.candidates_tried
        (match r.Search.outcome with
        | Search.Unmaskable -> "unmaskable"
        | Search.Mates ms -> Printf.sprintf "mates:%d" (List.length ms))
        r.Search.time_s)
    report.Search.flop_results;
  close_out oc

let prune_msp_norf ~seed ~do_check ~out_dir =
  let nl = span "rtl.synth" msp.synth in
  let space = span "fi.space" (fun () -> Fault_space.full nl ~cycles:prune_cycles) in
  let c = build_campaign msp nl ~cycles:prune_cycles ~batch_worker:true in
  (* The exemplary fault-free execution the MATEs are replayed over. *)
  let trace = span "cpu.record" (fun () -> System.record (msp.make nl ()) ~cycles:prune_cycles) in
  setup_done ();
  let flops = Netlist.flops_excluding nl ~prefix:msp.rf_prefix in
  let report = span "mate.search" (fun () -> Search.search_flops nl flops) in
  let pruner =
    span "mate.replay" (fun () ->
        let set = Mateset.of_report report in
        Replay.pruner set (Replay.triggers set trace) ~space ())
  in
  let skip ~flop_id ~cycle = Replay.pruned pruner ~flop_id ~cycle in
  let stats, _ = inject c ~space ~seed ~n:prune_samples ~skip () in
  verdicts := [ ("seu", stats) ];
  let masked = Replay.pruner_masked_count pruner in
  layer "mate.masked_faults" (float_of_int masked);
  layer "mate.reduction_pct" (100. *. float_of_int masked /. float_of_int (Fault_space.size space));
  let wire_times =
    Array.of_list (List.map (fun fr -> fr.Search.result.Search.time_s) report.Search.flop_results)
  in
  Array.sort compare wire_times;
  layer "mate.search_wire_max_s" (Array.fold_left max 0. wire_times);
  layer "mate.search_wire_p50_ms" (1000. *. median_sorted wire_times);
  layer "mate.search_candidates" (float_of_int (Search.total_candidates report));
  layer "mate.search_mates" (float_of_int (Search.total_mates report));
  layer "mate.search_unmaskable" (float_of_int (Search.n_unmaskable report));
  let after () =
    if !traced then write_wires ~out_dir ~workload:"prune-msp-norf" ~seed nl report;
    if do_check then begin
      (* Every pruned sample, injected on the scalar reference engine,
         must be Benign; the unpruned campaign must agree with the
         pruned one on every executed verdict. *)
      let rc = reference_campaign msp nl ~cycles:prune_cycles in
      let plain =
        Campaign.run_sample_delta_batched rc ~space ~rng:(Prng.create seed) ~n:prune_samples ()
      in
      let samples = Campaign.draw_samples rc ~space ~rng:(Prng.create seed) ~n:prune_samples in
      let pruned = List.filter (fun (flop_id, cycle) -> skip ~flop_id ~cycle) (Array.to_list samples) in
      let not_benign =
        List.length
          (List.filter
             (fun (flop_id, cycle) -> Campaign.inject rc ~flop_id ~cycle <> Campaign.Benign)
             pruned)
      in
      check "prune.pruned_benign"
        (not_benign = 0 && List.length pruned = stats.Campaign.skipped)
        (Printf.sprintf "%d of %d pruned samples not benign (campaign skipped %d)" not_benign
           (List.length pruned) stats.Campaign.skipped);
      check_stats "prune.unpruned_agrees" ~expected:plain
        ~got:
          {
            stats with
            Campaign.injections = stats.Campaign.injections + stats.Campaign.skipped;
            benign = stats.Campaign.benign + stats.Campaign.skipped;
            skipped = 0;
          }
    end
  in
  (attempted_of stats, stats.Campaign.crashed, after)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dist_seu_avr ~seed ~do_check ~out_dir =
  let nl = span "rtl.synth" avr.synth in
  let space = span "fi.space" (fun () -> Fault_space.full nl ~cycles:dist_cycles) in
  let c = build_campaign avr nl ~cycles:dist_cycles ~batch_worker:true in
  let engine = { Worker.campaign = c; space; skip = None; kernel = Campaign.Delta_batched } in
  let journal = Filename.concat out_dir (Printf.sprintf "journal-%d" (Unix.getpid ())) in
  remove_tree journal;
  let header =
    {
      Journal.core = avr.core;
      program = "fib";
      cycles = dist_cycles;
      seed;
      samples = dist_samples;
      prune = false;
      audit = 0.;
      shards = 0;
      batched = false;
      epoch = 0;
      fault_model = Fault_model.Seu;
      prng = Prng.save (Prng.create seed);
      shard_prng = [||];
    }
  in
  let config = { Coordinator.default_config with Coordinator.chunk_size = dist_chunk } in
  let coord = Coordinator.create ~config () in
  let port = Coordinator.port coord in
  setup_done ();
  (* The worker thread's own timings, folded in after it joins. *)
  let resolve_s = ref 0. in
  let resolve (h : Journal.header) =
    let t0 = Mono.now () in
    if not (Journal.same_campaign h header) then failwith "bench worker: unexpected campaign";
    resolve_s := !resolve_s +. (Mono.now () -. t0);
    engine
  in
  let worker_report = ref None and worker_error = ref None in
  let wt =
    Thread.create
      (fun () ->
        try worker_report := Some (Worker.run ~host:"127.0.0.1" ~port ~resolve ~name:"bench-worker" ())
        with e -> worker_error := Some (Printexc.to_string e))
      ()
  in
  let serve_t0 = Mono.now () in
  let first_assign = ref None and completed_at = ref None and assigned = ref 0 in
  let on_event = function
    | Coordinator.Assigned _ ->
      incr assigned;
      if !first_assign = None then first_assign := Some (Mono.now () -. serve_t0)
    | Coordinator.Completed -> completed_at := Some (Mono.now ())
    | _ -> ()
  in
  let on_event = if !traced then Some on_event else None in
  let r =
    span "fi.coordinator.serve" (fun () ->
        Coordinator.serve coord ~header ~journal
          ~should_stop:(fun () -> !worker_error <> None)
          ?on_event ())
  in
  let serve_end = Mono.now () in
  Thread.join wt;
  (match !worker_error with
  | Some e -> failwith ("bench worker failed: " ^ e)
  | None -> ());
  let stats = r.Coordinator.stats in
  verdicts := [ ("seu", stats) ];
  let submitted = match !worker_report with Some w -> w.Worker.submitted | None -> 0 in
  layer "fi.coordinator.first_assign_s" (Option.value !first_assign ~default:0.);
  layer "fi.coordinator.drain_s"
    (match !completed_at with Some t -> serve_end -. t | None -> 0.);
  layer "fi.coordinator.chunks_assigned" (float_of_int !assigned);
  layer "fi.coordinator.redispatched" (float_of_int r.Coordinator.redispatched);
  layer "fi.worker.resolve_s" !resolve_s;
  layer "fi.worker.submitted" (float_of_int submitted);
  layer "fi.journal.bytes" (float_of_int (dir_bytes journal));
  let unverdicted = dist_samples - attempted_of stats in
  let failed = stats.Campaign.crashed + unverdicted + r.Coordinator.arb_unresolved in
  let after () =
    if !traced || do_check then begin
      let t0 = Mono.now () in
      let _, entries, _ = Journal.load ~dir:journal in
      layer "fi.journal.load_s" (Mono.now () -. t0);
      (* The same sample list, classified locally on a fresh campaign:
         both the correctness reference and the distribution baseline. *)
      let lc = reference_campaign avr nl ~cycles:dist_cycles in
      ignore (Campaign.golden_trace lc);
      ignore (Campaign.inject_delta_batch lc ~faults:[||] ());
      let t0 = Mono.now () in
      let local =
        Campaign.run_sample_delta_batched lc ~space ~rng:(Prng.create seed) ~n:dist_samples ()
      in
      let local_s = Mono.now () -. t0 in
      let serve_s = Spans.total_s "fi.coordinator.serve" in
      layer "fi.dist.local_inject_s" local_s;
      layer "fi.dist.overhead_us_per_verdict"
        ((serve_s -. local_s) *. 1e6 /. float_of_int (max 1 (attempted_of stats)));
      check_stats "dist.equals_local" ~expected:local ~got:stats;
      check "dist.journal_complete"
        (r.Coordinator.completed && Array.length entries = dist_samples)
        (Printf.sprintf "completed=%b, %d journal entries for %d samples" r.Coordinator.completed
           (Array.length entries) dist_samples)
    end;
    remove_tree journal
  in
  (attempted_of stats, failed, after)

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let stats_json (s : Campaign.stats) =
  json_object
    [
      ("benign", string_of_int s.Campaign.benign);
      ("latent", string_of_int s.Campaign.latent);
      ("sdc", string_of_int s.Campaign.sdc);
      ("skipped", string_of_int s.Campaign.skipped);
      ("crashed", string_of_int s.Campaign.crashed);
    ]

let () =
  let workload = ref "" and seed = ref 1 and do_check = ref false in
  let out_dir = ref Filename.current_dir_name in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N sample-list seed");
      ("--trace", Arg.Set traced, " record layer spans and counters");
      ("--check", Arg.Set do_check, " verify verdicts against reference engines");
      ("--out-dir", Arg.Set_string out_dir, "DIR where trace files and journals go");
      ("--setup-only", Arg.Set setup_only, " stop (and report) when setup is complete");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N [--trace] [--check] [--out-dir DIR] [--setup-only]";
  let seed = !seed and do_check = !do_check and out_dir = !out_dir in
  Spans.enabled := !traced;
  let run =
    match !workload with
    | "inject-seu-avr" -> fun () -> inject_seu_avr ~seed ~do_check
    | "inject-models-avr" -> fun () -> inject_models_avr ~seed ~do_check
    | "prune-msp-norf" -> fun () -> prune_msp_norf ~seed ~do_check ~out_dir
    | "dist-seu-avr" -> fun () -> dist_seu_avr ~seed ~do_check ~out_dir
    | w ->
      Printf.eprintf "bench: unknown workload %S\n" w;
      exit 2
  in
  let t0 = Mono.now () in
  let attempted, failed, after =
    try run ()
    with Setup_complete ->
      print_endline
        (json_object
           [
             ("workload", json_string !workload);
             ("seed", string_of_int seed);
             ("setup_s", json_float (Option.get !setup_end -. t0));
             ("checks", "[]");
           ]);
      exit 0
  in
  let wall = Mono.now () -. t0 in
  (* Process CPU time over the same window: next to [wall] it tells
     time lost to descheduling from slower execution. *)
  let cpu = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let setup = Option.value !setup_end ~default:t0 -. t0 in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let span_values =
    Hashtbl.fold (fun name (t : Spans.total) acc -> (name ^ "_s", t.Spans.total_s) :: acc) Spans.totals []
  in
  let self_sum = Spans.self_sum () in
  let classified =
    List.fold_left
      (fun acc (_, (s : Campaign.stats)) -> acc + s.Campaign.injections + s.Campaign.skipped)
      0 !verdicts
  in
  let injections =
    List.fold_left (fun acc (_, (s : Campaign.stats)) -> acc + s.Campaign.injections) 0 !verdicts
  in
  let skipped = List.fold_left (fun acc (_, (s : Campaign.stats)) -> acc + s.Campaign.skipped) 0 !verdicts in
  Spans.enabled := false;
  if !traced && !inject_time > 0. then begin
    layer "fi.inject_per_s" (float_of_int injections /. max 1e-9 !inject_time);
    layer "fi.injections" (float_of_int injections);
    layer "fi.skipped" (float_of_int skipped);
    layer "fi.minor_words_per_inj" (!inject_minor_words /. float_of_int (max 1 injections))
  end;
  if !traced then layer "trace.self_sum_pct" (100. *. self_sum /. wall);
  let check_t0 = Mono.now () in
  after ();
  let check_s = Mono.now () -. check_t0 in
  let layers = if !traced then span_values @ List.rev !layer_values else [] in
  let ok = List.for_all (fun (_, ok, _) -> ok) !checks in
  print_endline
    (json_object
       [
         ("workload", json_string !workload);
         ("seed", string_of_int seed);
         ("traced", string_of_bool !traced);
         ("ocaml", json_string Sys.ocaml_version);
         ("wall_s", json_float wall);
         ("setup_s", json_float setup);
         ("faults_per_s", json_float (float_of_int classified /. wall));
         ("peak_heap_mb", json_float peak_heap_mb);
         ("check_s", json_float check_s);
         ("cpu_s", json_float cpu);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("verdicts", json_object (List.rev_map (fun (l, s) -> (l, stats_json s)) !verdicts));
         ("layers", json_object (List.map (fun (k, v) -> (k, json_float v)) layers));
         ( "checks",
           "["
           ^ String.concat ", "
               (List.rev_map
                  (fun (name, ok, detail) ->
                    json_object
                      [
                        ("name", json_string name);
                        ("ok", string_of_bool ok);
                        ("detail", json_string detail);
                      ])
                  !checks)
           ^ "]" );
       ]);
  exit (if ok then 0 else 1)
