module Prng = Pruning_util.Prng
module Backoff = Pruning_util.Backoff
module Mono = Pruning_util.Mono

type engine = {
  campaign : Campaign.t;
  space : Fault_space.t;
  skip : (flop_id:int -> cycle:int -> bool) option;
  kernel : Campaign.kernel;
}

type ended =
  | Campaign_done
  | Stopped
  | Gave_up of string

type report = {
  ended : ended;
  chunks : int;
  submitted : int;
  crashes : int;
  reconnects : int;
  redelivered : int;
  epochs : int;
  suspicion : int;
}

(* Cooperative shutdown mid-chunk: flush what we have, close the session,
   report [Stopped]. *)
exception Stop

(* A lease window on the lane kernels gathers chunks until it holds
   about this many samples: four full passes of the delta lanes. *)
let window_samples = 4 * Campaign.max_delta_lanes

(* One chunk's outgoing verdict stream. *)
type stream = {
  push : int -> Journal.outcome -> unit;
  flush : unit -> unit;
  alive : unit -> unit;
  finish : unit -> unit;
}

let outcome_of_verdict : Campaign.verdict -> Journal.outcome = function
  | Campaign.Benign -> Journal.Benign
  | Campaign.Latent -> Journal.Latent
  | Campaign.Sdc c -> Journal.Sdc c

(* A Byzantine verdict rewrite ({!Chaos.Lie}): deterministic in the
   drawn key, always different from the truth, applied before the frame
   is built — so the frame's CRC covers the lie and nothing on the wire
   can catch it. Benign flips to a fault verdict; every fault verdict
   flips to Benign, the most damaging lie (it hides real faults). *)
let lie k (o : Journal.outcome) : Journal.outcome =
  match o with
  | Journal.Benign -> if k land 1 = 0 then Journal.Latent else Journal.Sdc (1 + (k land 0xFF))
  | _ -> Journal.Benign

let connect host port =
  let addrs =
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
  in
  let addrs =
    if addrs = [] then
      [
        {
          Unix.ai_family = Unix.PF_INET;
          ai_socktype = Unix.SOCK_STREAM;
          ai_protocol = 0;
          ai_addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port);
          ai_canonname = "";
        };
      ]
    else addrs
  in
  let rec try_addrs = function
    | [] -> raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", host))
    | ai :: rest -> (
      let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype ai.Unix.ai_protocol in
      match Unix.connect fd ai.Unix.ai_addr with
      | () ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        fd
      | exception e ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if rest = [] then raise e else try_addrs rest)
  in
  try_addrs addrs

let run ~host ~port ~resolve ?name ?(heartbeat = 1.) ?(recv_timeout = 30.) ?(retries = 2)
    ?(retry_backoff = Backoff.retry_policy) ?(reconnect_backoff = Backoff.default_policy)
    ?(max_reconnects = 8) ?(results_per_frame = 64) ?(replay_frames = 32) ?readdress
    ?(should_stop = fun () -> false) ?chaos ?fault () =
  if heartbeat <= 0. then invalid_arg "Worker.run: heartbeat must be positive";
  if recv_timeout <= 0. then invalid_arg "Worker.run: recv_timeout must be positive";
  if retries < 0 then invalid_arg "Worker.run: retries must be non-negative";
  if max_reconnects < 0 then invalid_arg "Worker.run: max_reconnects must be non-negative";
  if results_per_frame < 1 then invalid_arg "Worker.run: results_per_frame must be positive";
  if replay_frames < 0 then invalid_arg "Worker.run: replay_frames must be non-negative";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
  in
  (* Jitter sources are seeded from the worker name: schedules differ
     across a fleet (no reconnect stampede) yet are stable per worker. *)
  let rbo = Backoff.create ~policy:reconnect_backoff (Prng.create (Hashtbl.hash (name, "rc"))) in
  let ebo = Backoff.create ~policy:retry_backoff (Prng.create (Hashtbl.hash (name, "xp"))) in
  let chunks = ref 0 in
  let submitted = ref 0 in
  let crashes = ref 0 in
  let reconnects = ref 0 in
  let failures = ref 0 in
  let redelivered = ref 0 in
  let epochs = ref 0 in
  (* The coordinator generation we last handshook with; -1 = never. *)
  let last_epoch = ref (-1) in
  (* Bounded buffer of the most recent Results frames sent: after a
     coordinator failover (epoch change) they are re-delivered wholesale.
     Verdicts the dead coordinator journaled deduplicate; verdicts it
     lost (accepted but not yet flushed, or in flight when it died) are
     recovered without re-running the experiments. *)
  let replay : Proto.msg Queue.t = Queue.create () in
  let remember msg =
    if replay_frames > 0 then begin
      Queue.push msg replay;
      while Queue.length replay > replay_frames do
        ignore (Queue.pop replay)
      done
    end
  in
  (* One engine per distinct campaign identity, cached across
     reconnects; the fault list is re-derived from the header's pinned
     master PRNG state — the same list every worker and the
     single-process engines compute. *)
  let cache : (Journal.header * engine * (int * int) array * Campaign.worker option ref) option ref
      =
    ref None
  in
  let resolve_cached header =
    match !cache with
    (* Modulo the epoch: a failed-over coordinator serves the same
       campaign under a new generation — no engine rebuild. *)
    | Some (h, e, s, w) when Journal.same_campaign h header -> (e, s, w)
    | _ ->
      let e = resolve header in
      if Campaign.total_cycles e.campaign <> header.Journal.cycles then
        invalid_arg "Worker.run: resolve built an engine with the wrong cycle horizon";
      let samples =
        Campaign.draw_samples e.campaign ~space:e.space
          ~rng:(Prng.restore header.Journal.prng)
          ~n:header.Journal.samples
      in
      let w = ref None in
      cache := Some (header, e, samples, w);
      (e, samples, w)
  in
  (* ---------------------------------------------------------------- *)
  (* Chunk execution. Each chunk streams its verdicts as Results frames *)
  (* of [results_per_frame], then [Chunk_done]; the lane kernels may    *)
  (* classify a whole lease window in one batch before streaming.       *)
  let check_pin { Proto.chunk_id; model; model_param; _ } own =
    if model <> Fault_model.id own || model_param <> Fault_model.param own then
      raise
        (Proto.Error
           (Printf.sprintf "chunk %d pins fault model %d:%d but the campaign is %s"
              chunk_id model model_param (Fault_model.name own)))
  in
  (* One chunk's verdict stream: [push] accumulates (and flushes full
     frames), [alive] heartbeats a long silence, [finish] flushes the
     tail and retires the lease with [Chunk_done]. *)
  let open_stream fd chunk_id =
    let last_sent = ref (Mono.now ()) in
    let tell msg =
      Proto.send ?chaos fd msg;
      last_sent := Mono.now ()
    in
    let acc = ref [] in
    let acc_n = ref 0 in
    let flush () =
      if !acc_n > 0 then begin
        let msg = Proto.Results { chunk_id; results = Array.of_list (List.rev !acc) } in
        tell msg;
        remember msg;
        (* Duplicate-verdict replay: deliver the frame twice and let the
           coordinator's dedup swallow the echo. *)
        (match Option.map (fun c -> Chaos.draw c Chaos.Exec) chaos with
        | Some Chaos.Duplicate -> tell msg
        | _ -> ());
        submitted := !submitted + !acc_n;
        acc := [];
        acc_n := 0
      end
    in
    let push idx outcome =
      (* Byzantine chaos: one Verdict-site draw per verdict reported.
         A [Lie] rewrites the outcome before it is accumulated — every
         downstream byte (frame, CRC, replay buffer) carries the lie. *)
      let outcome =
        match Option.map (fun c -> Chaos.draw c Chaos.Verdict) chaos with
        | Some (Chaos.Lie k) -> lie k outcome
        | _ -> outcome
      in
      acc := (idx, outcome) :: !acc;
      incr acc_n;
      if !acc_n >= results_per_frame then flush ()
    in
    let alive () =
      if Mono.now () -. !last_sent > heartbeat then
        if !acc_n > 0 then flush () else tell Proto.Heartbeat
    in
    let finish () =
      flush ();
      tell (Proto.Chunk_done { chunk_id });
      incr chunks
    in
    { push; flush; alive; finish }
  in
  let fault_hook ~chunk_id ~index ~attempt =
    match fault with
    | Some f -> f ~chunk_id ~index ~attempt
    | None -> ()
  in
  (* Infrastructure chaos around one experiment attempt: a [Crash]
     raises {!Chaos.Injected}, which the supervisor retries without
     consuming its retry budget — injected faults must never turn a
     healthy experiment into a [Crashed] verdict. *)
  let exec_chaos () =
    match Option.map (fun c -> Chaos.draw c Chaos.Exec) chaos with
    | Some Chaos.Crash -> raise (Chaos.Injected "experiment crashed")
    | Some (Chaos.Stall s) -> Unix.sleepf s
    | _ -> ()
  in
  (* Supervise one experiment like {!Durable}: chaos, then the test hook
     for [attempt], then [f]; a raising experiment is recovered and
     retried with backoff up to [retries] times, [None] once the budget
     is spent. *)
  let supervised ~retries ~hook ~recover f =
    Backoff.reset ebo;
    let rec attempt k =
      match
        exec_chaos ();
        hook k;
        f ()
      with
      | v -> Some v
      | exception Stop -> raise Stop
      | exception Chaos.Injected _ -> attempt k
      | exception _ ->
        recover ();
        if k < retries then begin
          Unix.sleepf (Backoff.next ebo);
          attempt (k + 1)
        end
        else None
    in
    attempt 0
  in
  (* The skip predicate splits a chunk into pruned and unpruned sample
     indices, each in ascending order. *)
  let partition engine samples { Proto.lo; hi; _ } =
    let skipped = ref [] and inject = ref [] in
    for idx = hi downto lo do
      let flop_id, cycle = samples.(idx) in
      match engine.skip with
      | Some f when f ~flop_id ~cycle -> skipped := idx :: !skipped
      | _ -> inject := idx :: !inject
    done;
    (!skipped, Array.of_list !inject)
  in
  (* A lane kernel's whole-batch injector and its recovery action. *)
  let lane_ops engine = function
    | Campaign.Delta_batched ->
      ( (fun faults -> Campaign.inject_delta_batch engine.campaign ~space:engine.space ~faults ()),
        fun () -> Campaign.reset_delta_batch_worker engine.campaign )
    | _ ->
      ( (fun faults -> Campaign.inject_batch engine.campaign ~faults ()),
        fun () -> Campaign.reset_lane_worker engine.campaign )
  in
  (* Stream one lane-classified chunk: pruned samples first, then the
     unpruned ones — [None] reports them [Crashed]. *)
  let emit_lane_chunk fd { Proto.chunk_id; _ } skipped inject verdicts =
    let s = open_stream fd chunk_id in
    List.iter (fun idx -> s.push idx Journal.Skipped) skipped;
    (match verdicts with
    | None ->
      crashes := !crashes + Array.length inject;
      Array.iter (fun idx -> s.push idx Journal.Crashed) inject
    | Some v -> Array.iteri (fun j idx -> s.push idx (outcome_of_verdict v.(j))) inject);
    s.finish ()
  in
  (* One chunk on a lane kernel, in one supervised batch. *)
  let run_lane_chunk fd engine samples (inject_all, recover) ({ Proto.chunk_id; _ } as chunk) =
    let skipped, inject = partition engine samples chunk in
    let verdicts =
      if Array.length inject = 0 then Some [||]
      else
        supervised ~retries ~recover
          ~hook:(fun attempt -> fault_hook ~chunk_id ~index:inject.(0) ~attempt)
          (fun () -> inject_all (Array.map (fun idx -> samples.(idx)) inject))
    in
    emit_lane_chunk fd chunk skipped inject verdicts
  in
  (* A lease window on a lane kernel: the union of every chunk's
     unpruned samples in one batch, so the lanes stay full and the
     window shares one sweep. Any failure of the merged batch (other
     than injected chaos) falls back to the per-chunk path for every
     chunk, which attributes [Crashed] verdicts and retries per chunk
     exactly as a one-chunk window does. *)
  let run_lane_window fd engine samples ((inject_all, recover) as ops) window =
    let parts = List.map (fun chunk -> (chunk, partition engine samples chunk)) window in
    let faults =
      Array.map (fun idx -> samples.(idx)) (Array.concat (List.map (fun (_, (_, i)) -> i) parts))
    in
    let merged =
      if Array.length faults = 0 then Some [||]
      else
        supervised ~retries:0 ~recover
          ~hook:(fun attempt ->
            List.iter
              (fun ({ Proto.chunk_id; _ }, (_, inject)) ->
                if Array.length inject > 0 then fault_hook ~chunk_id ~index:inject.(0) ~attempt)
              parts)
          (fun () -> inject_all faults)
    in
    match merged with
    | None -> List.iter (run_lane_chunk fd engine samples ops) window
    | Some verdicts ->
      ignore
        (List.fold_left
           (fun off (chunk, (skipped, inject)) ->
             let n = Array.length inject in
             emit_lane_chunk fd chunk skipped inject (Some (Array.sub verdicts off n));
             off + n)
           0 parts)
  in
  (* One chunk on a per-fault kernel (scalar or delta), streaming each
     verdict as it appears. *)
  let run_fault_chunk fd engine samples cworker kernel { Proto.chunk_id; lo; hi; _ } =
    let fresh_scalar () =
      let w = Campaign.fresh_worker engine.campaign in
      cworker := Some w;
      w
    in
    let get_scalar () =
      match !cworker with
      | Some w -> w
      | None -> fresh_scalar ()
    in
    (* The two per-fault kernels share the chunk loop; they differ only
       in the injector and in how a crashed worker is recovered. *)
    let inject, recover =
      match kernel with
      | Campaign.Scalar ->
        ( (fun ~flop_id ~cycle ->
            Campaign.inject_fault engine.campaign (get_scalar ()) ~space:engine.space ~key:flop_id
              ~cycle),
          fun () -> ignore (fresh_scalar ()) )
      | _ ->
        ( (fun ~flop_id ~cycle ->
            Campaign.inject_fault_delta engine.campaign ~space:engine.space ~key:flop_id ~cycle),
          fun () -> Campaign.reset_delta_worker engine.campaign )
    in
    let s = open_stream fd chunk_id in
    for idx = lo to hi do
      if should_stop () then begin
        s.flush ();
        raise Stop
      end;
      let flop_id, cycle = samples.(idx) in
      match engine.skip with
      | Some f when f ~flop_id ~cycle -> s.push idx Journal.Skipped
      | _ ->
        (match
           supervised ~retries ~recover
             ~hook:(fun attempt -> fault_hook ~chunk_id ~index:idx ~attempt)
             (fun () -> inject ~flop_id ~cycle)
         with
        | None ->
          incr crashes;
          s.push idx Journal.Crashed
        | Some v -> s.push idx (outcome_of_verdict v));
        s.alive ()
    done;
    s.finish ()
  in
  (* The chunks of one lease window, in lease order (a one-chunk window
     for the per-fault kernels and for chunks of [window_samples] or
     more). *)
  let run_window fd engine samples cworker kernel window =
    List.iter (fun chunk -> check_pin chunk engine.space.Fault_space.model) window;
    match kernel with
    | Campaign.Batched | Campaign.Delta_batched -> (
      let ops = lane_ops engine kernel in
      match window with
      | [ chunk ] -> run_lane_chunk fd engine samples ops chunk
      | _ -> run_lane_window fd engine samples ops window)
    | Campaign.Scalar | Campaign.Delta ->
      List.iter (run_fault_chunk fd engine samples cworker kernel) window
  in
  (* ---------------------------------------------------------------- *)
  (* One session: handshake, then pull work until Done/Stop/error.     *)
  (* Mirror of the coordinator's write_timeout on our read side: a
     coordinator that stops talking mid-reply (half-dead, slow-loris)
     raises [Proto.Error] here, which the outer loop treats as a lost
     session — backoff and reconnect instead of hanging forever. *)
  let recv fd = Proto.recv ~deadline:(Mono.now () +. recv_timeout) ?chaos fd in
  let suspicion = ref 0 in
  let session fd =
    Proto.send ?chaos fd (Proto.Hello { version = Proto.version; name; epoch = !last_epoch });
    match recv fd with
    | Proto.Welcome { header; suspicion = susp } ->
      (* Our own standing as the coordinator sees it: a worker past the
         quarantine threshold keeps working (its chunks are simply
         always cross-validated) but the score is surfaced in the
         report for operators. *)
      suspicion := susp;
      let engine, samples, cworker = resolve_cached header in
      let ep = header.Journal.epoch in
      if ep <> !last_epoch then begin
        incr epochs;
        if !last_epoch >= 0 then begin
          (* A different generation answered: the coordinator we lost is
             gone, its lease state with it. Drop ours (any in-flight
             chunk will be re-assigned) and re-deliver the buffered
             Results frames — first-verdict-wins dedup makes this safe,
             and it saves the new coordinator re-running whatever the
             old one died holding. *)
          Queue.iter (fun msg -> Proto.send ?chaos fd msg) replay;
          redelivered := !redelivered + Queue.length replay
        end;
        last_epoch := ep
      end;
      (* Handshake complete: the coordinator is reachable and sane, so
         reconnect accounting starts afresh. *)
      failures := 0;
      Backoff.reset rbo;
      let kernel = Campaign.effective_kernel ~model:engine.space.Fault_space.model engine.kernel in
      let lanes = kernel = Campaign.Batched || kernel = Campaign.Delta_batched in
      (* A lane kernel given a chunk of s < [window_samples] samples asks
         for ceil(window_samples / s) - 1 more leases back to back, then
         reads every reply: an [Assign] of any purpose joins the window,
         [Wait] is skipped, [Done] ends the session once the window is
         through. Returns the window in lease order. *)
      let gather first =
        let s = first.Proto.hi - first.Proto.lo + 1 in
        if (not lanes) || s >= window_samples then ([ first ], false)
        else begin
          let extra = ((window_samples + s - 1) / s) - 1 in
          for _ = 1 to extra do
            Proto.send ?chaos fd Proto.Request
          done;
          let rec replies acc finished k =
            if k = 0 then (List.rev acc, finished)
            else
              match recv fd with
              | Proto.Assign chunk -> replies (chunk :: acc) finished (k - 1)
              | Proto.Wait -> replies acc finished (k - 1)
              | Proto.Done -> replies acc true (k - 1)
              | Proto.Heartbeat -> replies acc finished k
              | _ -> raise (Proto.Error "unexpected message from coordinator")
          in
          replies [ first ] false extra
        end
      in
      let rec loop () =
        if should_stop () then raise Stop;
        Proto.send ?chaos fd Proto.Request;
        match recv fd with
        | Proto.Assign chunk ->
          let window, finished = gather chunk in
          run_window fd engine samples cworker kernel window;
          if finished then Campaign_done else loop ()
        | Proto.Wait ->
          Unix.sleepf 0.1;
          loop ()
        | Proto.Done -> Campaign_done
        | Proto.Heartbeat -> loop ()
        | _ -> raise (Proto.Error "unexpected message from coordinator")
      in
      loop ()
    | _ -> raise (Proto.Error "expected Welcome")
  in
  let result = ref None in
  let cur_host = ref host and cur_port = ref port in
  (* A supervised coordinator may come back on a different ephemeral
     port: re-read the advertised address (the port file) before every
     connection attempt. A readdress failure (file mid-rewrite, not yet
     written by the restarting coordinator) just keeps the old address
     for this attempt. *)
  let refresh_address () =
    match readdress with
    | None -> ()
    | Some f -> (
      match (try f () with _ -> None) with
      | Some (h, p) ->
        cur_host := h;
        cur_port := p
      | None -> ())
  in
  while !result = None do
    if should_stop () then result := Some Stopped
    else begin
      refresh_address ();
      match connect !cur_host !cur_port with
      | exception Unix.Unix_error (e, _, _) ->
        incr failures;
        if !failures > max_reconnects then
          result := Some (Gave_up ("cannot reach coordinator: " ^ Unix.error_message e))
        else Unix.sleepf (Backoff.next rbo)
      | fd -> (
        let close () = try Unix.close fd with Unix.Unix_error _ -> () in
        match session fd with
        | ended ->
          close ();
          result := Some ended
        | exception Stop ->
          close ();
          result := Some Stopped
        | exception (Proto.Closed | Proto.Error _ | Unix.Unix_error _) ->
          (* Lost session: any chunk in flight is abandoned here and
             re-dispatched by the coordinator's lease machinery; our
             already-submitted verdicts deduplicate over there. *)
          close ();
          incr reconnects;
          incr failures;
          if !failures > max_reconnects then result := Some (Gave_up "connection lost")
          else Unix.sleepf (Backoff.next rbo))
    end
  done;
  {
    ended = Option.get !result;
    chunks = !chunks;
    submitted = !submitted;
    crashes = !crashes;
    reconnects = !reconnects;
    redelivered = !redelivered;
    epochs = !epochs;
    suspicion = !suspicion;
  }
