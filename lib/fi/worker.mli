(** A stateless campaign worker.

    A worker connects to a {!Coordinator}, learns the campaign identity
    from the [Welcome] header, builds (or reuses) a local engine through
    the caller's [resolve] callback, re-derives the exact fault list from
    the header's pinned PRNG state ({!Campaign.draw_samples}), and then
    pulls chunk leases and streams verdicts back until the coordinator
    says [Done].

    Workers hold no campaign state the coordinator depends on: killing
    one — SIGKILL included — costs at most the un-submitted remainder of
    its current lease window (at most max(chunk, 252 + chunk − 1)
    samples), which the coordinator re-dispatches. Conversely a
    worker outliving its coordinator reconnects with capped exponential
    backoff ({!Pruning_util.Backoff}) and gives up cleanly after
    [max_reconnects] consecutive failures.

    Verdict production reuses the single-process engines unchanged
    (scalar {!Campaign.inject_with}, the lane-parallel
    {!Campaign.inject_batch}, the activity-gated
    {!Campaign.inject_delta} or the batched-delta
    {!Campaign.inject_delta_batch}); since all four produce
    bit-identical verdicts, a fleet may freely mix workers running
    different kernels. [Batched] runs non-[Seu] models on the scalar
    engine ({!Campaign.effective_kernel}). The delta-family workers
    share the golden baseline recorded once per campaign identity
    (cached by header across reconnects and chunk re-execution; see
    {!Campaign.golden_trace}).
    Experiments are
    supervised exactly like {!Durable}: a raising experiment is retried
    on a fresh system with backoff, a persistent failure is reported as
    [Crashed].

    {b Lease windows.} The lane kernels ([Delta_batched], and [Batched]
    under [Seu]; see {!Campaign.effective_kernel}) fill their lanes
    across chunks. Given a chunk of s < 252 samples (four passes of
    {!Campaign.max_delta_lanes}), the worker sends ceil(252 / s) − 1
    further [Request]s back to back and reads every reply: an [Assign]
    of any purpose joins the window, [Wait] is skipped, [Done] ends the
    session once the window is through. The unpruned samples of the
    whole window are classified in one supervised lane batch; if that
    batch fails, every chunk of the window is rerun on the per-chunk
    path, so [Crashed] verdicts and retries stay attributed per chunk.
    Each chunk then streams exactly the frames a one-chunk worker sends
    (its Results frames, then [Chunk_done]), in lease order. Chunks of
    252 samples or more, and the per-fault kernels, take one lease at a
    time. *)

type engine = {
  campaign : Campaign.t;
  space : Fault_space.t;
  skip : (flop_id:int -> cycle:int -> bool) option;
      (** the local pruner; must be the same deterministic predicate on
          every worker (quarantine-free), or verdicts will mismatch *)
  kernel : Campaign.kernel;
      (** which classification engine this worker drives; any mix across
          a fleet yields identical verdicts *)
}

type ended =
  | Campaign_done  (** the coordinator reported the campaign complete *)
  | Stopped  (** [should_stop] returned true *)
  | Gave_up of string  (** [max_reconnects] consecutive failures *)

type report = {
  ended : ended;
  chunks : int;  (** chunks fully processed and acknowledged *)
  submitted : int;  (** verdict records sent *)
  crashes : int;  (** experiments reported [Crashed] *)
  reconnects : int;  (** sessions lost and re-established *)
  redelivered : int;  (** Results frames replayed into a new epoch *)
  epochs : int;  (** distinct coordinator generations handshook with *)
  suspicion : int;
      (** this worker's reputation score as reported by the last
          [Welcome] — non-zero means the coordinator has evidence
          against this name (arbitration losses, corrupt frames, lease
          expiries) *)
}

val run :
  host:string ->
  port:int ->
  resolve:(Journal.header -> engine) ->
  ?name:string ->
  ?heartbeat:float ->
  ?recv_timeout:float ->
  ?retries:int ->
  ?retry_backoff:Pruning_util.Backoff.policy ->
  ?reconnect_backoff:Pruning_util.Backoff.policy ->
  ?max_reconnects:int ->
  ?results_per_frame:int ->
  ?replay_frames:int ->
  ?readdress:(unit -> (string * int) option) ->
  ?should_stop:(unit -> bool) ->
  ?chaos:Chaos.t ->
  ?fault:(chunk_id:int -> index:int -> attempt:int -> unit) ->
  unit ->
  report
(** Work for the coordinator at [host]:[port] until the campaign is done.

    [resolve] builds the engine for a campaign identity — typically a
    core/program lookup plus a deterministic MATE-pruner build when
    [header.prune] is set; it runs once per distinct header (cached
    across reconnects) and may raise to refuse an unknown identity
    (the exception escapes [run]). [name] (default ["worker-PID"])
    identifies the worker in coordinator logs and must be unique per
    connection. [heartbeat] (default [1.]) is the maximum silence
    between frames while computing; keep it well under the
    coordinator's lease. [recv_timeout] (default [30.]) is the read
    deadline mirroring the coordinator's write timeout: a coordinator
    silent that long mid-reply counts as a lost session and the worker
    backs off and reconnects instead of hanging. [retries] /
    [retry_backoff] supervise each experiment like {!Durable.run}.
    [reconnect_backoff] / [max_reconnects] (default 8) pace session
    re-establishment — the counter resets after every successful
    handshake. [results_per_frame] (default 64) batches verdict
    streaming. [should_stop] is polled between experiments for
    cooperative shutdown.

    {b Coordinator failover.} The worker remembers the coordinator
    epoch it last handshook with and announces it in every [Hello].
    When a reconnect lands on a {e different} epoch (a supervised
    coordinator died and was resumed), the worker drops its stale lease
    assumptions and re-delivers its [replay_frames] (default 32) most
    recent Results frames — verdicts the dead coordinator journaled
    deduplicate, verdicts it lost are recovered without re-running the
    experiments. [readdress] (called before every connection attempt,
    exceptions treated as "no change") lets a worker follow a
    coordinator that came back on a different port, e.g. by re-reading
    the port file a supervised [serve] rewrites on every restart.

    [chaos] arms this worker's deterministic fault plan: network chaos
    on every frame sent and received, execution chaos around every
    experiment attempt (a {!Chaos.Injected} crash is retried without
    consuming the retry budget, so chaos never manufactures [Crashed]
    verdicts), and duplicate-verdict replay at results flushes. [fault]
    is a test-only hook called before every experiment attempt; an
    exception it raises is handled exactly like a crashed experiment. *)
