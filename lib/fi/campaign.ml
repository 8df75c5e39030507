module Netlist = Pruning_netlist.Netlist
module Sim = Pruning_sim.Sim
module Bitsim = Pruning_sim.Bitsim
module Deltasim = Pruning_sim.Deltasim
module Deltabatch = Pruning_sim.Deltabatch
module Trace = Pruning_sim.Trace
module System = Pruning_cpu.System
module Memory = Pruning_cpu.Memory
module Prng = Pruning_util.Prng

type verdict =
  | Benign
  | Latent
  | Sdc of int

(* The four interchangeable classification engines. All are
   verdict-bit-identical (SDC cycles included); they differ only in how
   they spend the machine. *)
type kernel =
  | Scalar  (** one fault at a time, full netlist eval per cycle *)
  | Batched  (** 62 faults per pass in the bit-lanes of one simulation *)
  | Delta  (** one fault at a time, only the fault cone re-evaluated *)
  | Delta_batched  (** 63 faults per pass, one shared golden delta baseline *)

let kernel_name = function
  | Scalar -> "scalar"
  | Batched -> "batched"
  | Delta -> "delta"
  | Delta_batched -> "delta-batched"

let kernel_of_string = function
  | "scalar" -> Some Scalar
  | "batched" -> Some Batched
  | "delta" -> Some Delta
  | "delta-batched" -> Some Delta_batched
  | _ -> None

(* The bit-lane engine carries exactly one flop flip per lane, so
   non-SEU models fall back to the scalar reference injector (the one
   model -> kernel remap, shared by every runner). *)
let effective_kernel ~model kernel =
  match (model, kernel) with
  | Fault_model.Seu, k -> k
  | _, Batched -> Scalar
  | _, k -> k

(* A memo key is the exact architectural difference from the golden run at
   a checkpoint: (checkpoint index, differing flops with their faulty
   values, differing RAM cells with their faulty values), both in
   ascending index order. The simulator is deterministic, so equal state
   at an equal cycle implies an identical remainder of the run — the
   verdict can be replayed from the table instead of re-simulated. *)
type memo_key = int * (int * bool) list * (int * int) list

type worker = {
  w_sys : System.t;
  w_restores : (unit -> unit) array;
      (* w_restores.(i) rewinds w_sys to the start of cycle i*interval *)
}

(* Lane-parallel worker: a Bitsim system plus its own checkpoint
   snapshots, rebuilt once by replaying the golden prefix with all lanes
   in lockstep. *)
type lane_worker = {
  lw_sys : System.lanes;
  lw_restores : (unit -> unit) array;
}

type t = {
  make : unit -> System.t;
  make_lanes : (unit -> System.lanes) option;
  make_delta : (trace:Trace.t -> System.delta) option;
  make_delta_batch : (trace:Trace.t -> System.delta_batch) option;
  mutable lane_worker : lane_worker option;  (* built lazily on first batched run *)
  mutable delta_worker : System.delta option;  (* built lazily on first delta run *)
  mutable delta_batch_worker : System.delta_batch option;  (* lazy, first batched-delta run *)
  golden_trace : Trace.t;
      (* every wire of the golden run, recorded by [create]'s golden
         loop: the scalar engine's per-cycle output reference and the
         baseline every delta-family worker shares across worker
         resets, durable shards and distributed chunk retries *)
  total_cycles : int;
  interval : int;  (* checkpoint spacing in cycles *)
  out_wires : int array;
  golden_flops : bool array;  (** at horizon *)
  golden_ram : int array;  (** at horizon *)
  cp_flops : bool array array;  (** golden flop state per checkpoint *)
  cp_ram : int array array;  (** golden RAM per checkpoint *)
  memo : (memo_key, verdict) Hashtbl.t;
      (* shared across workers: one domain's classified divergence state
         short-circuits every other domain's matching runs *)
  memo_lock : Mutex.t;
  primary : worker;  (** worker for the calling domain (not domain-safe) *)
}

let output_wires nl =
  List.concat_map
    (fun (p : Netlist.port) -> Array.to_list p.Netlist.port_wires)
    nl.Netlist.outputs
  |> Array.of_list

let read_flops sim nl =
  Array.map (fun (f : Netlist.flop) -> Sim.peek sim f.Netlist.q) nl.Netlist.flops

let create ?checkpoint_interval ?make_lanes ?make_delta ?make_delta_batch ~make ~total_cycles () =
  if total_cycles <= 0 then invalid_arg "Campaign.create: total_cycles must be positive";
  let interval =
    match checkpoint_interval with
    | Some k ->
      if k <= 0 then invalid_arg "Campaign.create: checkpoint_interval must be positive";
      k
    | None -> max 1 (total_cycles / 64)
  in
  let n_cp = 1 + ((total_cycles - 1) / interval) in
  let sys = make () in
  let sim = sys.System.sim in
  let nl = sys.System.netlist in
  let out_wires = output_wires nl in
  let golden_trace = Trace.create ~n_wires:(Netlist.n_wires nl) in
  let cp_flops = Array.make n_cp [||] in
  let cp_ram = Array.make n_cp [||] in
  let restores = Array.make n_cp (fun () -> ()) in
  for cycle = 0 to total_cycles - 1 do
    if cycle mod interval = 0 then begin
      let i = cycle / interval in
      cp_flops.(i) <- read_flops sim nl;
      cp_ram.(i) <- Array.copy sys.System.ram;
      restores.(i) <- System.save_state sys
    end;
    Sim.eval sim;
    Sim.record_row sim golden_trace;
    Sim.latch sim
  done;
  Sim.eval sim;
  {
    make;
    make_lanes;
    make_delta;
    make_delta_batch;
    lane_worker = None;
    delta_worker = None;
    delta_batch_worker = None;
    golden_trace;
    total_cycles;
    interval;
    out_wires;
    golden_flops = read_flops sim nl;
    golden_ram = Array.copy sys.System.ram;
    cp_flops;
    cp_ram;
    memo = Hashtbl.create 256;
    memo_lock = Mutex.create ();
    primary = { w_sys = sys; w_restores = restores };
  }

let checkpoint_interval t = t.interval
let total_cycles t = t.total_cycles

(* A fresh worker for another domain: its own system plus its own
   checkpoint snapshots, rebuilt by replaying the golden run up to the
   last checkpoint (the prefix cost is paid once per worker and amortized
   over all its injections). *)
let fresh_worker t =
  let sys = t.make () in
  let sim = sys.System.sim in
  let n_cp = Array.length t.cp_flops in
  let restores = Array.make n_cp (fun () -> ()) in
  restores.(0) <- System.save_state sys;
  for cycle = 1 to (n_cp - 1) * t.interval do
    Sim.step sim ();
    if cycle mod t.interval = 0 then restores.(cycle / t.interval) <- System.save_state sys
  done;
  { w_sys = sys; w_restores = restores }

(* The golden outputs are read straight off the packed trace row. *)
let outputs_match t sim cycle =
  let golden = Trace.row_bytes t.golden_trace ~cycle in
  let n = Array.length t.out_wires in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let w = t.out_wires.(!i) in
    let g = Char.code (Bytes.unsafe_get golden (w lsr 3)) land (1 lsl (w land 7)) <> 0 in
    if Sim.peek sim w <> g then ok := false;
    incr i
  done;
  !ok

(* Bound on tracked state differences: larger diffs (e.g. a derailed PC
   smearing state everywhere) almost never recur exactly, so memoizing
   them would only cost memory. *)
let max_memo_diff = 32
let max_memo_entries = 1 lsl 20

(* Architectural diff of the worker's current state against the golden
   state at checkpoint [cp]; [None] when more than [max_memo_diff] cells
   differ. [Some ([], [])] means the faulty run has re-converged. *)
let state_diff t w ~cp =
  let sim = w.w_sys.System.sim in
  let flops = w.w_sys.System.netlist.Netlist.flops in
  let gf = t.cp_flops.(cp) in
  let gr = t.cp_ram.(cp) in
  let ram = w.w_sys.System.ram in
  let exception Too_big in
  try
    let count = ref 0 in
    let fd = ref [] in
    for i = Array.length flops - 1 downto 0 do
      let v = Sim.peek sim flops.(i).Netlist.q in
      if v <> gf.(i) then begin
        incr count;
        if !count > max_memo_diff then raise Too_big;
        fd := (i, v) :: !fd
      end
    done;
    let rd = ref [] in
    for a = Array.length ram - 1 downto 0 do
      if ram.(a) <> gr.(a) then begin
        incr count;
        if !count > max_memo_diff then raise Too_big;
        rd := (a, ram.(a)) :: !rd
      end
    done;
    Some (!fd, !rd)
  with Too_big -> None

exception Budget_exceeded

let inject_with ?budget t w ~flop_id ~cycle =
  if cycle < 0 || cycle >= t.total_cycles then invalid_arg "Campaign.inject: cycle out of range";
  let sys = w.w_sys in
  let sim = sys.System.sim in
  let nl = sys.System.netlist in
  (* Cooperative watchdog: charge every simulated cycle (prefix replay
     included) against the caller's budget. The raise may abandon the
     worker mid-run, which is safe — every injection starts by restoring
     a checkpoint. *)
  let used = ref 0 in
  let charge =
    match budget with
    | None -> fun () -> ()
    | Some b ->
      fun () ->
        incr used;
        if !used > b then raise Budget_exceeded
  in
  (* Rewind to the nearest checkpoint at or before the injection cycle and
     replay the (fault-free) remainder of the prefix. *)
  let cp = cycle / t.interval in
  w.w_restores.(cp) ();
  for _ = 1 to cycle - (cp * t.interval) do
    charge ();
    Sim.step sim ()
  done;
  Sim.eval sim;
  Sim.set_flop sim flop_id (not (Sim.get_flop sim flop_id));
  (* Continue, watching the outputs; at every checkpoint boundary compare
     the architectural state against the golden run to (a) return Benign
     as soon as the fault has been fully masked and (b) reuse or record a
     memoized verdict for the exact remaining divergence. *)
  let result = ref None in
  let pending = ref [] in
  let c = ref cycle in
  while !result = None && !c < t.total_cycles do
    if !c mod t.interval = 0 then begin
      let i = !c / t.interval in
      match state_diff t w ~cp:i with
      | Some ([], []) -> result := Some Benign
      | Some (fd, rd) -> (
        let key = (i, fd, rd) in
        Mutex.lock t.memo_lock;
        let hit = Hashtbl.find_opt t.memo key in
        Mutex.unlock t.memo_lock;
        match hit with
        | Some v -> result := Some v
        | None -> pending := key :: !pending)
      | None -> ()
    end;
    if !result = None then begin
      Sim.eval sim;
      if not (outputs_match t sim !c) then result := Some (Sdc !c)
      else begin
        charge ();
        Sim.latch sim;
        incr c
      end
    end
  done;
  let verdict =
    match !result with
    | Some v -> v
    | None ->
      Sim.eval sim;
      (* Allocation-free horizon comparison: walk flops and RAM in place
         instead of materializing a flop array per injection. *)
      let flops = nl.Netlist.flops in
      let ram = sys.System.ram in
      let same = ref true in
      let i = ref 0 in
      let nf = Array.length flops in
      while !same && !i < nf do
        if Sim.peek sim flops.(!i).Netlist.q <> t.golden_flops.(!i) then same := false;
        incr i
      done;
      let a = ref 0 in
      let na = Array.length ram in
      while !same && !a < na do
        if ram.(!a) <> t.golden_ram.(!a) then same := false;
        incr a
      done;
      if !same then Benign else Latent
  in
  if !pending <> [] then begin
    Mutex.lock t.memo_lock;
    if Hashtbl.length t.memo < max_memo_entries then
      List.iter (fun key -> Hashtbl.replace t.memo key verdict) !pending;
    Mutex.unlock t.memo_lock
  end;
  verdict

let inject t ~flop_id ~cycle = inject_with t t.primary ~flop_id ~cycle
let primary_worker t = t.primary

(* The golden baseline shared by the delta-family engines, recorded
   during [create]'s golden run. The trace is immutable, so worker
   resets (crash recovery), durable shards and distributed chunk
   re-execution all reuse it instead of re-simulating golden. Also
   consulted by the scalar intermittent injector, which needs per-cycle
   golden flop values to re-arm against. *)
let golden_trace t = t.golden_trace

(* Generalized scalar injection: flip every member flop of the model's
   expansion at the injection cycle, and for a hold window > 1 re-arm
   each member to the complement of its golden Q at the top of every
   window cycle (intermittent stuck-at semantics; the golden values come
   from the shared recorded trace). The verdict protocol is exactly
   [inject_with]'s, with one extra guard: memo reads/writes and Benign
   re-convergence retirement are disabled until the last forced cycle —
   while future forcing is still pending, equal-state-implies-equal-
   remainder does not hold, and the memo table is shared across models.
   For hold = 1 the guard is vacuous and single-member expansions
   retrace [inject_with] decision-for-decision. *)
let inject_expanded ?budget t w ~space ~key ~cycle =
  if cycle < 0 || cycle >= t.total_cycles then invalid_arg "Campaign.inject: cycle out of range";
  let members = Fault_space.expand space key in
  (* A pulse nothing latches (empty SET cone): bit-exact golden run. *)
  if Array.length members = 0 then Benign
  else begin
    let hold = Fault_space.hold space in
    let window_end = min t.total_cycles (cycle + hold) in
    let trace = if hold > 1 then Some (golden_trace t) else None in
    let sys = w.w_sys in
    let sim = sys.System.sim in
    let nl = sys.System.netlist in
    let used = ref 0 in
    let charge =
      match budget with
      | None -> fun () -> ()
      | Some b ->
        fun () ->
          incr used;
          if !used > b then raise Budget_exceeded
    in
    let cp = cycle / t.interval in
    w.w_restores.(cp) ();
    for _ = 1 to cycle - (cp * t.interval) do
      charge ();
      Sim.step sim ()
    done;
    Sim.eval sim;
    Array.iter (fun fid -> Sim.set_flop sim fid (not (Sim.get_flop sim fid))) members;
    let result = ref None in
    let pending = ref [] in
    let c = ref cycle in
    while !result = None && !c < t.total_cycles do
      (match trace with
      | Some trace when !c > cycle && !c < window_end ->
        (* Re-arm: the state at the top of cycle !c is whatever the
           faulty machine latched, except the held flops are forced to
           the complement of their golden Q this cycle. *)
        Array.iter
          (fun fid ->
            Sim.set_flop sim fid (not (Trace.get trace ~cycle:!c nl.Netlist.flops.(fid).Netlist.q)))
          members
      | _ -> ());
      if !c mod t.interval = 0 && !c >= window_end - 1 then begin
        let i = !c / t.interval in
        match state_diff t w ~cp:i with
        | Some ([], []) -> result := Some Benign
        | Some (fd, rd) -> (
          let key = (i, fd, rd) in
          Mutex.lock t.memo_lock;
          let hit = Hashtbl.find_opt t.memo key in
          Mutex.unlock t.memo_lock;
          match hit with
          | Some v -> result := Some v
          | None -> pending := key :: !pending)
        | None -> ()
      end;
      if !result = None then begin
        Sim.eval sim;
        if not (outputs_match t sim !c) then result := Some (Sdc !c)
        else begin
          charge ();
          Sim.latch sim;
          incr c
        end
      end
    done;
    let verdict =
      match !result with
      | Some v -> v
      | None ->
        Sim.eval sim;
        let flops = nl.Netlist.flops in
        let ram = sys.System.ram in
        let same = ref true in
        let i = ref 0 in
        let nf = Array.length flops in
        while !same && !i < nf do
          if Sim.peek sim flops.(!i).Netlist.q <> t.golden_flops.(!i) then same := false;
          incr i
        done;
        let a = ref 0 in
        let na = Array.length ram in
        while !same && !a < na do
          if ram.(!a) <> t.golden_ram.(!a) then same := false;
          incr a
        done;
        if !same then Benign else Latent
    in
    if !pending <> [] then begin
      Mutex.lock t.memo_lock;
      if Hashtbl.length t.memo < max_memo_entries then
        List.iter (fun key -> Hashtbl.replace t.memo key verdict) !pending;
      Mutex.unlock t.memo_lock
    end;
    verdict
  end

(* ------------------------------------------------------------------ *)
(* Lane-parallel batched injection (PPSFP): lane 0 of a Bitsim worker
   replays the golden run, lanes 1..N each carry one pending fault. All
   comparisons are XOR-against-lane-0 masks, so one word operation
   checks every lane at once; verdict semantics are exactly the scalar
   engine's (the differential tests assert bit-identical results,
   divergence cycles included). *)

let fresh_lane_worker t make_lanes =
  let sys = make_lanes () in
  let bsim = sys.System.l_bsim in
  let n_cp = Array.length t.cp_flops in
  let restores = Array.make n_cp (fun () -> ()) in
  restores.(0) <- System.save_lanes_state sys;
  for cycle = 1 to (n_cp - 1) * t.interval do
    Bitsim.step bsim;
    if cycle mod t.interval = 0 then restores.(cycle / t.interval) <- System.save_lanes_state sys
  done;
  { lw_sys = sys; lw_restores = restores }

let lane_worker t =
  match t.lane_worker with
  | Some w -> w
  | None ->
    let make_lanes =
      match t.make_lanes with
      | Some f -> f
      | None ->
        invalid_arg "Campaign: batched injection needs ~make_lanes at Campaign.create"
    in
    let w = fresh_lane_worker t make_lanes in
    t.lane_worker <- Some w;
    w

(* Bit l of [v] as a full-width mask of lane 0's bit: a wire packed word
   XORed with [replicate_lane0 v] has bit l set iff lane l disagrees
   with the golden lane. *)
let replicate_lane0 v = -(v land 1)

let rec lsb_index v i = if v land 1 = 1 then i else lsb_index (v lsr 1) (i + 1)

(* One pass over the horizon: restore the checkpoint covering the
   earliest queued fault, then run forward, filling free lanes with
   queued faults whose injection cycle has not passed yet, flipping each
   lane's flop at its cycle, retiring lanes at checkpoint boundaries
   (re-convergence -> Benign, memo hit -> replayed verdict) and on
   output divergence (-> Sdc), and classifying survivors at the horizon.
   Returns the queue of faults whose injection cycle was overtaken
   before a lane freed up (classified by the next pass). *)
let run_lane_pass t lw ~lanes faults verdicts queue =
  let sys = lw.lw_sys in
  let bsim = sys.System.l_bsim in
  let nl = sys.System.l_netlist in
  let ram = sys.System.l_ram in
  let flops = nl.Netlist.flops in
  let n_flops = Array.length flops in
  let cp = (snd faults.(List.hd queue)) / t.interval in
  lw.lw_restores.(cp) ();
  let lane_fault = Array.make (lanes + 1) (-1) in
  let lane_pending = Array.make (lanes + 1) [] in
  let active = ref 0 in
  let injected = ref 0 in
  let free = ref (List.init lanes (fun i -> i + 1)) in
  let pending_q = ref queue in
  let leftover = ref [] in
  let c = ref (cp * t.interval) in
  let to_reset = ref 0 in
  let retire lane verdict =
    verdicts.(lane_fault.(lane)) <- verdict;
    (match lane_pending.(lane) with
    | [] -> ()
    | keys ->
      Mutex.lock t.memo_lock;
      if Hashtbl.length t.memo < max_memo_entries then
        List.iter (fun key -> Hashtbl.replace t.memo key verdict) keys;
      Mutex.unlock t.memo_lock;
      lane_pending.(lane) <- []);
    lane_fault.(lane) <- -1;
    let m = lnot (1 lsl lane) in
    active := !active land m;
    injected := !injected land m;
    to_reset := !to_reset lor (1 lsl lane);
    free := lane :: !free
  in
  (* Re-synchronize retired lanes with the golden lane so they stop
     producing divergence noise and can host the next fault. Deferred to
     just after the latch edge: [Bitsim.reset_lane] only rewrites flop Qs
     and primary inputs, so resetting before the latch would let the
     lane's stale faulty D values (and clocked device writes) leak right
     back into the supposedly clean lane. *)
  let flush_resets () =
    if !to_reset <> 0 then begin
      for lane = 1 to lanes do
        if !to_reset land (1 lsl lane) <> 0 then begin
          Bitsim.reset_lane bsim ~lane;
          Memory.lane_reset ram ~lane
        end
      done;
      to_reset := 0
    end
  in
  let flop_diff_mask () =
    let acc = ref 0 in
    for i = 0 to n_flops - 1 do
      let v = Bitsim.peek bsim flops.(i).Netlist.q in
      acc := !acc lor (v lxor replicate_lane0 v)
    done;
    !acc
  in
  (* Per-lane architectural diff against lane 0 at a checkpoint
     boundary: Benign retirement for re-converged lanes, memo lookup for
     small divergences — the batched mirror of [state_diff]. *)
  let boundary_check () =
    let flop_diff = flop_diff_mask () in
    let ram_mask = Memory.lane_diff_mask ram in
    let diff_mask = (flop_diff lor ram_mask) land !injected in
    let benign_mask = !injected land lnot diff_mask in
    if benign_mask <> 0 then
      for lane = 1 to lanes do
        if benign_mask land (1 lsl lane) <> 0 then retire lane Benign
      done;
    if diff_mask <> 0 then begin
      let counts = Array.make (lanes + 1) 0 in
      let fd = Array.make (lanes + 1) [] in
      let over = ref 0 in
      for i = 0 to n_flops - 1 do
        let v = Bitsim.peek bsim flops.(i).Netlist.q in
        let d = ref ((v lxor replicate_lane0 v) land diff_mask land lnot !over) in
        while !d <> 0 do
          let lane = lsb_index !d 0 in
          d := !d land (!d - 1);
          counts.(lane) <- counts.(lane) + 1;
          if counts.(lane) > max_memo_diff then over := !over lor (1 lsl lane)
          else fd.(lane) <- (i, (v lsr lane) land 1 = 1) :: fd.(lane)
        done
      done;
      let i_cp = !c / t.interval in
      for lane = 1 to lanes do
        if diff_mask land (1 lsl lane) <> 0 then begin
          let key =
            if !over land (1 lsl lane) <> 0 then None
            else begin
              let rd = Memory.lane_diffs ram ~lane in
              if counts.(lane) + List.length rd > max_memo_diff then None
              else Some (i_cp, List.rev fd.(lane), rd)
            end
          in
          match key with
          | None -> ()
          | Some key -> (
            Mutex.lock t.memo_lock;
            let hit = Hashtbl.find_opt t.memo key in
            Mutex.unlock t.memo_lock;
            match hit with
            | Some v -> retire lane v
            | None -> lane_pending.(lane) <- key :: lane_pending.(lane))
        end
      done
    end;
    Memory.lane_compact ram
  in
  (try
     while !c < t.total_cycles do
       (* Refill free lanes with queued faults still injectable at !c;
          overtaken faults go to the next pass. *)
       let rec refill () =
         match (!free, !pending_q) with
         | [], _ | _, [] -> ()
         | lane :: frest, idx :: qrest ->
           let _, fc = faults.(idx) in
           pending_q := qrest;
           if fc < !c then leftover := idx :: !leftover
           else begin
             free := frest;
             lane_fault.(lane) <- idx;
             active := !active lor (1 lsl lane)
           end;
           refill ()
       in
       refill ();
       if !active = 0 then raise Exit;
       let to_inject = !active land lnot !injected in
       if to_inject <> 0 then
         for lane = 1 to lanes do
           if to_inject land (1 lsl lane) <> 0 then begin
             let flop_id, fc = faults.(lane_fault.(lane)) in
             if fc = !c then begin
               Bitsim.flip_flop_lane bsim flop_id ~lane;
               injected := !injected lor (1 lsl lane)
             end
           end
         done;
       if !c mod t.interval = 0 && !injected <> 0 then boundary_check ();
       Bitsim.eval bsim;
       if !injected <> 0 then begin
         let sdc = ref 0 in
         Array.iter
           (fun w ->
             let v = Bitsim.peek bsim w in
             sdc := !sdc lor (v lxor replicate_lane0 v))
           t.out_wires;
         let sdc = !sdc land !injected in
         if sdc <> 0 then
           for lane = 1 to lanes do
             if sdc land (1 lsl lane) <> 0 then retire lane (Sdc !c)
           done
       end;
       Bitsim.latch bsim;
       flush_resets ();
       incr c
     done
   with Exit -> ());
  if !active <> 0 then begin
    (* Horizon: same final architectural comparison as the scalar path
       (lane 0 holds the golden horizon state). *)
    Bitsim.eval bsim;
    let diff = (flop_diff_mask () lor Memory.lane_diff_mask ram) land !active in
    for lane = 1 to lanes do
      if !active land (1 lsl lane) <> 0 then
        retire lane (if diff land (1 lsl lane) <> 0 then Latent else Benign)
    done
  end;
  flush_resets ();
  (* Unclassified faults for the next pass: those overtaken while every
     lane was busy, plus the queue tail never popped. Both lists are
     ascending by (cycle, index); keep the merged queue sorted so the
     next pass restores the right checkpoint for its head. *)
  let by_cycle a b =
    let ca = snd faults.(a) and cb = snd faults.(b) in
    if ca <> cb then compare ca cb else compare a b
  in
  List.merge by_cycle (List.rev !leftover) !pending_q

let max_fault_lanes = Bitsim.n_lanes - 1

(* Drop the (lazily rebuilt) lane worker — the supervisor's recovery
   path after an exception escaped mid-batch and left its lanes in an
   unknown state. *)
let reset_lane_worker t = t.lane_worker <- None

let inject_batch t ?lanes ~faults () =
  let lanes =
    match lanes with
    | None -> max_fault_lanes
    | Some l ->
      if l < 1 || l > max_fault_lanes then
        invalid_arg
          (Printf.sprintf "Campaign.inject_batch: lanes must be in [1, %d]" max_fault_lanes);
      l
  in
  Array.iter
    (fun (_, cycle) ->
      if cycle < 0 || cycle >= t.total_cycles then
        invalid_arg "Campaign.inject_batch: cycle out of range")
    faults;
  let lw = lane_worker t in
  let n = Array.length faults in
  let verdicts = Array.make n Benign in
  (* Classify in injection-cycle order so each pass drains as many
     faults as possible before their cycles are overtaken. *)
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      let ca = snd faults.(a) and cb = snd faults.(b) in
      if ca <> cb then compare ca cb else compare a b)
    order;
  let queue = ref (Array.to_list order) in
  while !queue <> [] do
    queue := run_lane_pass t lw ~lanes faults verdicts !queue
  done;
  verdicts

(* ------------------------------------------------------------------ *)
(* Delta injection: one fault at a time against the recorded golden
   trace, re-evaluating only the fault cone's active frontier. No
   checkpoint replay (attaching at the injection cycle is O(previous
   dirty set)). The dirty-set machinery retires re-converged faults at
   the earliest possible cycle, and at every checkpoint boundary the
   surviving divergence is read straight off the flip flags and device
   diffs to share the verdict memo with the scalar and batched engines:
   a latent stuck bit costs one partial interval of sparse simulation
   plus a memo lookup instead of a run to the horizon. *)

let delta_worker t =
  match t.delta_worker with
  | Some d -> d
  | None ->
    let make_delta =
      match t.make_delta with
      | Some f -> f
      | None -> invalid_arg "Campaign: delta injection needs ~make_delta at Campaign.create"
    in
    let d = make_delta ~trace:(golden_trace t) in
    t.delta_worker <- Some d;
    d

(* Discard the (lazily rebuilt) delta worker — recovery after an
   exception escaped mid-experiment and left its dirty set in an
   unknown state. The cached golden trace is immutable and survives. *)
let reset_delta_worker t = t.delta_worker <- None

let inject_delta ?budget t ~flop_id ~cycle =
  if cycle < 0 || cycle >= t.total_cycles then
    invalid_arg "Campaign.inject_delta: cycle out of range";
  let d = delta_worker t in
  let ds = d.System.d_dsim in
  let used = ref 0 in
  let charge =
    match budget with
    | None -> fun () -> ()
    | Some b ->
      fun () ->
        incr used;
        if !used > b then raise Budget_exceeded
  in
  Deltasim.attach ds ~cycle;
  Deltasim.flip_flop ds flop_id;
  let flops = (Deltasim.netlist ds).Netlist.flops in
  (* The delta image of [state_diff]: a flipped Q flag is exactly a
     differing flop and a device diff entry exactly a differing RAM
     cell, so the scalar engine's memo keys fall out of the dirty set
     directly — same indices, same faulty values, same ascending
     order. *)
  let delta_diff () =
    let exception Too_big in
    try
      let count = ref 0 in
      let fd = ref [] in
      for i = Array.length flops - 1 downto 0 do
        let q = flops.(i).Netlist.q in
        if Deltasim.is_flipped ds q then begin
          incr count;
          if !count > max_memo_diff then raise Too_big;
          fd := (i, Deltasim.faulty ds q) :: !fd
        end
      done;
      let rd =
        List.concat_map snd (Deltasim.device_diffs ds) |> List.sort compare
      in
      if !count + List.length rd > max_memo_diff then raise Too_big;
      Some (!fd, rd)
    with Too_big -> None
  in
  (* Same observation order as the scalar loop: settle the cycle, check
     the outputs (SDC), then the clock edge. [converged] retires the
     experiment the instant the dirty set empties — the faulty machine
     is bit-exact golden, so by determinism the remainder is too. *)
  let result = ref None in
  let pending = ref [] in
  let c = ref cycle in
  while !result = None && !c < t.total_cycles do
    Deltasim.propagate ds;
    (* Checkpoint boundary: the scalar memo protocol. Checked after
       [propagate] — combinational settling leaves flops and RAM
       untouched, and the golden row must be current for [faulty]
       reads — and before the SDC check, preserving the scalar
       engine's priority between a memo hit and a same-cycle SDC. *)
    if !c mod t.interval = 0 && not (Deltasim.converged ds) then begin
      match delta_diff () with
      | Some (fd, rd) -> (
        let key = (!c / t.interval, fd, rd) in
        Mutex.lock t.memo_lock;
        let hit = Hashtbl.find_opt t.memo key in
        Mutex.unlock t.memo_lock;
        match hit with
        | Some v -> result := Some v
        | None -> pending := key :: !pending)
      | None -> ()
    end;
    if !result = None then begin
      if Deltasim.output_diverged ds then result := Some (Sdc !c)
      else if Deltasim.converged ds then result := Some Benign
      else begin
        charge ();
        Deltasim.latch ds;
        incr c
      end
    end
  done;
  let verdict =
    match !result with
    | Some v -> v
    | None ->
      (* Horizon: the Q flip flags and device diffs are exact after the
         final latch — the same flop + RAM comparison as the scalar path,
         read off in O(divergence). *)
      if Deltasim.flops_diverged ds || not (Deltasim.devices_clean ds) then Latent else Benign
  in
  if !pending <> [] then begin
    Mutex.lock t.memo_lock;
    if Hashtbl.length t.memo < max_memo_entries then
      List.iter (fun key -> Hashtbl.replace t.memo key verdict) !pending;
    Mutex.unlock t.memo_lock
  end;
  verdict

(* Generalized delta injection: the delta image of [inject_expanded].
   The model expansion becomes the initial dirty set (one flip per
   member), and a hold window re-arms by re-flipping any member whose Q
   flip flag has cleared — [Deltasim.flip_flop] toggles the flag, so
   "flip if not flipped" is exactly "force to the complement of golden",
   matching the scalar re-arm against the recorded trace. The memo and
   Benign-retirement guard until the last forced cycle mirrors the
   scalar injector; convergence cannot fire inside the window anyway
   (a just-re-armed member is a non-empty dirty set), so the guard only
   protects the shared memo table. *)
let inject_delta_expanded ?budget t ~space ~key ~cycle =
  if cycle < 0 || cycle >= t.total_cycles then
    invalid_arg "Campaign.inject_delta: cycle out of range";
  let members = Fault_space.expand space key in
  if Array.length members = 0 then Benign
  else begin
    let hold = Fault_space.hold space in
    let window_end = min t.total_cycles (cycle + hold) in
    let d = delta_worker t in
    let ds = d.System.d_dsim in
    let used = ref 0 in
    let charge =
      match budget with
      | None -> fun () -> ()
      | Some b ->
        fun () ->
          incr used;
          if !used > b then raise Budget_exceeded
    in
    Deltasim.attach ds ~cycle;
    Array.iter (fun fid -> Deltasim.flip_flop ds fid) members;
    let flops = (Deltasim.netlist ds).Netlist.flops in
    let delta_diff () =
      let exception Too_big in
      try
        let count = ref 0 in
        let fd = ref [] in
        for i = Array.length flops - 1 downto 0 do
          let q = flops.(i).Netlist.q in
          if Deltasim.is_flipped ds q then begin
            incr count;
            if !count > max_memo_diff then raise Too_big;
            fd := (i, Deltasim.faulty ds q) :: !fd
          end
        done;
        let rd = List.concat_map snd (Deltasim.device_diffs ds) |> List.sort compare in
        if !count + List.length rd > max_memo_diff then raise Too_big;
        Some (!fd, rd)
      with Too_big -> None
    in
    let result = ref None in
    let pending = ref [] in
    let c = ref cycle in
    while !result = None && !c < t.total_cycles do
      if !c > cycle && !c < window_end then
        Array.iter
          (fun fid ->
            if not (Deltasim.is_flipped ds flops.(fid).Netlist.q) then Deltasim.flip_flop ds fid)
          members;
      Deltasim.propagate ds;
      if !c mod t.interval = 0 && !c >= window_end - 1 && not (Deltasim.converged ds) then begin
        match delta_diff () with
        | Some (fd, rd) -> (
          let key = (!c / t.interval, fd, rd) in
          Mutex.lock t.memo_lock;
          let hit = Hashtbl.find_opt t.memo key in
          Mutex.unlock t.memo_lock;
          match hit with
          | Some v -> result := Some v
          | None -> pending := key :: !pending)
        | None -> ()
      end;
      if !result = None then begin
        if Deltasim.output_diverged ds then result := Some (Sdc !c)
        else if !c >= window_end - 1 && Deltasim.converged ds then result := Some Benign
        else begin
          charge ();
          Deltasim.latch ds;
          incr c
        end
      end
    done;
    let verdict =
      match !result with
      | Some v -> v
      | None ->
        if Deltasim.flops_diverged ds || not (Deltasim.devices_clean ds) then Latent else Benign
    in
    if !pending <> [] then begin
      Mutex.lock t.memo_lock;
      if Hashtbl.length t.memo < max_memo_entries then
        List.iter (fun key -> Hashtbl.replace t.memo key verdict) !pending;
      Mutex.unlock t.memo_lock
    end;
    verdict
  end

(* Model dispatchers: [Seu] takes the historical single-flop fast paths
   byte-for-byte (the bit-identity anchor); every other model goes
   through the expanded injectors. [Intermittent 1] deliberately goes
   through the expanded path too — with hold = 1 it retraces the SEU
   protocol decision-for-decision, which the degeneracy tests pin. *)
let inject_fault ?budget t w ~space ~key ~cycle =
  match space.Fault_space.model with
  | Fault_model.Seu -> inject_with ?budget t w ~flop_id:key ~cycle
  | _ -> inject_expanded ?budget t w ~space ~key ~cycle

let inject_fault_delta ?budget t ~space ~key ~cycle =
  match space.Fault_space.model with
  | Fault_model.Seu -> inject_delta ?budget t ~flop_id:key ~cycle
  | _ -> inject_delta_expanded ?budget t ~space ~key ~cycle

(* ------------------------------------------------------------------ *)
(* Batched delta injection: many in-flight faults per pass, each an
   independent sparse XOR-delta against the same recorded golden trace,
   swept over one shared levelized schedule (Deltabatch). The pass has
   the [run_lane_pass] shape — cycle-sorted queue, mid-pass lane refill,
   per-lane retirement — but with the delta engine's semantics: no
   checkpoint replay (idle lanes are golden by construction, so the pass
   attaches at the head fault's exact cycle), per-lane earliest-cycle
   Benign retirement the instant a lane's dirty set empties, and memo
   keys read straight off the flip words and device diffs — identical to
   the scalar engine's. *)

let max_delta_lanes = Deltabatch.n_lanes

let delta_batch_worker t =
  match t.delta_batch_worker with
  | Some d -> d
  | None ->
    let make_delta_batch =
      match t.make_delta_batch with
      | Some f -> f
      | None ->
        invalid_arg "Campaign: batched delta injection needs ~make_delta_batch at Campaign.create"
    in
    let d = make_delta_batch ~trace:(golden_trace t) in
    t.delta_batch_worker <- Some d;
    d

(* Discard the (lazily rebuilt) batched delta worker — recovery after an
   exception escaped mid-pass and left its lanes in an unknown state.
   The cached golden trace is immutable and survives. *)
let reset_delta_batch_worker t = t.delta_batch_worker <- None

(* One pass over the horizon: attach at the head fault's cycle (every
   lane bit-exact golden), run forward filling free lanes with queued
   faults whose cycle has not passed, flipping each lane's member flops
   at its cycle, and retiring lanes per the scalar delta engine's
   observation order — memo at checkpoint boundaries, SDC on output
   divergence, Benign the instant the lane re-converges — with
   survivors classified at the horizon. A lane with a hold window
   ([hold] > 1) is the lane image of [inject_delta_expanded]: it
   re-arms every member whose Q flip bit has cleared at each cycle
   inside the window, and stays out of the memo and of Benign
   retirement until its last forced cycle. Returns the overtaken
   faults for the next pass. *)
let run_delta_batch_pass t ?on_benign_retire db ~lanes ~members ~hold faults verdicts queue =
  let ds = db.System.db_dbsim in
  let flops = db.System.db_netlist.Netlist.flops in
  let n_flops = Array.length flops in
  let head_cycle = snd faults.(List.hd queue) in
  Deltabatch.attach ds ~cycle:head_cycle;
  let lane_fault = Array.make lanes (-1) in
  let lane_pending = Array.make lanes [] in
  let lane_window_end = Array.make lanes 0 in
  let active = ref 0 in
  let injected = ref 0 in
  (* Lanes before their last forced cycle: re-armed every cycle, kept
     out of the memo and of Benign retirement. *)
  let held = ref 0 in
  let free = ref (List.init lanes Fun.id) in
  let pending_q = ref queue in
  let leftover = ref [] in
  let c = ref head_cycle in
  let retire lane verdict =
    verdicts.(lane_fault.(lane)) <- verdict;
    (match lane_pending.(lane) with
    | [] -> ()
    | keys ->
      Mutex.lock t.memo_lock;
      if Hashtbl.length t.memo < max_memo_entries then
        List.iter (fun key -> Hashtbl.replace t.memo key verdict) keys;
      Mutex.unlock t.memo_lock;
      lane_pending.(lane) <- []);
    lane_fault.(lane) <- -1;
    let m = lnot (1 lsl lane) in
    active := !active land m;
    injected := !injected land m;
    held := !held land m;
    (* Unlike the bit-parallel engine there is nothing to defer: wiping
       returns the lane to bit-exact golden, so nothing stale can leak
       back through the latch. *)
    Deltabatch.wipe_lane ds ~lane;
    free := lane :: !free
  in
  (* Per-lane architectural diff at a checkpoint boundary, built in one
     flop scan: a flipped Q bit is exactly a differing flop and a device
     diff entry exactly a differing RAM cell, so the scalar engine's
     memo keys fall out of the flip words directly — same indices, same
     faulty values, same ascending order. *)
  let boundary_check () =
    let check = !injected land lnot !held land Deltabatch.live_mask ds in
    if check <> 0 then begin
      let counts = Array.make lanes 0 in
      let fd = Array.make lanes [] in
      let over = ref 0 in
      for i = 0 to n_flops - 1 do
        let q = flops.(i).Netlist.q in
        let d = ref (Deltabatch.flip_word ds q land check land lnot !over) in
        if !d <> 0 then begin
          let fv = not (Deltabatch.golden ds q) in
          while !d <> 0 do
            let lane = lsb_index !d 0 in
            d := !d land (!d - 1);
            counts.(lane) <- counts.(lane) + 1;
            if counts.(lane) > max_memo_diff then over := !over lor (1 lsl lane)
            else fd.(lane) <- (i, fv) :: fd.(lane)
          done
        end
      done;
      let i_cp = !c / t.interval in
      for lane = 0 to lanes - 1 do
        if check land (1 lsl lane) <> 0 then begin
          let key =
            if !over land (1 lsl lane) <> 0 then None
            else begin
              let rd =
                List.concat_map snd (Deltabatch.device_diffs ds ~lane) |> List.sort compare
              in
              if counts.(lane) + List.length rd > max_memo_diff then None
              else Some (i_cp, List.rev fd.(lane), rd)
            end
          in
          match key with
          | None -> ()
          | Some key -> (
            Mutex.lock t.memo_lock;
            let hit = Hashtbl.find_opt t.memo key in
            Mutex.unlock t.memo_lock;
            match hit with
            | Some v -> retire lane v
            | None -> lane_pending.(lane) <- key :: lane_pending.(lane))
        end
      done
    end
  in
  (try
     while !c < t.total_cycles do
       (* Refill free lanes with queued faults still injectable at !c;
          overtaken faults go to the next pass. *)
       let rec refill () =
         match (!free, !pending_q) with
         | [], _ | _, [] -> ()
         | lane :: frest, idx :: qrest ->
           let _, fc = faults.(idx) in
           pending_q := qrest;
           if fc < !c then leftover := idx :: !leftover
           else begin
             free := frest;
             lane_fault.(lane) <- idx;
             active := !active lor (1 lsl lane)
           end;
           refill ()
       in
       refill ();
       if !active = 0 then raise Exit;
       (* Re-arm: force every held member back to the complement of its
          golden Q ("flip if not flipped"), releasing each lane from the
          guard at its last forced cycle. *)
       if !held <> 0 then
         for lane = 0 to lanes - 1 do
           let bit = 1 lsl lane in
           if !held land bit <> 0 then begin
             Array.iter
               (fun fid ->
                 if Deltabatch.flip_word ds flops.(fid).Netlist.q land bit = 0 then
                   Deltabatch.flip_flop_lane ds fid ~lane)
               members.(lane_fault.(lane));
             if !c >= lane_window_end.(lane) - 1 then held := !held land lnot bit
           end
         done;
       let to_inject = !active land lnot !injected in
       if to_inject <> 0 then
         for lane = 0 to lanes - 1 do
           if to_inject land (1 lsl lane) <> 0 then begin
             let idx = lane_fault.(lane) in
             let fc = snd faults.(idx) in
             if fc = !c then begin
               Array.iter (fun fid -> Deltabatch.flip_flop_lane ds fid ~lane) members.(idx);
               injected := !injected lor (1 lsl lane);
               let window_end = min t.total_cycles (fc + hold) in
               if fc < window_end - 1 then begin
                 lane_window_end.(lane) <- window_end;
                 held := !held lor (1 lsl lane)
               end
             end
           end
         done;
       Deltabatch.propagate ds;
       (* Scalar delta observation order, per lane: boundary memo before
          the SDC check (preserving the memo-hit-vs-same-cycle-SDC
          priority), SDC before Benign, retirement before the latch. *)
       if !c mod t.interval = 0 && !injected <> 0 then boundary_check ();
       if !injected <> 0 then begin
         let sdc = Deltabatch.out_mask ds land !injected in
         if sdc <> 0 then
           for lane = 0 to lanes - 1 do
             if sdc land (1 lsl lane) <> 0 then retire lane (Sdc !c)
           done
       end;
       if !injected <> 0 then begin
         let conv = !injected land lnot !held land lnot (Deltabatch.live_mask ds) in
         if conv <> 0 then
           for lane = 0 to lanes - 1 do
             if conv land (1 lsl lane) <> 0 then begin
               (match on_benign_retire with
               | Some f -> f ~index:lane_fault.(lane) ~cycle:!c
               | None -> ());
               retire lane Benign
             end
           done
       end;
       Deltabatch.latch ds;
       incr c
     done
   with Exit -> ());
  if !active <> 0 then begin
    (* Horizon: the Q flip words and device diffs are exact after the
       final latch — the same flop + RAM comparison as the scalar path,
       read off in O(divergence). *)
    let diverged = (Deltabatch.q_mask ds lor Deltabatch.devices_dirty_mask ds) land !active in
    for lane = 0 to lanes - 1 do
      if !active land (1 lsl lane) <> 0 then
        retire lane (if diverged land (1 lsl lane) <> 0 then Latent else Benign)
    done
  end;
  (* Unclassified faults for the next pass: those overtaken while every
     lane was busy, plus the queue tail never popped. Both lists are
     ascending by (cycle, index); keep the merged queue sorted so the
     next pass attaches at the right cycle for its head. *)
  let by_cycle a b =
    let ca = snd faults.(a) and cb = snd faults.(b) in
    if ca <> cb then compare ca cb else compare a b
  in
  List.merge by_cycle (List.rev !leftover) !pending_q

let inject_delta_batch t ?lanes ?space ?on_benign_retire ~faults () =
  let lanes =
    match lanes with
    | None -> max_delta_lanes
    | Some l ->
      if l < 1 || l > max_delta_lanes then
        invalid_arg
          (Printf.sprintf "Campaign.inject_delta_batch: lanes must be in [1, %d]" max_delta_lanes);
      l
  in
  Array.iter
    (fun (_, cycle) ->
      if cycle < 0 || cycle >= t.total_cycles then
        invalid_arg "Campaign.inject_delta_batch: cycle out of range")
    faults;
  let db = delta_batch_worker t in
  let n = Array.length faults in
  (* Without a space every key is a flop id: the SEU. *)
  let members, hold =
    match space with
    | None -> (Array.map (fun (flop_id, _) -> [| flop_id |]) faults, 1)
    | Some space ->
      (Array.map (fun (key, _) -> Fault_space.expand space key) faults, Fault_space.hold space)
  in
  (* An empty expansion (a SET pulse nothing latches) is the golden run:
     Benign, without taking a lane. *)
  let verdicts = Array.make n Benign in
  (* Classify in injection-cycle order so each pass drains as many
     faults as possible before their cycles are overtaken. *)
  let order = List.filter (fun i -> Array.length members.(i) > 0) (List.init n Fun.id) in
  let queue = ref (List.stable_sort (fun a b -> compare (snd faults.(a)) (snd faults.(b))) order) in
  while !queue <> [] do
    queue :=
      run_delta_batch_pass t ?on_benign_retire db ~lanes ~members ~hold faults verdicts !queue
  done;
  verdicts

type stats = {
  injections : int;
  benign : int;
  latent : int;
  sdc : int;
  skipped : int;
  crashed : int;
}

let count_chunk t w ~space samples skipped lo hi =
  let b = ref 0 and l = ref 0 and s = ref 0 in
  for i = lo to hi do
    if not skipped.(i) then begin
      let key, cycle = samples.(i) in
      match inject_fault t w ~space ~key ~cycle with
      | Benign -> incr b
      | Latent -> incr l
      | Sdc _ -> incr s
    end
  done;
  (!b, !l, !s)

(* The one sample-draw everybody shares: scalar, batched, durable and
   distributed campaigns all derive their fault list through this exact
   loop, so equal seeds yield equal fault lists — the foundation of every
   bit-identical-statistics guarantee in the stack (a worker fleet and a
   single process must classify the very same faults). The draw is over
   the space's model keys; for [Seu] the key index runs over the flop
   array and maps to netlist flop ids, making the PRNG call sequence and
   the drawn pairs byte-identical to the historical flop-only draw. *)
let draw_samples t ~space ~rng ~n =
  if n < 0 then invalid_arg "Campaign.draw_samples: n must be non-negative";
  let n_keys = Fault_space.n_keys space in
  let cycle_bound = min space.Fault_space.cycles t.total_cycles in
  let samples = Array.make n (0, 0) in
  for i = 0 to n - 1 do
    let key = Fault_space.draw_key space (Prng.int rng n_keys) in
    let cycle = Prng.int rng cycle_bound in
    samples.(i) <- (key, cycle)
  done;
  samples

let no_skip ~flop_id:_ ~cycle:_ = false

let run_sample t ~space ~rng ~n ?(skip = no_skip) ?(jobs = 1) () =
  (* Draw all samples up front with the single caller-provided generator:
     the fault list — and therefore the stats — is a function of the seed
     alone, independent of [jobs]. *)
  let samples = draw_samples t ~space ~rng ~n in
  let skipped = Array.map (fun (flop_id, cycle) -> skip ~flop_id ~cycle) samples in
  let n_skipped = Array.fold_left (fun acc s -> if s then acc + 1 else acc) 0 skipped in
  let jobs = max 1 (min jobs (max 1 n)) in
  let b, l, s =
    if jobs = 1 then count_chunk t t.primary ~space samples skipped 0 (n - 1)
    else begin
      let chunk = (n + jobs - 1) / jobs in
      let domains =
        List.init jobs (fun j ->
            let lo = j * chunk in
            let hi = min (n - 1) ((j + 1) * chunk - 1) in
            Domain.spawn (fun () ->
                if lo > hi then (0, 0, 0)
                else count_chunk t (fresh_worker t) ~space samples skipped lo hi))
      in
      List.fold_left
        (fun (b, l, s) d ->
          let b', l', s' = Domain.join d in
          (b + b', l + l', s + s'))
        (0, 0, 0) domains
    end
  in
  { injections = n - n_skipped; benign = b; latent = l; sdc = s; skipped = n_skipped; crashed = 0 }

(* The single-process engines' shared shape: the canonical draw, the
   skip predicate, then [inject_all] over the unskipped faults in draw
   order. *)
let run_sample_with t ~space ~rng ~n ~skip inject_all =
  let samples = draw_samples t ~space ~rng ~n in
  let faults =
    List.filter (fun (flop_id, cycle) -> not (skip ~flop_id ~cycle)) (Array.to_list samples)
  in
  let verdicts = inject_all (Array.of_list faults) in
  let b = ref 0 and l = ref 0 and s = ref 0 in
  Array.iter
    (function
      | Benign -> incr b
      | Latent -> incr l
      | Sdc _ -> incr s)
    verdicts;
  let injections = Array.length verdicts in
  { injections; benign = !b; latent = !l; sdc = !s; skipped = n - injections; crashed = 0 }

let run_sample_batched t ~space ~rng ~n ?(skip = no_skip) ?lanes () =
  (* Same draw order as [run_sample]: equal seeds yield equal fault
     lists, so the batched stats must equal the scalar stats exactly. *)
  run_sample_with t ~space ~rng ~n ~skip (fun faults ->
      match effective_kernel ~model:space.Fault_space.model Batched with
      | Batched -> inject_batch t ?lanes ~faults ()
      | _ -> Array.map (fun (key, cycle) -> inject_fault t t.primary ~space ~key ~cycle) faults)

let run_sample_delta t ~space ~rng ~n ?(skip = no_skip) () =
  run_sample_with t ~space ~rng ~n ~skip
    (Array.map (fun (key, cycle) -> inject_fault_delta t ~space ~key ~cycle))

let run_sample_delta_batched t ~space ~rng ~n ?(skip = no_skip) ?lanes () =
  run_sample_with t ~space ~rng ~n ~skip (fun faults ->
      inject_delta_batch t ?lanes ~space ~faults ())

let pp_verdict ppf = function
  | Benign -> Format.fprintf ppf "benign"
  | Latent -> Format.fprintf ppf "latent"
  | Sdc n -> Format.fprintf ppf "SDC@%d" n
