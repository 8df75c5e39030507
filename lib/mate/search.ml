module Netlist = Pruning_netlist.Netlist
module Cone = Pruning_netlist.Cone
module Cell = Pruning_cell.Cell
module Gm = Pruning_cell.Gm
module Stats = Pruning_util.Stats
module Mono = Pruning_util.Mono

type params = {
  depth : int;
  max_terms : int;
  max_candidates : int;
  max_options : int;
  beam : int;
  max_situations : int;
  max_mates : int;
}

let default_params =
  {
    depth = 8;
    max_terms = 8;
    max_candidates = 2_000;
    max_options = 64;
    beam = 8;
    max_situations = 12;
    max_mates = 64;
  }

type outcome =
  | Unmaskable
  | Mates of Term.t list

type wire_result = {
  wire : Netlist.wire;
  cone_size : int;
  n_options : int;
  candidates_tried : int;
  outcome : outcome;
  time_s : float;
}

type flop_result = {
  flop : Netlist.flop;
  result : wire_result;
}

type report = {
  params : params;
  flop_results : flop_result list;
  runtime_s : float;
}

(* ------------------------------------------------------------------ *)
(* Ternary values: 0, 1, U (golden-equal, unknown), F (possibly faulty) *)

let v0 = 0
let v1 = 1
let vu = 2
let vf = 3

(* Enumerate the assignments of the bit positions present in [mask]. *)
let iter_assignments mask f =
  let rec positions m = if m = 0 then [] else (m land -m) :: positions (m land (m - 1)) in
  let bits = Array.of_list (positions mask) in
  let n = Array.length bits in
  for combo = 0 to (1 lsl n) - 1 do
    let a = ref 0 in
    for j = 0 to n - 1 do
      if combo land (1 lsl j) <> 0 then a := !a lor bits.(j)
    done;
    f !a
  done

(* Abstract evaluation of one cell over packed ternary pin values (2 bits
   per pin). *)
let eval_gate_uncached (cell : Cell.t) packed =
  let fixed = ref 0 and u_mask = ref 0 and f_mask = ref 0 in
  for pin = 0 to cell.Cell.arity - 1 do
    match (packed lsr (2 * pin)) land 3 with
    | v when v = v0 -> ()
    | v when v = v1 -> fixed := !fixed lor (1 lsl pin)
    | v when v = vu -> u_mask := !u_mask lor (1 lsl pin)
    | _ -> f_mask := !f_mask lor (1 lsl pin)
  done;
  let f_dependent = ref false in
  let seen0 = ref false and seen1 = ref false in
  iter_assignments !u_mask (fun u ->
      if not !f_dependent then begin
        let base = !fixed lor u in
        let reference = Cell.eval_pattern cell base in
        iter_assignments !f_mask (fun f ->
            if Cell.eval_pattern cell (base lor f) <> reference then f_dependent := true);
        if reference then seen1 := true else seen0 := true
      end);
  if !f_dependent then vf
  else if !seen0 && !seen1 then vu
  else if !seen1 then v1
  else v0

(* One 256-entry row per library cell, indexed by the cell's [index]:
   built when the module is initialised and only ever read afterwards,
   so concurrent per-wire searches share it. *)
let eval_rows =
  Array.of_list
    (List.map (fun (cell : Cell.t) -> Array.init 256 (eval_gate_uncached cell)) Cell.all)

(* ------------------------------------------------------------------ *)
(* Cone evaluation state.                                               *)

type cone_eval = {
  nl : Netlist.t;
  values : Bytes.t;  (** per wire: v0/v1/vu/vf *)
  baseline : Bytes.t;
      (** values with no literals set: support constants, sources F, cone
          evaluated *)
  cone_gates : Netlist.gate array;  (** topological order *)
  sink_index : int array;  (** indices into cone_gates whose output sinks *)
  role : Bytes.t;  (** per wire: 1 cone gate output, 2 one that sinks, else 0 *)
  mutable faulty_gates : int;  (** cone gate outputs currently F *)
  mutable faulty_sinks : int;  (** sinking cone gate outputs currently F *)
  border_wires : Netlist.wire array;
  in_cone : bool array;
  active : bool array;  (** per gate: a support or cone gate *)
  gate_rows : int array array;  (** per gate: its cell's eval row *)
  gate_depth : int array;  (** per gate: BFS distance from the sources, max_int off-cone *)
  by_depth : Netlist.gate array;  (** cone gates, stably sorted by depth *)
  buckets : int array array;
      (** per logic level: active gates scheduled in this validation *)
  bucket_len : int array;
  scheduled : int array;  (** per gate: stamp of the validation that queued it *)
  mutable lo_level : int;  (** lowest and highest non-empty bucket *)
  mutable hi_level : int;
  pinned : int array;  (** per wire: the v0/v1 a literal pins it to, or -1 *)
  mutable pinned_wires : int array;  (** the pinned wires, in [0, n_pinned) *)
  mutable n_pinned : int;
  mutable next_pinned : int array;  (** scratch: the next validation's pins *)
  wanted : int array;  (** per wire: stamp of the validation whose literals name it *)
  want_value : int array;  (** per wanted wire: the value its literal asks for *)
  mutable stamp : int;
}

let gate_value ev (g : Netlist.gate) =
  let packed = ref 0 in
  let ins = g.Netlist.inputs in
  for pin = 0 to Array.length ins - 1 do
    packed := !packed lor (Char.code (Bytes.get ev.values ins.(pin)) lsl (2 * pin))
  done;
  ev.gate_rows.(g.Netlist.gate_id).(!packed)

let make_cone_eval (nl : Netlist.t) (cone : Cone.t) sources =
  let nw = Netlist.n_wires nl in
  let is_sink w =
    Array.length nl.Netlist.flop_readers.(w) > 0 || nl.Netlist.is_primary_output.(w)
  in
  let cone_gates = Array.of_list cone.Cone.gates in
  let sink_index =
    Array.to_list (Array.mapi (fun i g -> (i, g)) cone_gates)
    |> List.filter_map (fun (i, (g : Netlist.gate)) -> if is_sink g.Netlist.output then Some i else None)
    |> Array.of_list
  in
  (* Support: transitive fanin of border wires, disjoint from the cone. *)
  let in_support = Array.make nw false in
  let stack = ref cone.Cone.border in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | w :: rest ->
      stack := rest;
      if not in_support.(w) then begin
        in_support.(w) <- true;
        match nl.Netlist.driver.(w) with
        | Netlist.Driver_gate gid ->
          Array.iter (fun i -> stack := i :: !stack) nl.Netlist.gates.(gid).Netlist.inputs
        | Netlist.Driver_input | Netlist.Driver_flop _ -> ()
      end
  done;
  (* Active gates: the support logic and the cone, which are disjoint
     (a support wire in the cone would put its border wire in the cone).
     One bucket per logic level, sized for every active gate there. *)
  let active =
    Array.map (fun (g : Netlist.gate) -> in_support.(g.Netlist.output)) nl.Netlist.gates
  in
  Array.iter (fun (g : Netlist.gate) -> active.(g.Netlist.gate_id) <- true) cone_gates;
  let n_levels = 1 + Array.fold_left max 0 nl.Netlist.level in
  let per_level = Array.make n_levels 0 in
  Array.iteri
    (fun gid is_active ->
      if is_active then begin
        let l = nl.Netlist.level.(gid) in
        per_level.(l) <- per_level.(l) + 1
      end)
    active;
  (* BFS distances of cone gates from the sources. *)
  let gate_depth = Array.make (Netlist.n_gates nl) max_int in
  let seen_wire = Array.make nw false in
  let frontier = Queue.create () in
  List.iter
    (fun source ->
      Queue.add (source, 0) frontier;
      seen_wire.(source) <- true)
    sources;
  while not (Queue.is_empty frontier) do
    let w, d = Queue.pop frontier in
    Array.iter
      (fun gid ->
        if gate_depth.(gid) = max_int then begin
          gate_depth.(gid) <- d + 1;
          let out = nl.Netlist.gates.(gid).Netlist.output in
          if not seen_wire.(out) then begin
            seen_wire.(out) <- true;
            Queue.add (out, d + 1) frontier
          end
        end)
      nl.Netlist.readers.(w)
  done;
  let by_depth = Array.copy cone_gates in
  Array.stable_sort
    (fun (a : Netlist.gate) (b : Netlist.gate) ->
      compare gate_depth.(a.Netlist.gate_id) gate_depth.(b.Netlist.gate_id))
    by_depth;
  let role = Bytes.make nw '\000' in
  Array.iter (fun (g : Netlist.gate) -> Bytes.set role g.Netlist.output '\001') cone_gates;
  Array.iter (fun i -> Bytes.set role cone_gates.(i).Netlist.output '\002') sink_index;
  let values = Bytes.make nw (Char.chr vu) in
  let ev =
    {
      nl;
      values;
      baseline = Bytes.make nw (Char.chr vu);
      cone_gates;
      sink_index;
      role;
      faulty_gates = 0;
      faulty_sinks = 0;
      border_wires = Array.of_list cone.Cone.border;
      in_cone = Array.copy cone.Cone.in_cone;
      active;
      gate_rows =
        Array.map (fun (g : Netlist.gate) -> eval_rows.(g.Netlist.cell.Cell.index)) nl.Netlist.gates;
      gate_depth;
      by_depth;
      buckets = Array.map (fun n -> Array.make n 0) per_level;
      bucket_len = Array.make n_levels 0;
      scheduled = Array.make (Netlist.n_gates nl) 0;
      lo_level = max_int;
      hi_level = -1;
      pinned = Array.make nw (-1);
      pinned_wires = Array.make nw 0;
      n_pinned = 0;
      next_pinned = Array.make nw 0;
      wanted = Array.make nw 0;
      want_value = Array.make nw 0;
      stamp = 0;
    }
  in
  (* Baseline: everything U, constants propagated through the support,
     the sources F and the cone evaluated over that. *)
  Array.iter
    (fun gid ->
      let g = nl.Netlist.gates.(gid) in
      if in_support.(g.Netlist.output) then Bytes.set values g.Netlist.output (Char.chr (gate_value ev g)))
    nl.Netlist.topo;
  List.iter (fun source -> Bytes.set values source (Char.chr vf)) sources;
  Array.iter
    (fun (g : Netlist.gate) -> Bytes.set values g.Netlist.output (Char.chr (gate_value ev g)))
    cone_gates;
  Bytes.blit values 0 ev.baseline 0 nw;
  Array.iter
    (fun (g : Netlist.gate) ->
      let out = g.Netlist.output in
      if Char.code (Bytes.get values out) = vf then begin
        ev.faulty_gates <- ev.faulty_gates + 1;
        if Bytes.get role out = '\002' then ev.faulty_sinks <- ev.faulty_sinks + 1
      end)
    cone_gates;
  ev

let value ev w = Char.code (Bytes.get ev.values w)
let set_value ev w v = Bytes.set ev.values w (Char.chr v)
let border_wires_of ev = ev.border_wires

let schedule ev gid =
  if ev.scheduled.(gid) <> ev.stamp then begin
    ev.scheduled.(gid) <- ev.stamp;
    let l = ev.nl.Netlist.level.(gid) in
    ev.buckets.(l).(ev.bucket_len.(l)) <- gid;
    ev.bucket_len.(l) <- ev.bucket_len.(l) + 1;
    if l < ev.lo_level then ev.lo_level <- l;
    if l > ev.hi_level then ev.hi_level <- l
  end

(* Queue the active gates reading [w], each at most once per validation,
   in the bucket of its logic level. *)
let schedule_readers ev w =
  let readers = ev.nl.Netlist.readers.(w) in
  for i = 0 to Array.length readers - 1 do
    let gid = readers.(i) in
    if ev.active.(gid) then schedule ev gid
  done

(* Set a wire's value during propagation, keeping the F counts of the
   cone outputs current. *)
let change ev w v =
  let old = value ev w in
  if v <> old then begin
    (match Bytes.get ev.role w with
    | '\000' -> ()
    | role ->
      let delta = if v = vf then 1 else if old = vf then -1 else 0 in
      ev.faulty_gates <- ev.faulty_gates + delta;
      if role = '\002' then ev.faulty_sinks <- ev.faulty_sinks + delta);
    set_value ev w v;
    schedule_readers ev w
  end

(* Candidate evaluation: literals pin their (border) wires, constants
   propagate through the support logic and on through the cone, whose
   sources are possibly-faulty. True iff no sink is possibly faulty.

   Every value is a pure function of the literal set: pinned wires hold
   their literal, every other active gate output is its gate applied to
   its inputs (a support gate never overwrites a pinned wire; a
   contradictory candidate simply never triggers at run time), and every
   other wire holds its baseline value. A validation moves the state
   from the previous literal set to this one incrementally. Wires whose
   pin changed are updated (an unpinned gate output by re-evaluating its
   driver), a gate whose value changes queues its active readers, and
   the buckets are drained in increasing logic level. So every gate is
   evaluated at most once, after all of its inputs are final, and the
   result equals a full topological re-evaluation from the baseline.
   [iter_literals f] applies [f] to each literal of the candidate. *)
let validate_iter ev iter_literals =
  ev.stamp <- ev.stamp + 1;
  let stamp = ev.stamp in
  let n_next = ref 0 in
  iter_literals (fun (l : Term.literal) ->
      let w = l.Term.wire in
      if ev.wanted.(w) <> stamp then begin
        ev.wanted.(w) <- stamp;
        ev.next_pinned.(!n_next) <- w;
        incr n_next
      end;
      (* The last literal on a wire wins. *)
      ev.want_value.(w) <- (if l.Term.value then v1 else v0));
  for i = 0 to ev.n_pinned - 1 do
    let w = ev.pinned_wires.(i) in
    if ev.wanted.(w) <> stamp then begin
      ev.pinned.(w) <- -1;
      match ev.nl.Netlist.driver.(w) with
      | Netlist.Driver_gate gid when ev.active.(gid) -> schedule ev gid
      | Netlist.Driver_gate _ | Netlist.Driver_input | Netlist.Driver_flop _ ->
        change ev w (Char.code (Bytes.get ev.baseline w))
    end
  done;
  let next = ev.next_pinned in
  for i = 0 to !n_next - 1 do
    let w = next.(i) in
    let v = ev.want_value.(w) in
    ev.pinned.(w) <- v;
    change ev w v
  done;
  ev.next_pinned <- ev.pinned_wires;
  ev.pinned_wires <- next;
  ev.n_pinned <- !n_next;
  let gates = ev.nl.Netlist.gates in
  let level = ref ev.lo_level in
  (* Gates only queue readers at higher levels, so a bucket is final by
     the time the sweep reaches it. *)
  while !level <= ev.hi_level do
    let bucket = ev.buckets.(!level) in
    for i = 0 to ev.bucket_len.(!level) - 1 do
      let g = gates.(bucket.(i)) in
      let out = g.Netlist.output in
      if ev.pinned.(out) < 0 then change ev out (gate_value ev g)
    done;
    ev.bucket_len.(!level) <- 0;
    incr level
  done;
  ev.lo_level <- max_int;
  ev.hi_level <- -1;
  ev.faulty_sinks = 0

let validate ev literals = validate_iter ev (fun f -> List.iter f literals)

let fault_extent ev = (ev.faulty_sinks * 10_000) + ev.faulty_gates

(* The gate-masking terms available against the gate's currently-faulty
   pins, instantiated to wires. Terms may only constrain non-cone wires;
   literals already satisfied by the current evaluation are dropped, and
   terms contradicting a known support constant are unusable. *)
let dynamic_gate_terms ev (g : Netlist.gate) =
  let fmask = ref 0 in
  Array.iteri
    (fun pin w -> if value ev w = vf then fmask := !fmask lor (1 lsl pin))
    g.Netlist.inputs;
  match !fmask with
  | 0 -> []
  | fmask ->
    let usable (term : Gm.term) =
      let rec go acc = function
        | [] -> Term.of_literals acc
        | (l : Gm.literal) :: rest ->
          let w = g.Netlist.inputs.(l.Gm.pin) in
          if ev.in_cone.(w) then None
          else begin
            let wanted = if l.Gm.value then v1 else v0 in
            let current = value ev w in
            if current = wanted then go acc rest
            else if current = vu then go ((w, l.Gm.value) :: acc) rest
            else None (* contradicts a propagated constant *)
          end
      in
      go [] term
    in
    List.filter_map usable (Gm.masking_terms_of_mask g.Netlist.cell fmask)

(* Extension options for the current evaluation: blockable gates on the
   fault frontier within the BFS depth, nearest first. *)
let dynamic_options ev params =
  let options = ref [] and n = ref 0 and i = ref 0 in
  let gates = ev.by_depth in
  while
    !n < params.max_options
    && !i < Array.length gates
    && ev.gate_depth.(gates.(!i).Netlist.gate_id) <= params.depth
  do
    let g = gates.(!i) in
    if value ev g.Netlist.output = vf then
      List.iter
        (fun t ->
          if !n < params.max_options then begin
            options := (g, t) :: !options;
            incr n
          end)
        (dynamic_gate_terms ev g);
    incr i
  done;
  List.rev !options

(* Optimistic reachability: evaluate the cone assuming every blockable
   gate within reach is blocked (output U). If a sink is still possibly
   faulty, no combination of gate-masking terms can mask the wire: the
   paper's "path where no gate can mask the fault" early abort, made
   value-aware. *)
let optimistic_escape ev params =
  ignore (validate ev []);
  Array.iter
    (fun (g : Netlist.gate) ->
      let v = gate_value ev g in
      let v =
        if
          v = vf
          && ev.gate_depth.(g.Netlist.gate_id) <= params.depth
          && dynamic_gate_terms ev g <> []
        then vu
        else v
      in
      set_value ev g.Netlist.output v)
    ev.cone_gates;
  let escaped =
    Array.exists (fun i -> value ev ev.cone_gates.(i).Netlist.output = vf) ev.sink_index
  in
  (* Back to the evaluation of the empty literal set, the baseline. *)
  Array.iter
    (fun (g : Netlist.gate) ->
      let out = g.Netlist.output in
      Bytes.set ev.values out (Bytes.get ev.baseline out))
    ev.cone_gates;
  escaped

(* Greedy literal minimization: drop literals (in the given order) whose
   removal keeps the candidate valid, producing MATEs that trigger as
   often as possible. *)
let minimize_literals ev literals =
  let lits = Array.of_list literals in
  let kept = Array.make (Array.length lits) true in
  (* Literal [i] goes if the kept literals before it and all literals
     after it still validate. *)
  Array.iteri
    (fun i _ ->
      let without f = Array.iteri (fun j l -> if j <> i && kept.(j) then f l) lits in
      if validate_iter ev without then kept.(i) <- false)
    lits;
  List.filteri (fun i _ -> kept.(i)) literals

let minimize_term ev term =
  match
    Term.of_literals
      (List.map
         (fun (l : Term.literal) -> (l.Term.wire, l.Term.value))
         (minimize_literals ev (Term.literals term)))
  with
  | Some t -> t
  | None -> term

(* ------------------------------------------------------------------ *)
(* Trace-seeded candidates: the most frequent border situations of an
   exemplary execution, validated as full cubes and generalized. *)

module Trace = Pruning_sim.Trace

let seeded_mates ev params trace found tried =
  let borders = border_wires_of ev in
  if Array.length borders = 0 then ()
  else begin
    let cycles = Trace.n_cycles trace in
    (* Distance of each border wire: nearest cone gate reading it. *)
    let depth_of w =
      Array.fold_left (fun acc gid -> min acc ev.gate_depth.(gid)) max_int ev.nl.Netlist.readers.(w)
    in
    let tagged = Array.map (fun w -> (w, depth_of w)) borders in
    (* Near borders (selects, enables, decode) define the situation; far
       borders (mostly sibling data) are recorded per representative cycle
       and generalized away during minimization. *)
    let near =
      Array.to_list tagged
      |> List.filter (fun (_, d) -> d <= params.depth)
      |> List.map fst
      |> Array.of_list
    in
    let far =
      Array.to_list tagged
      |> List.filter (fun (_, d) -> d > params.depth)
      |> List.sort (fun (_, d1) (_, d2) -> compare d2 d1)
      |> List.map fst
    in
    if Array.length near = 0 then ()
    else begin
      (* Representative cycle and frequency per near-border signature. *)
      let classes : (string, int * int) Hashtbl.t = Hashtbl.create 256 in
      let signature cycle =
        String.init (Array.length near) (fun i ->
            if Trace.get trace ~cycle near.(i) then '1' else '0')
      in
      for cycle = 0 to cycles - 1 do
        let s = signature cycle in
        match Hashtbl.find_opt classes s with
        | Some (rep, n) -> Hashtbl.replace classes s (rep, n + 1)
        | None -> Hashtbl.add classes s (cycle, 1)
      done;
      let situations =
        Hashtbl.fold (fun _ (rep, n) acc -> (rep, n) :: acc) classes []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      let literal_at cycle w =
        { Term.wire = w; Term.value = Trace.get trace ~cycle w }
      in
      (* Drop far literals first, in one block when possible. *)
      let near_literals cycle =
        List.map (literal_at cycle) (List.rev (Array.to_list near)) |> List.rev
      in
      let valid_seen = ref 0 in
      List.iter
        (fun (rep, _) ->
          if !valid_seen < params.max_situations && !tried < 4 * params.max_candidates
          then begin
            let near_lits = near_literals rep in
            let far_lits = List.map (literal_at rep) far in
            incr tried;
            if validate ev (far_lits @ near_lits) then begin
              incr valid_seen;
              incr tried;
              let remaining =
                if validate ev near_lits then near_lits (* far block dropped *)
                else far_lits @ near_lits
              in
              tried := !tried + List.length remaining;
              let minimal = minimize_literals ev remaining in
              match
                Term.of_literals
                  (List.map (fun (l : Term.literal) -> (l.Term.wire, l.Term.value)) minimal)
              with
              | Some t -> Hashtbl.replace found t ()
              | None -> ()
            end
          end)
        situations
    end
  end

(* ------------------------------------------------------------------ *)

module Term_tbl = Hashtbl.Make (Term)

let search_sources ?(traces = []) nl params wires =
  let wire =
    match wires with
    | [] -> invalid_arg "Search: no faulty wires"
    | w :: _ -> w
  in
  let cone = Cone.compute_multi nl wires in
  let cone_size = Cone.size cone in
  if cone.Cone.source_is_sink then
    { wire; cone_size; n_options = 0; candidates_tried = 0; outcome = Unmaskable; time_s = 0. }
  else begin
    let ev = make_cone_eval nl cone wires in
    if Array.length ev.sink_index = 0 then
      { wire; cone_size; n_options = 0; candidates_tried = 0; outcome = Mates [ Term.always_true ]; time_s = 0. }
    else if optimistic_escape ev params then
      { wire; cone_size; n_options = 0; candidates_tried = 0; outcome = Unmaskable; time_s = 0. }
    else begin
      let tried = ref 0 in
      let found : (Term.t, unit) Hashtbl.t = Hashtbl.create 32 in
      let attempted = Term_tbl.create 512 in
      ignore (validate ev []);
      let n_options = List.length (dynamic_options ev params) in
      (* Beam search, guided by how far each extension shrinks the fault
         frontier. [ev] holds the evaluation of [literals] on entry. *)
      let rec extend literals n_selected parent_extent =
        if !tried < params.max_candidates && n_selected < params.max_terms then begin
          let options = dynamic_options ev params in
          let children = ref [] in
          List.iter
            (fun ((_ : Netlist.gate), term) ->
              if !tried < params.max_candidates then begin
                match Term.conjoin literals term with
                | None -> ()
                | Some conj ->
                  if (not (Term.equal conj literals)) && not (Term_tbl.mem attempted conj) then begin
                    Term_tbl.replace attempted conj ();
                    incr tried;
                    if validate ev (Term.literals conj) then Hashtbl.replace found conj ()
                    else begin
                      let extent = fault_extent ev in
                      if extent < parent_extent then children := (conj, extent) :: !children
                    end
                  end
              end)
            options;
          let beam =
            List.sort (fun (_, a) (_, b) -> compare a b) !children
            |> List.filteri (fun i _ -> i < params.beam)
          in
          List.iter
            (fun (conj, extent) ->
              if !tried < params.max_candidates then begin
                ignore (validate ev (Term.literals conj));
                extend conj (n_selected + 1) extent
              end)
            beam;
          (* Restore the parent evaluation for our caller. *)
          ignore (validate ev (Term.literals literals))
        end
      in
      let initial_extent = fault_extent ev in
      extend Term.always_true 0 (initial_extent + 1);
      List.iter (fun trace -> seeded_mates ev params trace found tried) traces;
      (* Minimize the found candidates (dropping superfluous literals so
         MATEs trigger as often as possible), within a second budget. *)
      let raw = Hashtbl.fold (fun t () acc -> t :: acc) found [] in
      let raw =
        List.sort
          (fun a b -> compare (Term.n_inputs a) (Term.n_inputs b))
          raw
      in
      let minimize_budget = ref params.max_candidates in
      let mates =
        List.map
          (fun t ->
            if !minimize_budget > Term.n_inputs t * Term.n_inputs t then begin
              minimize_budget := !minimize_budget - (Term.n_inputs t * Term.n_inputs t);
              minimize_term ev t
            end
            else t)
          raw
      in
      let mates = List.sort_uniq Term.compare mates in
      (* Keep the cheapest MATEs: they trigger most often and replay cost
         is linear in the retained set size. *)
      let mates =
        List.sort
          (fun a b ->
            match compare (Term.n_inputs a) (Term.n_inputs b) with
            | 0 -> Term.compare a b
            | c -> c)
          mates
        |> List.filteri (fun i _ -> i < params.max_mates)
        |> List.sort Term.compare
      in
      { wire; cone_size; n_options; candidates_tried = !tried; outcome = Mates mates; time_s = 0. }
    end
  end

let search_wire ?traces nl params wire = search_sources ?traces nl params [ wire ]

let search_pair ?traces nl params w1 w2 = search_sources ?traces nl params [ w1; w2 ]

let timed_search_wire ?traces nl params wire =
  let start = Mono.now () in
  let result = search_wire ?traces nl params wire in
  { result with time_s = Mono.now () -. start }

let sum_times flop_results =
  List.fold_left (fun acc fr -> acc +. fr.result.time_s) 0. flop_results

(* Per-wire searches share nothing mutable, so [jobs] domains pull wire
   indices from one atomic counter and each result lands in its wire's
   slot: the report lists the flops in input order whatever the domain
   count or scheduling. *)
let search_flops ?(params = default_params) ?traces ?(jobs = Domain.recommended_domain_count ())
    nl flops =
  let flops = Array.of_list flops in
  let n = Array.length flops in
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let f = flops.(i) in
      slots.(i) <- Some { flop = f; result = timed_search_wire ?traces nl params f.Netlist.q };
      work ()
    end
  in
  let helpers = List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn work) in
  let mine = try Ok (work ()) with e -> Error e in
  let joined = List.map (fun d -> try Ok (Domain.join d) with e -> Error e) helpers in
  List.iter (function Error e -> raise e | Ok () -> ()) (mine :: joined);
  let flop_results = Array.to_list (Array.map Option.get slots) in
  { params; flop_results; runtime_s = sum_times flop_results }

let restrict report keep =
  let flop_results = List.filter (fun fr -> keep fr.flop) report.flop_results in
  { report with flop_results; runtime_s = sum_times flop_results }

let n_faulty_wires report = List.length report.flop_results

let cone_sizes report = List.map (fun fr -> fr.result.cone_size) report.flop_results

let avg_cone report = Stats.mean_int (cone_sizes report)
let median_cone report = Stats.median_int (cone_sizes report)

let n_unmaskable report =
  List.length
    (List.filter
       (fun fr ->
         match fr.result.outcome with
         | Unmaskable -> true
         | Mates _ -> false)
       report.flop_results)

let total_candidates report =
  List.fold_left (fun acc fr -> acc + fr.result.candidates_tried) 0 report.flop_results

let total_mates report =
  List.fold_left
    (fun acc fr ->
      acc
      +
      match fr.result.outcome with
      | Unmaskable -> 0
      | Mates l -> List.length l)
    0 report.flop_results
