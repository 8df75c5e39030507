(* Layer spans recorded from the benchmark's own call sites, around calls
   into each layer's public functions — the library is not instrumented.

   Spans nest (a stack of child-time accumulators), so every span name
   gets both its total time and its self time: the total minus the part
   covered by spans opened inside it. Only the main thread opens spans;
   work done on other threads is added with [record] after it joins.
   With tracing disabled [span] is a plain call. *)

module Mono = Pruning_util.Mono

let enabled = ref false

type total = { mutable calls : int; mutable total_s : float; mutable self_s : float }

let totals : (string, total) Hashtbl.t = Hashtbl.create 32

let children : float ref list ref = ref []

let record name ~total ~self =
  let t =
    match Hashtbl.find_opt totals name with
    | Some t -> t
    | None ->
      let t = { calls = 0; total_s = 0.; self_s = 0. } in
      Hashtbl.replace totals name t;
      t
  in
  t.calls <- t.calls + 1;
  t.total_s <- t.total_s +. total;
  t.self_s <- t.self_s +. self

let span name f =
  if not !enabled then f ()
  else begin
    let child = ref 0. in
    children := child :: !children;
    let t0 = Mono.now () in
    let finish () =
      let d = Mono.now () -. t0 in
      children := List.tl !children;
      (match !children with
      | parent :: _ -> parent := !parent +. d
      | [] -> ());
      record name ~total:d ~self:(d -. !child)
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let total_s name =
  match Hashtbl.find_opt totals name with
  | Some t -> t.total_s
  | None -> 0.

(* Sum of every span's self time: the part of the run the spans cover. *)
let self_sum () = Hashtbl.fold (fun _ t acc -> acc +. t.self_s) totals 0.
