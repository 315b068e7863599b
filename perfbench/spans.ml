(* The benchmark's own spans.

   A span records the name of the layer function it wraps, its start and
   end, the span that was open when it started, and the trace it belongs
   to (one trace per pass, so every span of one pass shares an id).
   Spans stay in memory and are written out once, when the run ends.  A
   span's self time is its duration minus the time its child spans
   cover. *)

type span = {
  id : int;
  parent : int;  (** 0 for a trace's root span *)
  trace : int;
  name : string;
  t0 : float;
  mutable t1 : float;
}

let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0
let next_trace = ref 0
let current_trace = ref 0

let now = Unix.gettimeofday

(* [run] nests through one stack and is for single-threaded callers;
   [add] records a flat span and may be called from any thread. *)
let lock = Mutex.create ()

let new_trace () =
  Mutex.protect lock (fun () ->
      incr next_trace;
      !next_trace)

let add ~trace name ~t0 ~t1 =
  Mutex.protect lock (fun () ->
      incr next_id;
      recorded := { id = !next_id; parent = 0; trace; name; t0; t1 } :: !recorded)

let fresh_id () =
  Mutex.protect lock (fun () ->
      incr next_id;
      !next_id)

let run name f =
  let parent = match !open_spans with p :: _ -> p.id | [] -> 0 in
  let s = { id = fresh_id (); parent; trace = !current_trace; name; t0 = now (); t1 = 0.0 } in
  open_spans := s :: !open_spans;
  let finish () =
    s.t1 <- now ();
    open_spans := List.tl !open_spans;
    Mutex.protect lock (fun () -> recorded := s :: !recorded)
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Run [f] as a new trace under a root span [name]; returns the trace id
   with the result. *)
let trace name f =
  let id = new_trace () in
  let saved = !current_trace in
  current_trace := id;
  Fun.protect ~finally:(fun () -> current_trace := saved) (fun () -> (id, run name f))

(* Self time per (trace, span name), summed over the trace's spans. *)
let self_times () : (int * string, float) Hashtbl.t =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0
          +. (s.t1 -. s.t0)))
    !recorded;
  let out = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let self =
        s.t1 -. s.t0 -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      let key = (s.trace, s.name) in
      Hashtbl.replace out key (Option.value (Hashtbl.find_opt out key) ~default:0.0 +. self))
    !recorded;
  out

(* The per-trace self-time sums of [name] over the given traces (0 for
   a trace without such a span). *)
let per_trace (tbl : (int * string, float) Hashtbl.t) (traces : int list) name : float list =
  List.map (fun t -> Option.value (Hashtbl.find_opt tbl (t, name)) ~default:0.0) traces

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"trace\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.6f,\"dur_ms\":%.4f}\n"
        s.trace s.id s.parent s.name s.t0 ((s.t1 -. s.t0) *. 1000.0))
    (List.rev !recorded);
  close_out oc
