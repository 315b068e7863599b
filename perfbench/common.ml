(* Shared pieces: options, operation accounting, statistics, metric
   output, and the engine's process-wide counters read by name. *)

module Obs = Xqc.Obs

type options = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** the self-test's reduced input sizes *)
  work_dir : string;  (** scratch files: documents, sockets, spans *)
}

let now = Speed.now

(* ------------------------------------------------------------------ *)
(* Operations attempted and failed                                     *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let ops_lock = Mutex.create ()

(* Count one checked operation; a failure is reported on stderr (the
   first few of them) and the run goes on. *)
let record ok what =
  Mutex.protect ops_lock (fun () ->
      incr attempted;
      if not ok then begin
        incr failed;
        if !failed <= 10 then prerr_endline ("perfbench: failed: " ^ what)
      end)

(* Run one operation; an exception counts as a failure. *)
let guarded what f =
  match f () with
  | ok -> record ok what
  | exception e -> record false (what ^ ": " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort Float.compare l

(* Nearest-rank percentile, p in (0, 100]. *)
let percentile p l =
  match sorted l with
  | [] -> nan
  | s ->
      let n = List.length s in
      let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
      List.nth s (max 0 (min (n - 1) (k - 1)))

(* The mean of the samples between the first and the third quartile.
   The end-to-end timings use it: on a shared machine the cores' speed
   switches between levels every few seconds, so a run's samples mix two
   or more levels; a median jumps to whichever level held most of the
   run, while this averages them in proportion and still ignores the
   outliers a mean would take in. *)
let iq_mean l =
  match sorted l with
  | [] -> nan
  | s ->
      let n = List.length s in
      let lo = n / 4 and hi = n - (n / 4) in
      let mid = List.filteri (fun i _ -> i >= lo && i < hi) s in
      List.fold_left ( +. ) 0.0 mid /. float_of_int (List.length mid)

let median = Speed.median

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Set up several times (once for the self-test's tiny runs), discarding
   the previous state before each set-up, and keep the last state; the
   set-up time is the median, each set-up's time scaled to the
   reference speed (see speed.ml). *)
let repeated_setup o ~discard setup =
  let n = if o.tiny then 1 else 3 in
  let rec go i prev samples =
    if i = n then begin
      Speed.tick ();
      (Option.get prev, median (List.map Speed.scaled samples))
    end
    else begin
      Option.iter discard prev;
      Speed.tick ();
      let st, s = Speed.timed (fun () -> setup i) in
      go (i + 1) (Some st) (s :: samples)
    end
  in
  go 0 None []

(* ------------------------------------------------------------------ *)
(* Engine counters, read by name                                       *)
(* ------------------------------------------------------------------ *)

(* A counter the engine does not (or no longer) register reads as 0. *)
let counter name =
  match List.assoc_opt name (Obs.global_counters ()) with Some v -> v | None -> 0

let counters names = List.map (fun n -> (n, counter n)) names

let deltas before after =
  List.map (fun (n, a) -> (n, a - Option.value (List.assoc_opt n before) ~default:0)) after

(* ------------------------------------------------------------------ *)
(* Process facts                                                       *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of a process, in MB, from /proc/<pid>/status. *)
let peak_rss_mb pid =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> nan
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> find ()
      in
      let v = find () in
      close_in ic;
      v

let gc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let major_gcs () = (Gc.quick_stat ()).Gc.major_collections

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.10g" v
  else "null"

(* The last line of standard output. *)
let print_result (metrics : metric list) =
  let body =
    String.concat ","
      (List.map
         (fun m ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.m_name (json_number m.m_value)
             m.m_unit)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (!failed = 0) !attempted !failed body

(* ------------------------------------------------------------------ *)
(* Metric names                                                        *)
(* ------------------------------------------------------------------ *)

(* Every workload reports every metric of a list; a layer a workload
   does not exercise reads 0, as a missing engine counter does. *)
let end_to_end_units =
  [
    ("setup_s", "s"); ("load_s", "s"); ("prepare_ms", "ms"); ("pass_s", "s");
    ("ops_per_s", "1/s"); ("peak_rss_mb", "MB");
  ]

let query_names =
  List.init 20 (fun i -> Printf.sprintf "Q%d" (i + 1)) @ [ "N2"; "N3"; "N4"; "F1" ]

let per_layer_units =
  [
    ("xml.parse_s", "s"); ("xml.parse_mb_per_s", "MB/s"); ("xml.serialize_s", "s");
    ("xml.output_mb", "MB"); ("store.index_build_s", "s"); ("store.index_nodes", "count");
    ("store.index_hits", "count"); ("frontend.parse_us", "us");
    ("frontend.normalize_us", "us"); ("compiler.compile_us", "us");
    ("optimizer.rewrite_us", "us"); ("optimizer.plan_us", "us");
    ("optimizer.rewrite_firings", "count"); ("optimizer.max_q_error", "ratio");
    ("runtime.eval_s", "s");
  ]
  @ List.map (fun q -> ("runtime.eval_ms." ^ q, "ms")) query_names
  @ [
      ("runtime.alloc_mwords", "Mwords"); ("runtime.join_matches", "count");
      ("runtime.major_gcs", "count"); ("codegen.fused_execs", "count");
      ("codegen.fused_rows", "count"); ("runtime.par_tasks", "count");
      ("relational.rel_subplans", "count"); ("server.queue_wait_ms", "ms");
      ("server.eval_ms", "ms"); ("server.serialize_ms", "ms");
      ("server.plan_cache_hit_ratio", "ratio"); ("server.plan_cache_hits", "count");
      ("server.plan_cache_misses", "count"); ("server.read_p50_ms", "ms");
      ("server.read_p99_ms", "ms"); ("server.write_p50_ms", "ms");
      ("server.write_p99_ms", "ms"); ("update.incremental_patches", "count");
      ("update.full_renumbers", "count"); ("update.versions_live", "count");
      ("bench.trace_overhead_pct", "%");
    ]

let fill units values =
  List.map
    (fun (name, u) -> metric name u (Option.value (List.assoc_opt name values) ~default:0.0))
    units
