(* The in-process workloads, xmark-10mb and clio-250kb: one generated
   document, a fixed list of queries, each pass preparing (uncached),
   running and serializing every query through the public API. *)

open Common
module Item = Xqc.Item
module Node = Xqc.Node

type spec = {
  var : string;  (** the free variable the queries read the document from *)
  uri : string;
  queries : (string * string) list;
  generate : seed:int -> target_bytes:int -> Node.t;
  bytes : int;
  loads_after : int -> int;  (** fresh loads timed after the i-th query of a pass *)
  prepares_after : int;  (** whole-list prepares timed after each query *)
}

let xmark_spec ~tiny =
  {
    var = "auction";
    uri = "auction.xml";
    queries = Xqc_workload.Xmark_queries.all;
    generate = (fun ~seed ~target_bytes -> Xqc_workload.Xmark.generate ~seed ~target_bytes ());
    bytes = (if tiny then 100_000 else 10_000_000);
    loads_after = (fun i -> if i = 4 || i = 14 then 1 else 0);
    prepares_after = 1;
  }

let clio_spec ~tiny =
  {
    var = "doc";
    uri = "dblp.xml";
    queries =
      Xqc_workload.Clio.[ ("N2", n2); ("N3", n3); ("N4", n4); ("F1", figure1) ];
    generate = (fun ~seed ~target_bytes -> Xqc_workload.Clio.generate ~seed ~target_bytes ());
    bytes = (if tiny then 20_000 else 250_000);
    loads_after = (fun _ -> 1);
    prepares_after = 6;
  }

(* Size of the document the five-strategy equivalence check runs on. *)
let equivalence_bytes ~tiny = if tiny then 30_000 else 200_000

let context spec doc =
  let ctx = Xqc.context () in
  Xqc.bind_document ctx spec.uri doc;
  Xqc.bind_variable ctx spec.var [ Item.Node doc ];
  ctx

(* Users pay this once per document: parse, then build the index. *)
let load xml =
  let doc = Xqc.parse_document xml in
  ignore (Xqc.Store.index_nodes doc);
  doc

let run_query ?(strategy = Xqc.Optimized) ctx source =
  let items = Xqc.run (Xqc.prepare ~strategy source) ctx in
  (items, Xqc.serialize items)

(* The equivalence property: every strategy serializes the same bytes. *)
let all_equal = function [] -> true | x :: rest -> List.for_all (String.equal x) rest

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  xml : string;
  doc : Node.t;
  ctx : Xqc.Dynamic_ctx.t;
  expected : (string * string) list;  (** query -> checked serialized output *)
}

(* XMark: every query against the reference computed from the
   generator's tree, at full size; then all five strategies byte-equal
   (and equal to the reference) on a smaller document of the same seed. *)
let check_xmark o spec tree state_ctx =
  let refs = Refs.xmark tree in
  let outputs =
    List.map
      (fun (name, source) ->
        let out = ref "" in
        Speed.tick ();
        guarded ("xmark reference " ^ name) (fun () ->
            let items, text = run_query state_ctx source in
            out := text;
            let e = List.assoc name refs in
            Refs.check e (Refs.answer e items));
        (name, !out))
      spec.queries
  in
  let small = spec.generate ~seed:o.seed ~target_bytes:(equivalence_bytes ~tiny:o.tiny) in
  let small_refs = Refs.xmark small in
  let sdoc = load (Xqc.Serializer.node_to_string small) in
  let sctx = context spec sdoc in
  List.iter
    (fun (name, source) ->
      Speed.tick ();
      guarded ("five-strategy equivalence " ^ name) (fun () ->
          let runs = List.map (fun s -> run_query ~strategy:s sctx source) Xqc.all_strategies in
          all_equal (List.map snd runs)
          &&
          let e = List.assoc name small_refs in
          Refs.check e (Refs.answer e (fst (List.hd runs)))))
    spec.queries;
  Xqc.Store.purge_root sdoc;
  outputs

(* Clio: byte-equal to the Saxon-like indexed interpreter at full size. *)
let check_clio spec ctx =
  List.map
    (fun (name, source) ->
      let out = ref "" in
      Speed.tick ();
      guarded ("clio vs saxon-like " ^ name) (fun () ->
          let _, text = run_query ctx source in
          let _, saxon = run_query ~strategy:Xqc.Saxon_like ctx source in
          out := text;
          String.equal text saxon);
      (name, !out))
    spec.queries

(* [Speed.tick] runs between its steps, to scale its time by. *)
let setup o spec : state =
  let tree = spec.generate ~seed:o.seed ~target_bytes:spec.bytes in
  Speed.tick ();
  let xml = Xqc.Serializer.node_to_string tree in
  Speed.tick ();
  let doc = load xml in
  let ctx = context spec doc in
  let expected =
    if String.equal spec.var "auction" then check_xmark o spec tree ctx else check_clio spec ctx
  in
  { xml; doc; ctx; expected }

(* ------------------------------------------------------------------ *)
(* The timed window                                                    *)
(* ------------------------------------------------------------------ *)

(* One pass: every query prepared, run and serialized; each output must
   equal the checked set-up output.  [measure] times one query and
   [between i] runs after the i-th query, outside it; the result is the
   list of the queries' measurements.  The end-to-end window puts its
   load and prepare samples between the queries, so that they are
   spread over the whole run, not bunched at one moment of it. *)
let pass ?(between = fun _ -> ()) ~measure spec st =
  List.mapi
    (fun i (name, source) ->
      let m =
        measure (fun () ->
            guarded ("pass " ^ name) (fun () ->
                let _, text = run_query st.ctx source in
                String.equal text (List.assoc name st.expected)))
      in
      between i;
      m)
    spec.queries

let wall_time f = snd (time f)
let wall_pass spec st = List.fold_left ( +. ) 0.0 (pass ~measure:wall_time spec st)

let prepare_all spec = List.iter (fun (_, s) -> ignore (Xqc.prepare s)) spec.queries

(* Each timed load starts from a collected heap, so the garbage earlier
   cycles left behind does not decide how much marking it pays for. *)
let timed_load xml =
  Gc.full_major ();
  Speed.tick ();
  let doc, s = Speed.timed (fun () -> load xml) in
  Xqc.Store.purge_root doc;
  s

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)
(* ------------------------------------------------------------------ *)

(* The layers' public functions, called in the order [Xqc.prepare] and
   [Xqc.run] call them, each wrapped in a span. *)
type traced = {
  text : string;
  eval_s : float;
  firings : int;
  q_error : float;
  join_matches : int;
}

(* The planner estimates an operator's output for one execution, while
   the collector sums its rows over every execution (a dependent
   sub-plan runs once per outer tuple), so the actual side is taken per
   execution. *)
let q_error_of (c : Obs.collector) =
  List.fold_left
    (fun acc (_, root) ->
      Obs.fold_nodes
        (fun acc (n : Obs.op_node) ->
          match n.Obs.on_est with
          | Some est ->
              let st = n.Obs.on_stats in
              let rows = float_of_int (st.Obs.op_tuples + st.Obs.op_items) in
              let act = Float.max 1.0 (rows /. float_of_int (max 1 st.Obs.op_calls)) in
              let est = Float.max 1.0 est in
              Float.max acc (Float.max (act /. est) (est /. act))
          | None -> acc)
        acc root)
    1.0 c.Obs.co_plans

(* The prepare phases; returns the physical plan and the number of
   rewrite-rule firings. *)
let traced_prepare source =
  let ast = Spans.run "frontend.parse" (fun () -> Xqc.Xq_parser.parse_query source) in
  let core = Spans.run "frontend.normalize" (fun () -> Xqc.Normalize.normalize_query ast) in
  let compiled = Spans.run "compiler.compile" (fun () -> Xqc.Compile.compile_query core) in
  let rw = Obs.rewrite_trace () in
  let optimized =
    Spans.run "optimizer.rewrite" (fun () -> Xqc.optimize_query ~trace:rw Xqc.Optimized compiled)
  in
  let planned =
    Spans.run "optimizer.plan" (fun () ->
        Xqc.plan_query (Xqc.planner_config Xqc.Optimized None) optimized)
  in
  (planned, Obs.total_firings rw)

let traced_query ctx source : traced =
  let planned, firings = traced_prepare source in
  let c = Obs.collector () in
  let items, eval_s =
    time (fun () -> Spans.run "runtime.eval" (fun () -> Xqc.Eval.run ~stats:c ctx planned))
  in
  let text = Spans.run "xml.serialize" (fun () -> Xqc.serialize items) in
  {
    text;
    eval_s;
    firings;
    q_error = q_error_of c;
    join_matches = (Obs.join_totals c).Obs.js_matches;
  }

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(* Cycles of the window repeat until [o.seconds] have passed; a cycle
   always completes, so every run attempts whole passes. *)
let cycles o f =
  let t0 = now () in
  let rec go () =
    f ();
    if now () -. t0 < o.seconds then go ()
  in
  go ()

(* Every sample is scaled to the reference speed (see speed.ml) once the
   window has ended, when the kernel runs after it are known too. *)
let end_to_end o spec st ~setup_s =
  Gc.compact ();
  let loads = ref [] and passes = ref [] and preps = ref [] in
  let between i =
    Speed.tick ();
    for _ = 1 to spec.prepares_after do
      preps := snd (Speed.timed (fun () -> prepare_all spec)) :: !preps
    done;
    for _ = 1 to spec.loads_after i do
      loads := timed_load st.xml :: !loads
    done
  in
  let measure f =
    Speed.tick ();
    snd (Speed.timed f)
  in
  cycles o (fun () -> passes := pass ~between ~measure spec st :: !passes);
  Speed.tick ();
  let scaled = List.map Speed.scaled in
  let pass_s = iq_mean (List.map (fun p -> Speed.scaled (Speed.combine p)) !passes) in
  fill end_to_end_units
    [
      ("setup_s", setup_s);
      ("load_s", iq_mean (scaled !loads));
      ("prepare_ms", iq_mean (scaled !preps) *. 1000.0);
      ("pass_s", pass_s);
      ("ops_per_s", float_of_int (List.length spec.queries) /. pass_s);
      ("peak_rss_mb", peak_rss_mb "self");
    ]

let tier_counters = [ "fused_execs"; "fused_rows"; "par_tasks"; "rel_subplans"; "index_hits" ]

let per_layer o spec st =
  let load_traces = ref [] and pass_traces = ref [] in
  let index_nodes = ref 0 in
  let untraced = ref [] and traced_walls = ref [] in
  let words = ref [] and gcs = ref [] and tiers = ref [] in
  let evals = Hashtbl.create 32 in
  let firings = ref 0 and q_error = ref 1.0 and joins = ref 0 and out_bytes = ref 0 in
  cycles o (fun () ->
      Gc.full_major ();
      let id, () =
        Spans.trace "load" (fun () ->
            let doc = Spans.run "xml.parse" (fun () -> Xqc.parse_document st.xml) in
            index_nodes :=
              Option.value ~default:0
                (Spans.run "store.index_build" (fun () -> Xqc.Store.index_nodes doc));
            Xqc.Store.purge_root doc)
      in
      load_traces := id :: !load_traces;
      (* an untraced pass, for the engine's counters and the overhead *)
      let c0 = counters tier_counters and w0 = gc_words () and g0 = major_gcs () in
      untraced := wall_pass spec st :: !untraced;
      words := (gc_words () -. w0) :: !words;
      gcs := float_of_int (major_gcs () - g0) :: !gcs;
      tiers := deltas c0 (counters tier_counters) :: !tiers;
      (* the traced pass *)
      firings := 0;
      joins := 0;
      out_bytes := 0;
      let t0 = now () in
      let id, () =
        Spans.trace "pass" (fun () ->
            List.iter
              (fun (name, source) ->
                guarded ("traced pass " ^ name) (fun () ->
                    let r = Spans.run "query" (fun () -> traced_query st.ctx source) in
                    Hashtbl.replace evals name
                      (r.eval_s :: Option.value (Hashtbl.find_opt evals name) ~default:[]);
                    firings := !firings + r.firings;
                    joins := !joins + r.join_matches;
                    q_error := Float.max !q_error r.q_error;
                    out_bytes := !out_bytes + String.length r.text;
                    String.equal r.text (List.assoc name st.expected)))
              spec.queries)
      in
      traced_walls := (now () -. t0) :: !traced_walls;
      pass_traces := id :: !pass_traces);
  Spans.write_jsonl
    (Filename.concat o.work_dir (Printf.sprintf "spans-%s-%d.jsonl" o.workload o.seed));
  let self = Spans.self_times () in
  let layer traces name = median (Spans.per_trace self traces name) in
  let per_pass name = layer !pass_traces name in
  let tier name = median (List.map (fun d -> float_of_int (List.assoc name d)) !tiers) in
  let parse_s = layer !load_traces "xml.parse" in
  fill per_layer_units
    ([
       ("xml.parse_s", parse_s);
       ("xml.parse_mb_per_s", float_of_int (String.length st.xml) /. 1e6 /. parse_s);
       ("xml.serialize_s", per_pass "xml.serialize");
       ("xml.output_mb", float_of_int !out_bytes /. 1e6);
       ("store.index_build_s", layer !load_traces "store.index_build");
       ("store.index_nodes", float_of_int !index_nodes);
       ("store.index_hits", tier "index_hits");
       ("frontend.parse_us", per_pass "frontend.parse" *. 1e6);
       ("frontend.normalize_us", per_pass "frontend.normalize" *. 1e6);
       ("compiler.compile_us", per_pass "compiler.compile" *. 1e6);
       ("optimizer.rewrite_us", per_pass "optimizer.rewrite" *. 1e6);
       ("optimizer.plan_us", per_pass "optimizer.plan" *. 1e6);
       ("optimizer.rewrite_firings", float_of_int !firings);
       ("optimizer.max_q_error", !q_error);
       ("runtime.eval_s", per_pass "runtime.eval");
       ("runtime.alloc_mwords", median !words /. 1e6);
       ("runtime.join_matches", float_of_int !joins);
       ("runtime.major_gcs", median !gcs);
       ("codegen.fused_execs", tier "fused_execs");
       ("codegen.fused_rows", tier "fused_rows");
       ("runtime.par_tasks", tier "par_tasks");
       ("relational.rel_subplans", tier "rel_subplans");
       ( "bench.trace_overhead_pct",
         (median !traced_walls /. median !untraced -. 1.0) *. 100.0 );
     ]
    @ Hashtbl.fold
        (fun name ts acc -> ("runtime.eval_ms." ^ name, median ts *. 1000.0) :: acc)
        evals [])

let main o spec =
  let st, setup_s =
    repeated_setup o
      ~discard:(fun st ->
        Xqc.Store.purge_root st.doc;
        Gc.compact ())
      (fun _ -> setup o spec)
  in
  if o.trace then per_layer o spec st else end_to_end o spec st ~setup_s
