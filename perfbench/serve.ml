(* serve-mixed: the query server in a process of its own with a
   preloaded XMark document, driven in a closed loop over a Unix socket
   by this process, one thread and one connection per client.

   Each client repeats a fixed cycle of 20 requests: 18 short reads
   (point lookups, counts, Q1/Q5/Q8/Q17) and 2 writes, one inserting a
   bidder into the client's own open auction and one deleting it again,
   so the document keeps its size.  Every reply is checked against
   values computed from the generated tree plus the writes acknowledged
   so far; while another client's write is in flight, a count may lie
   anywhere between its value before and after that write. *)

open Common
module Client = Xqc_server.Client
module Server = Xqc_server.Server
module Prng = Xqc_workload.Prng
module Q = Xqc_workload.Xmark_queries

let doc_bytes ~tiny = if tiny then 50_000 else 1_000_000

(* At most one connection per core, and two at most. *)
let n_clients () = max 1 (min 2 (Domain.recommended_domain_count ()))

type kind =
  | Person of int  (** index into the person pool *)
  | Person0  (** Q1 *)
  | All_bidders
  | Auction_bidders of int  (** index into the auction pool *)
  | Q5
  | Q8
  | Q17
  | Insert
  | Delete

let cycle_template =
  [ `P; `AB; `P; `Q1; `AUC; `Q5; `P; `AB; `Q8; `INS; `P; `Q17; `AUC; `P; `AB; `Q5; `P; `Q1;
    `AUC; `DEL ]

(* ------------------------------------------------------------------ *)
(* Expected values                                                     *)
(* ------------------------------------------------------------------ *)

type world = {
  facts : Refs.auction_facts;
  persons : (string * string) array;  (** the point-lookup pool: id, name *)
  auctions : string array;  (** the per-auction count pool; clients' targets first *)
  targets : string array;  (** client -> the open auction it writes to *)
}

let make_world ~seed facts n =
  let rng = Prng.create ~seed:(seed + 7919) () in
  let pn = Array.length facts.Refs.person_names in
  let persons = Array.init (min 16 pn) (fun _ -> facts.Refs.person_names.(Prng.int rng pn)) in
  let ids = facts.Refs.auction_ids in
  let rec distinct acc k =
    if k = 0 then List.rev acc
    else
      let a = ids.(Prng.int rng (Array.length ids)) in
      if List.mem a acc then distinct acc k else distinct (a :: acc) (k - 1)
  in
  let targets = Array.of_list (distinct [] (min n (Array.length ids))) in
  let others = Array.init 4 (fun _ -> ids.(Prng.int rng (Array.length ids))) in
  { facts; persons; auctions = Array.append targets others; targets }

(* What a client's writes have done, as the other clients may see it:
   [inserted] is the acknowledged state, [changes] counts every send and
   every acknowledgement, [inflight] marks a write awaiting its reply. *)
type client_state = { mutable inserted : int; mutable changes : int; mutable inflight : bool }

let state_lock = Mutex.create ()

let snapshot states =
  Mutex.protect state_lock (fun () ->
      Array.map (fun s -> { inserted = s.inserted; changes = s.changes; inflight = s.inflight }) states)

(* The range of bidders client [c] may have added, as seen by client [r]
   over a read that started at [before] and ended at [after]. *)
let contribution ~r c (before : client_state array) (after : client_state array) =
  if c = r then (before.(c).inserted, before.(c).inserted)
  else if before.(c).changes = after.(c).changes && not before.(c).inflight then
    (before.(c).inserted, before.(c).inserted)
  else (0, 1)

type check =
  | Exact of string
  | Range of int * int
  | Items of int
  | Applied of int

let expect w ~r before after = function
  | Person i -> Exact (snd w.persons.(i))
  | Person0 -> Exact w.facts.Refs.person0_name
  | Q5 -> Exact (string_of_int w.facts.Refs.closed_price_ge_40)
  | Q8 -> Items w.facts.Refs.n_persons
  | Q17 -> Items w.facts.Refs.persons_without_homepage
  | Insert | Delete -> Applied 1
  | All_bidders ->
      let lo, hi =
        Array.fold_left
          (fun (lo, hi) c ->
            let l, h = contribution ~r c before after in
            (lo + l, hi + h))
          (0, 0)
          (Array.init (Array.length before) Fun.id)
      in
      Range (w.facts.Refs.bidders_total + lo, w.facts.Refs.bidders_total + hi)
  | Auction_bidders i ->
      let id = w.auctions.(i) in
      let base = Option.value (Hashtbl.find_opt w.facts.Refs.bidders_of id) ~default:0 in
      let lo, hi = ref base, ref base in
      Array.iteri
        (fun c t ->
          if String.equal t id then begin
            let l, h = contribution ~r c before after in
            lo := !lo + l;
            hi := !hi + h
          end)
        w.targets;
      Range (!lo, !hi)

(* A reply as the check sees it: the result text and item count of a
   query, or the primitives applied by an update. *)
type reply = Result of string * int | Update_applied of int | Failed of string

let check_reply (c : check) (reply : reply) =
  match (c, reply) with
  | Exact s, Result (text, _) -> String.equal s text
  | Range (lo, hi), Result (text, _) -> (
      match int_of_string_opt (String.trim text) with
      | Some n -> lo <= n && n <= hi
      | None -> false)
  | Items n, Result (_, items) -> items = n
  | Applied n, Update_applied a -> a = n
  | _ -> false

let describe_check = function
  | Exact s -> Printf.sprintf "%S" s
  | Range (lo, hi) -> Printf.sprintf "a count in [%d, %d]" lo hi
  | Items n -> Printf.sprintf "%d items" n
  | Applied n -> Printf.sprintf "%d applied" n

let describe_reply = function
  | Result (text, n) ->
      Printf.sprintf "%d items %S" n
        (if String.length text > 120 then String.sub text 0 120 ^ "..." else text)
  | Update_applied n -> Printf.sprintf "%d applied" n
  | Failed m -> "error " ^ m

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let source w ~client = function
  | Person i ->
      Printf.sprintf "$auction/site/people/person[@id = \"%s\"]/name/text()" (fst w.persons.(i))
  | Person0 -> Q.q1
  | All_bidders -> "count($auction//bidder)"
  | Auction_bidders i ->
      Printf.sprintf "count($auction/site/open_auctions/open_auction[@id = \"%s\"]/bidder)"
        w.auctions.(i)
  | Q5 -> Q.q5
  | Q8 -> Q.q8
  | Q17 -> Q.q17
  | Insert ->
      Printf.sprintf
        "insert node <bidder><date>01/01/2001</date><time>12:00:00</time><personref \
         person=\"person0\"/><increase>3.00</increase></bidder> as last into \
         $auction/site/open_auctions/open_auction[@id = \"%s\"]"
        w.targets.(client)
  | Delete ->
      Printf.sprintf "delete node $auction/site/open_auctions/open_auction[@id = \"%s\"]/bidder[last()]"
        w.targets.(client)

let is_write = function Insert | Delete -> true | _ -> false

(* The distinct read texts of the mix: what [prepare_ms] prepares. *)
let read_sources w =
  List.init (Array.length w.persons) (fun i -> source w ~client:0 (Person i))
  @ List.init (Array.length w.auctions) (fun i -> source w ~client:0 (Auction_bidders i))
  @ List.map (source w ~client:0) [ Person0; All_bidders; Q5; Q8; Q17 ]

let json_field name = function Obs.Obj f -> List.assoc_opt name f | _ -> None

let send conn ~trace kind src =
  match
    if is_write kind then
      Client.update_json ~trace conn ~doc:"auction" src
      |> Result.map (fun j ->
             match json_field "applied" j with Some (Obs.Int n) -> Update_applied n | _ -> Failed "no applied")
    else
      Client.query_json ~trace conn src
      |> Result.map (fun j ->
             match (json_field "result" j, json_field "items" j) with
             | Some (Obs.Str s), Some (Obs.Int n) -> Result (s, n)
             | _ -> Failed "no result")
  with
  | Ok r -> r
  | Error (code, m) -> Failed (code ^ ": " ^ m)

type sample = { write : bool; latency : float }

(* One client's cycle: returns its start and end. *)
let run_cycle w states conn ~client ~rng ~trace ~(samples : sample list ref) =
  let t_cycle = now () in
  let trace_id = if trace then Spans.new_trace () else 0 in
  List.iter
    (fun slot ->
      let kind =
        match slot with
        | `P -> Person (Prng.int rng (Array.length w.persons))
        | `Q1 -> Person0
        | `AB -> All_bidders
        | `AUC -> Auction_bidders (Prng.int rng (Array.length w.auctions))
        | `Q5 -> Q5
        | `Q8 -> Q8
        | `Q17 -> Q17
        | `INS -> Insert
        | `DEL -> Delete
      in
      let src = source w ~client kind in
      if is_write kind then
        Mutex.protect state_lock (fun () ->
            let s = states.(client) in
            s.inflight <- true;
            s.changes <- s.changes + 1);
      let before = snapshot states in
      let t0 = now () in
      let reply, broken =
        try (send conn ~trace kind src, None) with e -> (Failed (Printexc.to_string e), Some e)
      in
      let t1 = now () in
      if trace then
        Spans.add ~trace:trace_id (if is_write kind then "server.write" else "server.read") ~t0 ~t1;
      if is_write kind then
        Mutex.protect state_lock (fun () ->
            let s = states.(client) in
            (match reply with
            | Update_applied 1 -> s.inserted <- (if kind = Insert then 1 else 0)
            | _ -> ());
            s.inflight <- false;
            s.changes <- s.changes + 1);
      let after = snapshot states in
      let c = expect w ~r:client before after kind in
      record (check_reply c reply)
        (Printf.sprintf "serve request %S: expected %s, got %s" src (describe_check c)
           (describe_reply reply));
      samples := { write = is_write kind; latency = t1 -. t0 } :: !samples;
      (* no reply, or not in step with the requests: the connection is
         of no further use *)
      Option.iter raise broken)
    cycle_template;
  let t1 = now () in
  { Speed.t0 = t_cycle; t1; raw = t1 -. t_cycle }

(* ------------------------------------------------------------------ *)
(* The server process                                                  *)
(* ------------------------------------------------------------------ *)

(* Every connection to the server stays open until the server is shut
   down: [control] for pings, metrics and the shutdown, one per client
   for its requests.  The server closes a finished connection's
   descriptor twice (lib/server/server.ml, [reader_thread]), which can
   close a connection accepted in between; connections that come and go
   while others are accepted break the run. *)
type server = { pid : int; control : Client.t }

(* A client connection; a reply that has not come within 60 s fails the
   request instead of hanging the run. *)
let connect sock =
  let conn = Client.connect_unix sock in
  Unix.setsockopt_float conn.Client.fd Unix.SO_RCVTIMEO 60.0;
  conn

let rec wait_ready sock deadline =
  match connect sock with
  | conn ->
      if not (Client.ping conn) then failwith "perfbench: the server does not answer pings";
      conn
  | exception Client.Client_error _ ->
      if now () > deadline then failwith "perfbench: the server did not come up";
      Unix.sleepf 0.02;
      wait_ready sock deadline

(* Servers still running when this process exits are killed. *)
let live_pids : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids)

(* Fork the server.  OCaml 5 refuses [Unix.fork] once a domain has been
   spawned, so this runs before this process evaluates any query. *)
let start_server o ~doc_path ~n =
  let sock = Filename.concat o.work_dir (Printf.sprintf "serve-%d-%d.sock" (Unix.getpid ()) n) in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      (try
         Server.serve
           { Server.default_config with unix_socket = Some sock; preload = [ ("auction", doc_path) ] }
       with e -> prerr_endline ("perfbench: server: " ^ Printexc.to_string e));
      Unix._exit 0
  | pid ->
      live_pids := pid :: !live_pids;
      (sock, { pid; control = wait_ready sock (now () +. 120.0) })

let rec reap pid deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when now () < deadline ->
      Unix.sleepf 0.02;
      reap pid deadline
  | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop_server srv =
  (try Client.shutdown srv.control with _ -> ());
  Client.close srv.control;
  reap srv.pid (now () +. 30.0)

(* ------------------------------------------------------------------ *)
(* Set-up and the window                                               *)
(* ------------------------------------------------------------------ *)

type state = {
  srv : server;
  conns : Client.t array;  (** one per client *)
  world : world;
  xml : string;
  states : client_state array;
}

let setup o ~n =
  let tree = Xqc_workload.Xmark.generate ~seed:o.seed ~target_bytes:(doc_bytes ~tiny:o.tiny) () in
  let clients = n_clients () in
  let world = make_world ~seed:o.seed (Refs.auction_facts tree) clients in
  Speed.tick ();
  let xml = Xqc.Serializer.node_to_string tree in
  let doc_path = Filename.concat o.work_dir (Printf.sprintf "auction-%d.xml" (Unix.getpid ())) in
  Out_channel.with_open_bin doc_path (fun oc -> output_string oc xml);
  let sock, srv = start_server o ~doc_path ~n in
  (* the server has read it *)
  Sys.remove doc_path;
  Speed.tick ();
  let states = Array.init clients (fun _ -> { inserted = 0; changes = 0; inflight = false }) in
  let conns = Array.init clients (fun _ -> connect sock) in
  (* warm-up: every client runs one checked cycle, one after another *)
  Array.iteri
    (fun client conn ->
      let rng = Prng.create ~seed:(o.seed + client) () in
      ignore (run_cycle world states conn ~client ~rng ~trace:false ~samples:(ref []));
      Speed.tick ())
    conns;
  { srv; conns; world; xml; states }

let shutdown st =
  Array.iter Client.close st.conns;
  stop_server st.srv;
  live_pids := List.filter (( <> ) st.srv.pid) !live_pids

type window = {
  cycles : Speed.sample list;  (** each client cycle *)
  traced_cycles : Speed.sample list;
  rounds : Speed.sample list;
  samples : sample list;
  n_cycles : int;
}

(* Cycles per client in a round. *)
let round = 4

(* The clients run [round] cycles each, at once; rounds repeat until
   [o.seconds] have passed, with a kernel run (see speed.ml) between
   them, while the server is idle.  With [~trace], every other round is
   traced, so that traced and untraced cycles both start rounds. *)
let drive o st ~trace =
  let clients = Array.length st.states in
  let rngs = Array.init clients (fun c -> Prng.create ~seed:(o.seed + 1000 + c) ()) in
  let plain = Array.make clients [] and traced = Array.make clients [] in
  let samples = Array.init clients (fun _ -> ref []) in
  let broken = Array.make clients false in
  let client_round ~traced_now client () =
    if not broken.(client) then
      try
        for _ = 1 to round do
          let c =
            run_cycle st.world st.states st.conns.(client) ~client ~rng:rngs.(client)
              ~trace:traced_now ~samples:samples.(client)
          in
          if traced_now then traced.(client) <- c :: traced.(client)
          else plain.(client) <- c :: plain.(client)
        done
      with _ -> broken.(client) <- true (* recorded as a failed request *)
  in
  let t0 = now () in
  let rec go rounds =
    Speed.tick ();
    let traced_now = trace && List.length rounds mod 2 = 1 in
    let (), r =
      Speed.timed (fun () ->
          List.iter Thread.join
            (List.init clients (fun c -> Thread.create (client_round ~traced_now c) ())))
    in
    let rounds = r :: rounds in
    if now () -. t0 < o.seconds || (trace && List.length rounds < 2) then go rounds else rounds
  in
  let rounds = go [] in
  Speed.tick ();
  let all a = List.concat (Array.to_list a) in
  let cycles = all plain and traced_cycles = all traced in
  {
    cycles;
    traced_cycles;
    rounds;
    samples = List.concat_map (fun r -> !r) (Array.to_list samples);
    n_cycles = List.length cycles + List.length traced_cycles;
  }

let server_metrics st = Client.metrics st.srv.control

let server_counter m name =
  match Option.bind (json_field "counters" m) (json_field name) with
  | Some (Obs.Int n) -> n
  | _ -> 0

let hist_mean m name =
  match Option.bind (json_field name m) (json_field "mean") with
  | Some (Obs.Float f) -> f
  | Some (Obs.Int n) -> float_of_int n
  | _ -> 0.0

let latencies ~write samples =
  List.filter_map (fun s -> if s.write = write then Some s.latency else None) samples

(* Loading the preload document as the server does it, and preparing
   the read mix uncached: measured in this process after the server has
   stopped, in rounds of one load and 5 prepares spread over 3 seconds,
   and scaled to the reference speed. *)
let load_and_prepare_times st =
  let sources = read_sources st.world in
  let loads = ref [] and preps = ref [] in
  let t0 = now () in
  while now () -. t0 < 3.0 do
    loads := Batch.timed_load st.xml :: !loads;
    Speed.tick ();
    for _ = 1 to 5 do
      preps :=
        snd (Speed.timed (fun () -> List.iter (fun s -> ignore (Xqc.prepare s)) sources))
        :: !preps
    done
  done;
  Speed.tick ();
  (List.map Speed.scaled !loads, List.map Speed.scaled !preps)

let counter_names =
  [ "plan_cache_hits"; "plan_cache_misses"; "fused_execs"; "fused_rows"; "par_tasks";
    "rel_subplans"; "index_hits"; "incremental_index_patches"; "full_renumbers" ]

let main o =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let st, setup_s = repeated_setup o ~discard:shutdown (fun n -> setup o ~n) in
  let before = List.map (fun n -> (n, server_counter (server_metrics st) n)) counter_names in
  let w = drive o st ~trace:o.trace in
  let m = server_metrics st in
  let rss = peak_rss_mb (string_of_int st.srv.pid) in
  shutdown st;
  let d name = float_of_int (server_counter m name - List.assoc name before) in
  if not o.trace then
    let loads, preps = load_and_prepare_times st in
    fill end_to_end_units
      [
        ("setup_s", setup_s);
        ("load_s", iq_mean loads);
        ("prepare_ms", iq_mean preps *. 1000.0);
        ("pass_s", iq_mean (List.map Speed.scaled w.cycles));
        ( "ops_per_s",
          float_of_int (List.length w.samples)
          /. List.fold_left (fun acc r -> acc +. Speed.scaled r) 0.0 w.rounds );
        ("peak_rss_mb", rss);
      ]
  else begin
    (* traced loads and prepares in this process, for the layers the
       server runs on each replan *)
    let index_nodes = ref 0 in
    let load_traces =
      List.init 15 (fun _ ->
          Gc.full_major ();
          fst
            (Spans.trace "load" (fun () ->
                 let doc = Spans.run "xml.parse" (fun () -> Xqc.parse_document st.xml) in
                 index_nodes :=
                   Option.value ~default:0
                     (Spans.run "store.index_build" (fun () -> Xqc.Store.index_nodes doc));
                 Xqc.Store.purge_root doc)))
    in
    let firings = ref 0 in
    let prep_traces =
      List.init 25 (fun _ ->
          firings := 0;
          fst
            (Spans.trace "prepare" (fun () ->
                 List.iter
                   (fun s -> firings := !firings + snd (Batch.traced_prepare s))
                   (read_sources st.world))))
    in
    Spans.write_jsonl
      (Filename.concat o.work_dir (Printf.sprintf "spans-%s-%d.jsonl" o.workload o.seed));
    let self = Spans.self_times () in
    let layer traces name = median (Spans.per_trace self traces name) in
    let per_cycle name = d name /. float_of_int w.n_cycles in
    let hits = d "plan_cache_hits" and misses = d "plan_cache_misses" in
    let reads = latencies ~write:false w.samples and writes = latencies ~write:true w.samples in
    let parse_s = layer load_traces "xml.parse" in
    fill per_layer_units
      [
        ("xml.parse_s", parse_s);
        ("xml.parse_mb_per_s", float_of_int (String.length st.xml) /. 1e6 /. parse_s);
        ("store.index_build_s", layer load_traces "store.index_build");
        ("store.index_nodes", float_of_int !index_nodes);
        ("store.index_hits", per_cycle "index_hits");
        ("frontend.parse_us", layer prep_traces "frontend.parse" *. 1e6);
        ("frontend.normalize_us", layer prep_traces "frontend.normalize" *. 1e6);
        ("compiler.compile_us", layer prep_traces "compiler.compile" *. 1e6);
        ("optimizer.rewrite_us", layer prep_traces "optimizer.rewrite" *. 1e6);
        ("optimizer.plan_us", layer prep_traces "optimizer.plan" *. 1e6);
        ("optimizer.rewrite_firings", float_of_int !firings);
        ("codegen.fused_execs", per_cycle "fused_execs");
        ("codegen.fused_rows", per_cycle "fused_rows");
        ("runtime.par_tasks", per_cycle "par_tasks");
        ("relational.rel_subplans", per_cycle "rel_subplans");
        ("server.queue_wait_ms", hist_mean m "queue_wait_ms");
        ("server.eval_ms", hist_mean m "eval_ms");
        ("server.serialize_ms", hist_mean m "serialize_ms");
        ("server.plan_cache_hit_ratio", hits /. Float.max 1.0 (hits +. misses));
        ("server.plan_cache_hits", hits);
        ("server.plan_cache_misses", misses);
        ("server.read_p50_ms", percentile 50.0 reads *. 1000.0);
        ("server.read_p99_ms", percentile 99.0 reads *. 1000.0);
        ("server.write_p50_ms", percentile 50.0 writes *. 1000.0);
        ("server.write_p99_ms", percentile 99.0 writes *. 1000.0);
        ("update.incremental_patches", d "incremental_index_patches");
        ("update.full_renumbers", d "full_renumbers");
        ( "update.versions_live",
          match json_field "snapshot_versions_live" m with
          | Some (Obs.Int n) -> float_of_int n
          | _ -> 0.0 );
        ( "bench.trace_overhead_pct",
          let raw (c : Speed.sample) = c.Speed.raw in
          (median (List.map raw w.traced_cycles) /. median (List.map raw w.cycles) -. 1.0)
          *. 100.0 );
      ]
  end
