(* The self-test of the output checks: each check is handed a correct
   answer, which it must accept, and mutated answers (one item dropped,
   one number changed), each of which it must reject. *)

let failures = ref 0

let expect_ok what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL  %s\n" what
  end
  else Printf.printf "ok    %s\n" what

let accepts what b = expect_ok (what ^ ": correct answer accepted") b
let rejects what b = expect_ok (what ^ ": mutated answer rejected") (not b)

(* Change the first digit of a text: a number changed in one place. *)
let bump_digit s =
  let b = Bytes.of_string s in
  match Seq.find (fun i -> Bytes.get b i >= '0' && Bytes.get b i <= '9')
          (Seq.init (Bytes.length b) Fun.id) with
  | Some i ->
      Bytes.set b i (if Bytes.get b i = '9' then '0' else Char.chr (Char.code (Bytes.get b i) + 1));
      Bytes.to_string b
  | None -> s ^ "0"

let xmark () =
  let spec = Batch.xmark_spec ~tiny:true in
  let tree = spec.Batch.generate ~seed:1 ~target_bytes:spec.Batch.bytes in
  let refs = Refs.xmark tree in
  let doc = Batch.load (Xqc.Serializer.node_to_string tree) in
  let ctx = Batch.context spec doc in
  List.iter
    (fun (name, source) ->
      let e = List.assoc name refs in
      let items, text = Batch.run_query ctx source in
      let actual = Refs.answer e items in
      let what = Printf.sprintf "xmark %s reference (%s)" name (Refs.describe e) in
      accepts what (Refs.check e actual);
      rejects (what ^ ", item dropped") (Refs.check e (Refs.drop_one actual));
      (match e with
      | Refs.Count _ -> ()
      | Refs.Strings _ | Refs.Numbers _ | Refs.Fields _ -> (
          (match Refs.change_number actual with
          | Some changed -> rejects (what ^ ", number changed") (Refs.check e changed)
          | None -> ());
          match Refs.move_boundary actual with
          | Some moved ->
              rejects (what ^ ", a character moved across an item boundary")
                (Refs.check e moved)
          | None -> ()));
      let texts = List.map (fun _ -> text) Xqc.all_strategies in
      accepts ("xmark " ^ name ^ " five-strategy equivalence") (Batch.all_equal texts);
      rejects
        ("xmark " ^ name ^ " five-strategy equivalence, one output changed")
        (Batch.all_equal (bump_digit text :: List.tl texts)))
    spec.Batch.queries;
  Xqc.Store.purge_root doc

let clio () =
  let spec = Batch.clio_spec ~tiny:true in
  let tree = spec.Batch.generate ~seed:1 ~target_bytes:spec.Batch.bytes in
  let doc = Batch.load (Xqc.Serializer.node_to_string tree) in
  let ctx = Batch.context spec doc in
  List.iter
    (fun (name, source) ->
      let items, text = Batch.run_query ctx source in
      let _, saxon = Batch.run_query ~strategy:Xqc.Saxon_like ctx source in
      accepts ("clio " ^ name ^ " vs saxon-like") (String.equal text saxon);
      rejects ("clio " ^ name ^ " vs saxon-like, number changed")
        (String.equal (bump_digit text) saxon);
      let dropped =
        match items with
        | [ Xqc.Item.Node root ] -> (
            match Refs.children root with
            | [] -> text
            | kids ->
                (* the same element without its last child *)
                let copy = Xqc.Node.copy root in
                (match copy.Xqc.Node.desc with
                | Xqc.Node.Element e ->
                    e.children <- List.filteri (fun i _ -> i < List.length kids - 1) e.children
                | _ -> ());
                Xqc.serialize [ Xqc.Item.Node copy ])
        | _ -> Xqc.serialize (List.tl items)
      in
      rejects ("clio " ^ name ^ " vs saxon-like, item dropped") (String.equal dropped saxon))
    spec.Batch.queries;
  Xqc.Store.purge_root doc

let serve () =
  let tree = Xqc_workload.Xmark.generate ~seed:1 ~target_bytes:(Serve.doc_bytes ~tiny:true) () in
  let facts = Refs.auction_facts tree in
  let w = Serve.make_world ~seed:1 facts 2 in
  let idle = Array.init 2 (fun _ -> { Serve.inserted = 0; changes = 0; inflight = false }) in
  let busy = [| { Serve.inserted = 0; changes = 1; inflight = true };
                { Serve.inserted = 0; changes = 0; inflight = false } |] in
  let busy_after = [| { Serve.inserted = 1; changes = 2; inflight = false };
                      { Serve.inserted = 0; changes = 0; inflight = false } |] in
  let res s = Serve.Result (s, 1) in
  let total = facts.Refs.bidders_total in
  let case what kind ~before ~after ~good ~bad =
    let c = Serve.expect w ~r:1 before after kind in
    accepts ("serve " ^ what) (Serve.check_reply c good);
    rejects ("serve " ^ what) (Serve.check_reply c bad)
  in
  let name0 = snd w.Serve.persons.(0) in
  case "point lookup" (Serve.Person 0) ~before:idle ~after:idle ~good:(res name0)
    ~bad:(res (String.sub name0 0 (String.length name0 - 1)));
  case "Q1" Serve.Person0 ~before:idle ~after:idle ~good:(res facts.Refs.person0_name)
    ~bad:(res "");
  case "Q5 count" Serve.Q5 ~before:idle ~after:idle
    ~good:(res (string_of_int facts.Refs.closed_price_ge_40))
    ~bad:(res (string_of_int (facts.Refs.closed_price_ge_40 + 1)));
  case "Q8 items" Serve.Q8 ~before:idle ~after:idle
    ~good:(Serve.Result ("", facts.Refs.n_persons))
    ~bad:(Serve.Result ("", facts.Refs.n_persons - 1));
  case "Q17 items" Serve.Q17 ~before:idle ~after:idle
    ~good:(Serve.Result ("", facts.Refs.persons_without_homepage))
    ~bad:(Serve.Result ("", facts.Refs.persons_without_homepage - 1));
  case "all bidders, no write in flight" Serve.All_bidders ~before:idle ~after:idle
    ~good:(res (string_of_int total)) ~bad:(res (string_of_int (total + 1)));
  case "all bidders, another client's insert in flight (before)" Serve.All_bidders
    ~before:busy ~after:busy_after ~good:(res (string_of_int total))
    ~bad:(res (string_of_int (total + 2)));
  case "all bidders, another client's insert in flight (after)" Serve.All_bidders
    ~before:busy ~after:busy_after ~good:(res (string_of_int (total + 1)))
    ~bad:(res (string_of_int (total - 1)));
  let own = Array.map (fun s -> { s with Serve.inserted = 0 }) idle in
  own.(1) <- { Serve.inserted = 1; changes = 2; inflight = false };
  case "all bidders, own insert acknowledged" Serve.All_bidders ~before:own ~after:own
    ~good:(res (string_of_int (total + 1))) ~bad:(res (string_of_int total));
  let a = w.Serve.auctions.(1) in
  let base = Option.value (Hashtbl.find_opt facts.Refs.bidders_of a) ~default:0 in
  case "one auction's bidders, own insert acknowledged" (Serve.Auction_bidders 1) ~before:own
    ~after:own ~good:(res (string_of_int (base + 1))) ~bad:(res (string_of_int base));
  case "write applied" Serve.Insert ~before:idle ~after:idle ~good:(Serve.Update_applied 1)
    ~bad:(Serve.Update_applied 0)

let run () =
  xmark ();
  clio ();
  serve ();
  Printf.printf "%d check(s) misbehaved\n%!" !failures;
  !failures = 0
