(* Reference answers computed apart from the engine.

   Every function here walks a generator's in-memory tree (the value
   [Xmark.generate] returns, before any serialization or parsing) with
   plain pattern matching over [Node.desc]; none of them calls the
   engine's parser, index, evaluator or string-value helpers.  A query
   answer is compared as the list of its items' string values, so the
   same check works for the in-process workloads and for replies read
   back from the server. *)

module Node = Xqc.Node

(* ------------------------------------------------------------------ *)
(* Tree walking                                                        *)
(* ------------------------------------------------------------------ *)

let children (n : Node.t) : Node.t list =
  match n.Node.desc with
  | Node.Document d -> d.dchildren
  | Node.Element e -> e.children
  | _ -> []

let is_elem name (n : Node.t) =
  match n.Node.desc with Node.Element e -> String.equal e.ename name | _ -> false

let is_element (n : Node.t) = match n.Node.desc with Node.Element _ -> true | _ -> false

let kids name n = List.filter (is_elem name) (children n)

let attr name (n : Node.t) : string option =
  match n.Node.desc with
  | Node.Element e ->
      List.find_map
        (fun (a : Node.t) ->
          match a.Node.desc with
          | Node.Attribute a when String.equal a.aname name -> Some a.avalue
          | _ -> None)
        e.attrs
  | _ -> None

(* Child element path, in document order. *)
let rec path n = function
  | [] -> [ n ]
  | step :: rest -> List.concat_map (fun c -> path c rest) (kids step n)

(* The text-node children. *)
let texts n =
  List.filter_map
    (fun (c : Node.t) -> match c.Node.desc with Node.Text s -> Some s | _ -> None)
    (children n)

(* Descendant elements named [name], in document order. *)
let descendants name n =
  let acc = ref [] in
  let rec go n =
    List.iter
      (fun c ->
        if is_elem name c then acc := c :: !acc;
        go c)
      (children n)
  in
  go n;
  List.rev !acc

let rec string_value (n : Node.t) =
  match n.Node.desc with
  | Node.Text s -> s
  | Node.Attribute a -> a.avalue
  | Node.Document _ | Node.Element _ -> String.concat "" (List.map string_value (children n))
  | _ -> ""

let num s = float_of_string (String.trim s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.equal (String.sub s i n) sub || at (i + 1)) in
  at 0

let count p l = List.length (List.filter p l)

(* ------------------------------------------------------------------ *)
(* Expected answers and the check                                     *)
(* ------------------------------------------------------------------ *)

type expect =
  | Count of int  (** only the number of result items is known *)
  | Strings of string list  (** each item's string value *)
  | Numbers of float list  (** each item's numeric value *)
  | Fields of string list
      (** one element, and the string value of each of its child elements *)

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* The result as a check reads it: the string values of its items, or
   for [Fields] those of the single result element's child elements
   (walked here, as the references are).  A result of another shape
   gives its items' values, which no [Fields] reference matches. *)
let answer (e : expect) (items : Xqc.Item.t list) : string list =
  match (e, items) with
  | Fields _, [ Xqc.Item.Node n ] when is_element n ->
      List.map string_value (List.filter is_element (children n))
  | _ -> List.map Xqc.Item.string_value items

(* [actual] is the result as [answer] gives it. *)
let check (e : expect) (actual : string list) : bool =
  match e with
  | Count n -> List.length actual = n
  | Strings l | Fields l -> List.equal String.equal l actual
  | Numbers l ->
      List.length l = List.length actual
      && List.for_all2
           (fun x s -> match float_of_string_opt (String.trim s) with
             | Some y -> close y x
             | None -> false)
           l actual

let describe = function
  | Count n -> Printf.sprintf "%d items" n
  | Strings l -> Printf.sprintf "%d strings" (List.length l)
  | Numbers l -> Printf.sprintf "%d numbers" (List.length l)
  | Fields l -> Printf.sprintf "one element, %d fields" (List.length l)

(* The two mutations the self-test hands every check: the last item
   dropped (an item added when the answer is empty, as for Q4), and the
   first numeric item changed by one. *)
let drop_one = function
  | [] -> [ "extra" ]
  | l -> List.rev (List.tl (List.rev l))

let change_number l =
  let changed = ref false in
  let l =
    List.map
      (fun s ->
        match (!changed, float_of_string_opt (String.trim s)) with
        | false, Some f ->
            changed := true;
            Printf.sprintf "%.17g" (f +. 1.0)
        | _ -> s)
      l
  in
  if !changed then Some l else None

(* A third mutation: the last character of the first item moved to the
   front of the second, which keeps the items' concatenation. *)
let move_boundary = function
  | a :: b :: rest when String.length a >= 2 ->
      let n = String.length a in
      Some ((String.sub a 0 (n - 1)) :: (String.make 1 a.[n - 1] ^ b) :: rest)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* XMark Q1-Q20                                                        *)
(* ------------------------------------------------------------------ *)

let xmark (doc : Node.t) : (string * expect) list =
  let site = match kids "site" doc with [ s ] -> s | _ -> failwith "refs: no site element" in
  let persons = path site [ "people"; "person" ] in
  let opens = path site [ "open_auctions"; "open_auction" ] in
  let closeds = path site [ "closed_auctions"; "closed_auction" ] in
  let items = path site [ "regions" ] |> List.concat_map (descendants "item") in
  let first_text n = match texts n with t :: _ -> Some t | [] -> None in
  let bidder_incs a =
    List.filter_map
      (fun b -> match path b [ "increase" ] with i :: _ -> first_text i | [] -> None)
      (kids "bidder" a)
  in
  let income p =
    match kids "profile" p with pr :: _ -> Option.map num (attr "income" pr) | [] -> None
  in
  let name p = List.concat_map texts (kids "name" p) in
  let q1 =
    Strings (List.concat_map name (List.filter (fun p -> attr "id" p = Some "person0") persons))
  in
  let q2 =
    Strings
      (List.map
         (fun a ->
           match kids "bidder" a with
           | b :: _ -> String.concat "" (List.concat_map texts (kids "increase" b))
           | [] -> "")
         opens)
  in
  let q3 =
    Count
      (count
         (fun a ->
           match bidder_incs a with
           | [] -> false
           | first :: _ as l -> num first *. 2.0 <= num (List.nth l (List.length l - 1)))
         opens)
  in
  let q4 =
    Count
      (count
         (fun a ->
           let refs =
             List.concat_map (fun b -> List.filter_map (attr "person") (kids "personref" b))
               (kids "bidder" a)
           in
           let rec after18 = function
             | [] -> false
             | "person18" :: rest -> List.mem "person52" rest || after18 rest
             | _ :: rest -> after18 rest
           in
           after18 refs)
         opens)
  in
  let q5 =
    Numbers
      [ float_of_int
          (count
             (fun c -> List.exists (fun p -> List.exists (fun t -> num t >= 40.0) (texts p))
                 (kids "price" c))
             closeds) ]
  in
  let q6 =
    Numbers
      (List.map
         (fun r -> float_of_int (List.length (descendants "item" r)))
         (List.concat_map (fun s -> kids "regions" s) (descendants "site" doc)))
  in
  let q7 =
    Numbers
      [ float_of_int
          (List.length (descendants "description" site)
          + List.length (descendants "annotation" site)
          + List.length (descendants "emailaddress" site)) ]
  in
  let buyers = Hashtbl.create 1024 in
  List.iter
    (fun c ->
      List.iter
        (fun b -> Option.iter (fun id -> Hashtbl.add buyers id ()) (attr "person" b))
        (kids "buyer" c))
    closeds;
  let q8 =
    Strings
      (List.map
         (fun p ->
           string_of_int
             (match attr "id" p with
             | Some id -> List.length (Hashtbl.find_all buyers id)
             | None -> 0))
         persons)
  in
  let q9 = Count (List.length persons) in
  let q10 =
    let cats = Hashtbl.create 256 in
    List.iter
      (fun p ->
        List.iter
          (fun i -> Option.iter (fun c -> Hashtbl.replace cats c ()) (attr "category" i))
          (path p [ "profile"; "interest" ]))
      persons;
    Count (Hashtbl.length cats)
  in
  (* Q11/Q12: initials sorted once, then a binary search per person for
     how many satisfy income > 5000 * initial *)
  let initials =
    List.concat_map (fun a -> List.concat_map texts (kids "initial" a)) opens
    |> List.map (fun t -> 5000.0 *. num t)
    |> Array.of_list
  in
  Array.sort Float.compare initials;
  let below x =
    (* number of entries strictly smaller than x *)
    let lo = ref 0 and hi = ref (Array.length initials) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if initials.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let matches p = match income p with Some inc -> below inc | None -> 0 in
  let q11 = Strings (List.map (fun p -> string_of_int (matches p)) persons) in
  let q12 =
    Strings
      (List.filter_map
         (fun p ->
           match income p with
           | Some inc when inc > 50000.0 -> Some (string_of_int (matches p))
           | _ -> None)
         persons)
  in
  let q13 = Count (List.length (path site [ "regions"; "australia"; "item" ])) in
  let q14 =
    Strings
      (List.concat_map
         (fun i ->
           let d = String.concat "" (List.map string_value (kids "description" i)) in
           if contains ~sub:"gold" d then name i else [])
         (descendants "item" site))
  in
  let keywords c =
    List.concat_map texts
      (path c
         [ "annotation"; "description"; "parlist"; "listitem"; "parlist"; "listitem";
           "text"; "emph"; "keyword" ])
  in
  let q15 = Count (List.length (List.concat_map keywords closeds)) in
  let q16 = Count (count (fun c -> keywords c <> []) closeds) in
  let q17 =
    Count (count (fun p -> List.concat_map texts (kids "homepage" p) = []) persons)
  in
  let q18 =
    Numbers
      (List.concat_map
         (fun a -> List.map (fun t -> 2.20371 *. num t) (List.concat_map texts (kids "reserve" a)))
         opens)
  in
  let q19 = Count (List.length items) in
  let q20 =
    let incomes = List.filter_map income persons in
    let n p = string_of_int (count p incomes) in
    Fields
      [ n (fun i -> i >= 100000.0);
        n (fun i -> i < 100000.0 && i >= 30000.0);
        n (fun i -> i < 30000.0);
        string_of_int (count (fun p -> income p = None) persons) ]
  in
  [
    ("Q1", q1); ("Q2", q2); ("Q3", q3); ("Q4", q4); ("Q5", q5); ("Q6", q6);
    ("Q7", q7); ("Q8", q8); ("Q9", q9); ("Q10", q10); ("Q11", q11);
    ("Q12", q12); ("Q13", q13); ("Q14", q14); ("Q15", q15); ("Q16", q16);
    ("Q17", q17); ("Q18", q18); ("Q19", q19); ("Q20", q20);
  ]

(* ------------------------------------------------------------------ *)
(* Values the serve-mixed reads depend on                              *)
(* ------------------------------------------------------------------ *)

type auction_facts = {
  person_names : (string * string) array;  (** person id, name text *)
  person0_name : string;
  bidders_total : int;
  bidders_of : (string, int) Hashtbl.t;  (** open auction id -> bidder count *)
  auction_ids : string array;
  closed_price_ge_40 : int;
  n_persons : int;
  persons_without_homepage : int;
}

let auction_facts (doc : Node.t) : auction_facts =
  let site = match kids "site" doc with [ s ] -> s | _ -> failwith "refs: no site element" in
  let persons = path site [ "people"; "person" ] in
  let opens = path site [ "open_auctions"; "open_auction" ] in
  let bidders_of = Hashtbl.create 1024 in
  List.iter
    (fun a ->
      Option.iter
        (fun id -> Hashtbl.replace bidders_of id (List.length (kids "bidder" a)))
        (attr "id" a))
    opens;
  let name p = String.concat "" (List.concat_map texts (kids "name" p)) in
  let person_names =
    Array.of_list
      (List.map (fun p -> (Option.value (attr "id" p) ~default:"", name p)) persons)
  in
  {
    person_names;
    person0_name =
      String.concat ""
        (List.map name (List.filter (fun p -> attr "id" p = Some "person0") persons));
    bidders_total = List.length (descendants "bidder" doc);
    bidders_of;
    auction_ids = Array.of_list (List.filter_map (attr "id") opens);
    closed_price_ge_40 =
      count
        (fun c -> List.exists (fun p -> List.exists (fun t -> num t >= 40.0) (texts p))
            (kids "price" c))
        (path site [ "closed_auctions"; "closed_auction" ]);
    n_persons = List.length persons;
    persons_without_homepage =
      count (fun p -> List.concat_map texts (kids "homepage" p) = []) persons;
  }
