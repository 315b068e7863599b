(* The machine's speed, measured beside the workload.

   The benchmark shares its cores with other tenants, and the speed of
   those cores drifts: a fixed CPU-bound loop takes 20–40% longer in
   some stretches than in others, and process CPU time drifts with wall
   time, so neither compares runs made minutes apart.  The benchmark
   therefore runs a fixed kernel of its own ([tick]) between the pieces
   of work it times, and reports every end-to-end time scaled to a
   reference speed: the sample's seconds times [reference_s] over the
   median kernel time around the sample.  The kernel calls nothing of
   the engine and does not allocate, so a change to the engine cannot
   change its time; it sorts a small integer array, hashes strings and
   looks them up in a hash table, all within the core's own caches. *)

let now = Unix.gettimeofday

(* A scaled second is a second at the speed where the kernel takes
   this long (about its median on the machine the README's figures
   come from). *)
let reference_s = 0.0025

let sort_src =
  lazy
    (let st = Random.State.make [| 5 |] in
     Array.init 6_000 (fun _ -> Random.State.bits st))

let sort_buf = lazy (Array.make 6_000 0)

let keys =
  lazy
    (Array.init 1_500 (fun i ->
         Printf.sprintf "key-%08d-%s" (i * 7919) (String.make 16 (Char.chr (97 + (i mod 26))))))

let table =
  lazy
    (let t = Hashtbl.create 2048 in
     Array.iteri (fun i k -> Hashtbl.replace t k i) (Lazy.force keys);
     t)

let sink = ref 0

let kernel () =
  let src = Lazy.force sort_src and buf = Lazy.force sort_buf in
  Array.blit src 0 buf 0 (Array.length src);
  Array.sort compare buf;
  let keys = Lazy.force keys and table = Lazy.force table in
  let h = ref 0 in
  for _ = 1 to 4 do
    Array.iter (fun k -> h := !h lxor Hashtbl.hash k lxor Hashtbl.find table k) keys
  done;
  sink := !sink + buf.(0) + !h

(* Kernel runs, newest first: start and end. *)
type tick = { k0 : float; k1 : float }

let ticks : tick list ref = ref []

let () =
  (* build the inputs outside any timed piece *)
  kernel ()

(* Run the kernel once and log it.  Called from one thread at a time,
   while no other timed work of this process or of the server runs. *)
let tick () =
  let k0 = now () in
  kernel ();
  ticks := { k0; k1 = now () } :: !ticks

(* A timed piece of work: the interval it spans and the seconds it
   took, less the kernel runs inside it. *)
type sample = { t0 : float; t1 : float; raw : float }

let timed f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let rec inside acc = function
    | k :: rest when k.k0 >= t0 -> inside (acc +. (k.k1 -. k.k0)) rest
    | _ -> acc
  in
  (v, { t0; t1; raw = t1 -. t0 -. inside 0.0 !ticks })

(* Several samples taken as one, such as the queries of one pass. *)
let combine = function
  | [] -> invalid_arg "Speed.combine"
  | s :: _ as l ->
      List.fold_left
        (fun a s -> { t0 = Float.min a.t0 s.t0; t1 = Float.max a.t1 s.t1; raw = a.raw +. s.raw })
        { s with raw = 0.0 } l

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let duration k = k.k1 -. k.k0

(* The kernel runs within [window] seconds of a sample, or the [least]
   nearest ones when fewer are that close. *)
let window = 1.0
let least = 3

(* A sample's seconds at the reference speed; call once the kernel runs
   after the sample have been logged too. *)
let scaled (s : sample) =
  let distance k = Float.max 0.0 (Float.max (s.t0 -. k.k1) (k.k0 -. s.t1)) in
  let near = List.filter (fun k -> distance k <= window) !ticks in
  let near =
    if List.length near >= least then near
    else
      List.filteri
        (fun i _ -> i < least)
        (List.sort (fun a b -> Float.compare (distance a) (distance b)) !ticks)
  in
  s.raw *. reference_s /. median (List.map duration near)

(* The median kernel time of the run, for the run header. *)
let kernel_median () = median (List.map duration !ticks)
