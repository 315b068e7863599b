(* The benchmark's entry point.  run.py builds this program and runs

     xqbench --workload NAME --seed N --seconds S --trace 0|1

   which prints a run header, then as its last line one JSON object with
   the operations attempted and failed, whether every output was
   correct, and the end-to-end metrics (--trace 0) or the per-layer
   metrics (--trace 1).  [xqbench --check-mutations] is the self-test of
   the output checks. *)

open Common

let usage () =
  prerr_endline
    "usage: xqbench --workload xmark-10mb|clio-250kb|serve-mixed --seed N --seconds S \
     --trace 0|1 [--tiny] [--work DIR] [--commit ID]\n\
    \       xqbench --check-mutations";
  exit 2

(* The numbers describe the default configuration only. *)
let refuse_knobs () =
  let knobs =
    List.filter
      (fun kv -> String.length kv >= 4 && String.sub kv 0 4 = "XQC_")
      (Array.to_list (Unix.environment ()))
  in
  if knobs <> [] then begin
    Printf.eprintf "perfbench: refusing to run with engine knobs set: %s\n"
      (String.concat " " knobs);
    exit 2
  end

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let tiny = ref false and work = ref "perfbench/.work" and commit = ref "unknown" in
  let mutations = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | "--work" :: v :: rest -> work := v; go rest
    | "--commit" :: v :: rest -> commit := v; go rest
    | "--check-mutations" :: rest -> mutations := true; go rest
    | [] -> ()
    | arg :: _ ->
        Printf.eprintf "perfbench: unknown argument %S\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if !mutations then `Mutations
  else
    match (!seed, !seconds, !trace) with
    | Some seed, Some seconds, Some trace
      when List.mem !workload [ "xmark-10mb"; "clio-250kb"; "serve-mixed" ] && seconds > 0.0 ->
        `Run ({ workload = !workload; seed; seconds; trace; tiny = !tiny; work_dir = !work }, !commit)
    | _ -> usage ()

let () =
  refuse_knobs ();
  match parse_args () with
  | `Mutations -> exit (if Selftest.run () then 0 else 1)
  | `Run (o, commit) ->
      (try Unix.mkdir o.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%b%s\n" o.workload o.seed
        o.seconds o.trace (if o.tiny then " tiny" else "");
      Printf.printf "# cores=%d ocaml=%s commit=%s\n%!" (Domain.recommended_domain_count ())
        Sys.ocaml_version commit;
      let metrics =
        match o.workload with
        | "xmark-10mb" -> Batch.main o (Batch.xmark_spec ~tiny:o.tiny)
        | "clio-250kb" -> Batch.main o (Batch.clio_spec ~tiny:o.tiny)
        | _ -> Serve.main o
      in
      Printf.printf "# speed: kernel median %.4f ms over the run (reference %.4f ms)\n"
        (Speed.kernel_median () *. 1000.0) (Speed.reference_s *. 1000.0);
      print_result metrics
