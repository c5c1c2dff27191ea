(* Self-tests of the benchmark's own contract, run by `dune runtest`
   from perfbench/ (so BENCHMARK.json is ../BENCHMARK.json):

   - every metric name matches [A-Za-z0-9_.-]+, carries a unit, and the
     end-to-end and per-layer lists are exactly BENCHMARK.json's;
   - a corrupted pin fails its unit and raises fail_frac, on a verify
     and on a sample workload, while the true pin passes;
   - a reported percentile has at least ten samples beyond it. *)

open Conrat_verify
open Conrat_harness
module M = Measure
module W = Workloads

let failures = ref 0

let check what ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
  if not ok then incr failures

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The "name" values of one top-level array of BENCHMARK.json, in order. *)
let names_in_section text section =
  let start = Str.search_forward (Str.regexp_string ("\"" ^ section ^ "\"")) text 0 in
  let stop = String.index_from text start ']' in
  let re = Str.regexp "\"name\": *\"\\([^\"]*\\)\"" in
  let rec go pos acc =
    match Str.search_forward re text pos with
    | p when p < stop -> go (p + 1) (Str.matched_group 1 text :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  go start []

let metric_names () =
  let all = W.e2e_names @ Trace.per_layer_names in
  List.iter
    (fun (name, u) ->
      check (Printf.sprintf "metric %s [%s] is well formed" name u)
        (M.valid_name name && M.valid_unit u))
    all;
  let text = read_file "../BENCHMARK.json" in
  check "end_to_end list matches the benchmark's"
    (names_in_section text "end_to_end" = List.map fst W.e2e_names);
  check "per_layer list matches the benchmark's"
    (names_in_section text "per_layer" = List.map fst Trace.per_layer_names)

let with_verify_pin pins key counts =
  { pins with Pins.verify = (key, counts) :: List.remove_assoc key pins.Pins.verify }

let with_sample_pin pins key counts =
  { pins with Pins.sample = (key, counts) :: List.remove_assoc key pins.Pins.sample }

let bump field counts =
  List.map (fun (f, v) -> if f = field then (f, v + 1) else (f, v)) counts

let corrupted_pins pins =
  (* Verify: a small config whose true counts come from Checks.run. *)
  let name = "binary_ratifier_n2" in
  let c = Option.get (Checks.find name) in
  let truth =
    match Checks.run c with
    | Ok s -> W.counts_of_stats s
    | Error _ -> failwith "binary_ratifier_n2 violated"
  in
  let run pins = W.verify_e2e ~names:[ name ] ~jobs:1 ~dedup:false ~pins ~seconds:1 in
  let good, _ = run (with_verify_pin pins name truth) in
  check "true verify pin passes" (good.M.correct && good.M.failed = 0);
  check "a run reports exactly the end-to-end metrics"
    (List.map (fun m -> (m.M.name, m.M.unit_)) good.M.metrics = W.e2e_names);
  let bad, _ = run (with_verify_pin pins name (bump "steps" truth)) in
  check "corrupted verify pin fails every unit"
    ((not bad.M.correct) && bad.M.failed = bad.M.attempted && M.fail_frac bad > 0.);
  (* Sample: a small spec whose true digest comes from Engine.run_spec
     over the same seeds the workload's first unit uses. *)
  let adversaries = [ ("uniform", Conrat_sim.Adversary.random_uniform) ] in
  let size = 50 and n = 4 in
  let seed = pins.Pins.default_seed in
  let plan = W.make_plan ~prefix:"t" ~n ~adversaries ~seeds:(W.unit_seeds ~seed ~size 0) in
  let truth = W.digest (Engine.run_spec (List.hd plan.Plan.specs)) in
  let run pins =
    W.sample_e2e ~prefix:"t" ~n ~adversaries ~size ~pin_units:1 ~latencies:true ~pins
      ~seed ~seconds:1
  in
  let good, printed = run (with_sample_pin pins "t.uniform" truth) in
  check "true sample pin passes" (good.M.correct && good.M.failed = 0);
  check "trial_ms.p99 is reported only with >= 1000 samples"
    (let get name = List.find_opt (fun m -> m.M.name = name) printed in
     match get "trial_ms.samples", get "trial_ms.p99" with
     | Some n, Some _ -> n.M.value >= 1000.
     | Some n, None -> n.M.value < 1100.
     | None, _ -> false);
  let bad, _ = run (with_sample_pin pins "t.uniform" (bump "agreements" truth)) in
  check "corrupted sample pin fails and raises fail_frac"
    ((not bad.M.correct) && bad.M.failed >= 1 && M.fail_frac bad > 0.);
  (* At another seed only safety and termination are checked. *)
  let other, _ =
    W.sample_e2e ~prefix:"t" ~n ~adversaries ~size ~pin_units:1 ~latencies:false
      ~pins:(with_sample_pin pins "t.uniform" (bump "agreements" truth))
      ~seed:(seed + 1) ~seconds:1
  in
  check "pins are not applied at another seed" other.M.correct

let percentiles () =
  let ok = ref true and reported = ref 0 in
  for n = 1 to 3000 do
    let a = Array.init n float_of_int in
    List.iter
      (fun p ->
        match M.percentile a p with
        | None -> ()
        | Some v ->
          incr reported;
          let beyond = n - 1 - int_of_float v in
          if beyond < M.min_beyond then ok := false)
      [ 50.; 90.; 99. ]
  done;
  check "every reported percentile has >= 10 samples beyond it" (!ok && !reported > 0);
  check "p99 of 100 samples is not reported" (M.percentile (Array.make 100 1.) 99. = None);
  check "p99 of 1100 samples is reported" (M.percentile (Array.make 1100 1.) 99. <> None)

let seeds () =
  check "seeds 0..999999 are used as given"
    (M.seed_of_string "1" = Some 1 && M.seed_of_string "999999" = Some 999_999);
  check "any integer seed is accepted and reduced"
    (M.seed_of_string "3000000007" = Some 7
    && M.seed_of_string "-1" = Some 999_999
    && M.seed_of_string "123456789012345678901234567890" = Some 567_890);
  check "a non-integer seed is refused"
    (M.seed_of_string "" = None && M.seed_of_string "1.5" = None && M.seed_of_string "-" = None)

let () =
  let pins =
    match Pins.load "pins.sexp" with
    | Ok p -> p
    | Error e -> prerr_endline e; exit 2
  in
  check "pins cover every verify config"
    (List.for_all (fun c -> List.mem_assoc c pins.Pins.verify) (W.deep_configs @ W.wide_configs));
  metric_names ();
  corrupted_pins pins;
  percentiles ();
  seeds ();
  if !failures > 0 then (Printf.printf "%d self-test(s) failed\n" !failures; exit 1)
