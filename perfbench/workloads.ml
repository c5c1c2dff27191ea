(* The four workloads, each as an end-to-end run (tracing off) and a
   separate traced run.  See bench.ml for why each exists and which
   layer metric should move which end-to-end metric.

   Every call into the program goes through the public interfaces of
   lib/verify ([Checks], [Por], [Parallel], [Independence]), lib/sim
   ([Machine], [Adversary], [Sink]) and lib/harness ([Plan], [Engine]);
   the per-layer numbers come from timing those calls and the callbacks
   they take, from outside. *)

open Conrat_sim
open Conrat_verify
open Conrat_harness
module M = Measure

(* ------------------------------------------------------------------ *)
(* Shared unit loop                                                    *)
(* ------------------------------------------------------------------ *)

(* What one timed unit produced: its wall and process-CPU time, its
   allocation over all domains, its reference time (see [run_parts]) and
   the reference reps taken around it and between its parts, machine
   transitions, complete executions (explored POR executions or
   Monte-Carlo trials), and the reasons it failed its output checks, if
   any. *)
type obs = {
  wall : float;
  cpu : float;
  alloc_mb : float;
  ref_s : float;
  around : float list;
  between : float list;
  steps : float;
  execs : int;
  errors : string list;
}

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

(* Set-up time.  A verify set-up takes microseconds and a sample set-up
   tens of microseconds.  Timed one at a time their run-to-run spread
   was 50%; in batches of 2 ms it was still 11-41%, as the host's speed
   drifted.  So each batch repeats the set-up for at least
   [setup_batch_s] from a collected heap, sits between two timings of
   the set-up yardstick [Measure.setup_ref_once] (each a median of three
   reps), and is divided by their mean.  [setup_s] is the median of
   that ratio over [setup_batches] batches, times
   [Measure.setup_ref_nominal_s]: seconds of the host the bounds were
   tuned on.  The batches run after the units, so that neither they nor
   the yardstick raise the units' heap peak. *)
let setup_batches = 15
let setup_batch_s = 10e-3

let setup_time setup =
  let rep () = M.time_median M.setup_ref_once in
  let batch () =
    Gc.full_major ();
    let t0 = M.now () and count = ref 0 in
    while !count = 0 || M.now () -. t0 < setup_batch_s do
      ignore (Sys.opaque_identity (setup ()));
      incr count
    done;
    (M.now () -. t0) /. float_of_int !count
  in
  let before = ref (rep ()) in
  let ratios =
    List.init setup_batches (fun _ ->
        let b = batch () in
        let after = rep () in
        let r = b /. ((!before +. after) /. 2.) in
        before := after;
        r)
  in
  M.median ratios *. M.setup_ref_nominal_s

(* Time [f] (wall, process CPU, allocation).  The minor heap is emptied
   at both ends so the allocation count is exact over all domains
   (joined domains' counts are folded into the totals). *)
let timed f =
  Gc.minor ();
  let a0 = alloc_words () in
  let c0 = M.cpu () and t0 = M.now () in
  let r = f () in
  let t1 = M.now () and c1 = M.cpu () in
  Gc.minor ();
  ( r,
    { wall = t1 -. t0; cpu = c1 -. c0; alloc_mb = (alloc_words () -. a0) *. word_mb;
      ref_s = 0.; around = []; between = []; steps = 0.; execs = 0; errors = [] } )

let failed_unit e =
  { wall = 0.; cpu = 0.; alloc_mb = 0.; ref_s = 0.; around = []; between = []; steps = 0.;
    execs = 0; errors = [ e ] }

(* Reference-kernel reps on each side of a timed part cover about 3% of
   the part's time each (at least three), so that the kernel sees the
   host conditions (CPU steal, neighbours' memory traffic) the part ran
   under rather than a glimpse of them. *)
let ref_rep_s = lazy (M.ref_seconds ~reps:5 ())

let ref_reps part_s = max 3 (int_of_float (0.03 *. part_s /. Lazy.force ref_rep_s))

(* A unit: timed parts (one exhaustion pass, or one sample spec each),
   and the output checks of their results. *)
type 'r unit_ = { parts : (unit -> 'r * obs) list; checks : 'r list -> string list }

(* Run [parts] with a group of reference reps before the first, between
   each two and after the last, and sum them into one unit.  Each part's
   reference time is the median of the reps on its two sides; the unit's
   [ref_s] is their wall-weighted harmonic mean, so that its wall_ref is
   the sum of its parts' wall_refs.  (A five-part sample-scale unit
   whose reps ran only around the whole unit had a wall_ref spread of
   19% over five runs.)  The unit starts from a collected heap, so the
   major GC work it pays for, and the heap peak it reaches, depend on
   its own allocation rather than on what ran before it; the reps
   around it run on a collected heap.  The reps between parts do not
   collect: a collection there too spread sample-scale's heap peak by
   17% (IQR/median over five runs), against 5% without (ten runs).
   Instead they are reported apart from the reps around units
   (ref_ms.between, ref_ms.around), to show that the garbage of the part
   before them does not slow them. *)
let run_parts ~reps { parts; checks } =
  let around = M.sample ~collect:true ~reps in
  let before = ref around and between = ref [] in
  let last = List.length parts - 1 in
  let run i part =
    let r, o = part () in
    let after = M.sample ~collect:(i = last) ~reps in
    if i < last then between := after @ !between;
    let ref_s = M.median (!before @ after) in
    before := after;
    (r, { o with ref_s })
  in
  let results, obs = List.split (List.mapi run parts) in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0. obs in
  let wall = sum (fun o -> o.wall) in
  { wall; cpu = sum (fun o -> o.cpu); alloc_mb = sum (fun o -> o.alloc_mb);
    ref_s = wall /. sum (fun o -> o.wall /. o.ref_s); around = around @ !before;
    between = !between; steps = sum (fun o -> o.steps);
    execs = List.fold_left (fun acc o -> acc + o.execs) 0 obs;
    errors = List.concat_map (fun o -> o.errors) obs @ checks results }

(* Set up, run units (see [run_parts]) for about [seconds] and at least
   [min_units] (see [Measure.repeat_for]), then time the set-up (see
   [setup_time]).  Returns [setup_s], the units, and the peak heap (MB)
   as the units left it: read before the set-up timing, whose yardstick
   alone grows the heap to 5 MB, more than verify-wide's units do. *)
let drive ~seconds ~min_units ~setup ~unit_of =
  let ctx = setup () in
  let obs =
    M.repeat_for ~seconds ~min_calls:min_units (fun ~expected_s u ->
        try
          let un = unit_of ctx u in
          run_parts ~reps:(ref_reps (expected_s /. float_of_int (List.length un.parts))) un
        with e -> failed_unit (Printexc.to_string e))
  in
  let peak = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb in
  (setup_time setup, obs, peak)

(* The end-to-end metrics of BENCHMARK.json, in its order.  Only
   these go into the result JSON, which the benchmark's bounds gate.
   Absolute timings are printed on every run but not gated: on a shared
   2-core host their run-to-run IQR/median reached 26% (verify-wide) and
   36% (sample-scale) as neighbours came and went, above the 0.25 cap a
   bound may have, while [wall_ref] — the same unit times divided by
   the reference kernel timed around each part — spread 4% to 7% on
   three workloads and 15% on sample-sweep.  Units have fixed work, so
   steps_per_s and execs_per_s carry the same information as wall_s. *)
let e2e_names =
  [ ("setup_s", "s"); ("wall_ref", "ratio"); ("alloc_mb", "MB"); ("peak_heap_mb", "MB") ]

let reps_ms name = function
  | [] -> []
  | reps -> [ M.metric name "ms" (M.median reps *. 1e3) ]

(* The result (gated metrics, medians over the units that ran to a
   timing) and the printed-only metrics. *)
let result_of ~setup_s ~peak ~extra obs =
  List.iteri (fun u o -> List.iter (Printf.eprintf "unit %d: %s\n%!" u) o.errors) obs;
  let failed = List.length (List.filter (fun o -> o.errors <> []) obs) in
  let timed_obs = List.filter (fun o -> o.wall > 0.) obs in
  let med f = if timed_obs = [] then 0. else M.median (List.map f timed_obs) in
  let r =
    { M.correct = failed = 0; attempted = List.length obs; failed;
      metrics =
        [ M.metric "setup_s" "s" setup_s;
          M.metric "wall_ref" "ratio" (med (fun o -> o.wall /. o.ref_s));
          M.metric "alloc_mb" "MB" (med (fun o -> o.alloc_mb));
          M.metric "peak_heap_mb" "MB" peak ] }
  in
  ( r,
    [ M.metric "wall_s" "s" (med (fun o -> o.wall));
      M.metric "cpu_s" "s" (med (fun o -> o.cpu));
      M.metric "steps_per_s" "1/s" (med (fun o -> o.steps /. o.wall));
      M.metric "execs_per_s" "1/s" (med (fun o -> float_of_int o.execs /. o.wall));
      M.metric "ref_ms" "ms" (med (fun o -> o.ref_s *. 1e3)) ]
    @ reps_ms "ref_ms.around" (List.concat_map (fun o -> o.around) obs)
    @ reps_ms "ref_ms.between" (List.concat_map (fun o -> o.between) obs)
    @ [ M.metric "units" "count" (float_of_int (List.length obs)) ]
    @ extra
    @ [ M.metric "fail_frac" "ratio" (M.fail_frac r) ] )

(* ------------------------------------------------------------------ *)
(* Verify workloads                                                    *)
(* ------------------------------------------------------------------ *)

let deep_configs = [ "fallback_n2_d34" ]

let wide_configs =
  [ "binary_ratifier_n5"; "binary_ratifier_n4_f2";
    "binary_ratifier_accept_n3_f2"; "binary_ratifier_rec_n3_f1" ]

let find_config name =
  match Checks.find name with
  | Some c -> c
  | None -> failwith ("unknown checker config " ^ name)

(* Set-up of a verify workload: look the configs up, instantiate each
   factory on fresh memory and compile it into a machine, and stage the
   leaf checker — everything [Checks.run] redoes per exhaustion. *)
let verify_setup names () =
  List.map
    (fun name ->
      let c = find_config name in
      let memory, body = Checks.setup_of c ~n:c.Checks.n () in
      ignore
        (Machine.create ~cheap_collect:c.Checks.cheap_collect ~n:c.Checks.n
           ~memory body);
      let (_ : complete:bool -> _ -> _) = Checks.check_of c ~n:c.Checks.n in
      c)
    names

let counts_of_stats (s : Por.stats) =
  [ ("explored", Por.explored s); ("complete", s.Por.complete);
    ("truncated", s.Por.truncated); ("pruned", s.Por.pruned);
    ("dedup_hits", s.Por.dedup_hits); ("steps", s.Por.steps) ]

let check_stats pins (c : Checks.t) (s : Por.stats) =
  (if s.Por.exhausted then [] else [ c.Checks.name ^ ": not exhausted" ])
  @ Pins.check pins.Pins.verify ~key:c.Checks.name (counts_of_stats s)

let exhaust ~pins ~jobs ~dedup (c : Checks.t) =
  match Checks.run ~jobs ~dedup c with
  | Ok s -> (s, check_stats pins c s)
  | Error f ->
    (f.Checks.stats, [ Printf.sprintf "%s: violation: %s" c.Checks.name f.Checks.reason ])

(* A verify unit is one timed part: every config exhausted in turn. *)
let verify_unit ~pins ~jobs ~dedup configs =
  let part () =
    let results, o = timed (fun () -> List.map (exhaust ~pins ~jobs ~dedup) configs) in
    ( (),
      { o with
        steps = float_of_int (List.fold_left (fun acc (s, _) -> acc + s.Por.steps) 0 results);
        execs = List.fold_left (fun acc (s, _) -> acc + Por.explored s) 0 results;
        errors = List.concat_map snd results } )
  in
  { parts = [ part ]; checks = (fun _ -> []) }

let verify_e2e ~names ~jobs ~dedup ~pins ~seconds =
  let setup_s, obs, peak =
    drive ~seconds ~min_units:3 ~setup:(verify_setup names)
      ~unit_of:(fun configs _ -> verify_unit ~pins ~jobs ~dedup configs)
  in
  result_of ~setup_s ~peak ~extra:[] obs

(* ------------------------------------------------------------------ *)
(* Sample workloads                                                    *)
(* ------------------------------------------------------------------ *)

let scale_n = 1024
let sweep_n = 16
let sweep_trials = 3000

(* Short names used in metric names, one adversary per view class
   (round_robin and random_uniform are both oblivious). *)
let scale_adversaries =
  [ ("rr", Adversary.round_robin); ("uniform", Adversary.random_uniform);
    ("stalker", Adversary.write_stalker);
    ("overwriter", Adversary.overwrite_attacker);
    ("adaptive", Adversary.adaptive_overwriter) ]

let sweep_adversaries = [ ("uniform", Adversary.random_uniform) ]

(* Trial seeds of unit [u]: disjoint across units and across [--seed]
   values 0..999 999 (up to 1000 scale units or 333 sweep units). *)
let unit_seeds ~seed ~size u = List.init size (fun i -> (seed * 1_000_000) + (u * size) + i)

let make_plan ~prefix ~n ~adversaries ~seeds =
  Plan.make ~name:prefix
    (List.map
       (fun (short, adversary) ->
         Plan.spec ~sid:(prefix ^ "." ^ short)
           ~runner:(Plan.Consensus (Conrat_core.Consensus.standard ~m:2))
           ~adversary ~workload:Workload.split_half ~n ~m:2 ~seeds ())
       adversaries)

(* The protocol compiled into a machine for one trial's inputs, as
   [Engine.run_trial] sets it up: fresh memory, an instance of the
   factory, split_half inputs, one local-coin stream. *)
let sample_machine ~n ~seed (f : Conrat_core.Consensus.factory) =
  let memory = Memory.create () in
  let inst = f.Conrat_core.Consensus.instantiate ~n memory in
  let inputs = Workload.split_half.Workload.generate ~n ~m:2 (Plan.workload_rng seed) in
  let rng = Rng.create seed in
  Machine.create ~n ~memory (fun ~pid ->
      inst.Conrat_core.Consensus.decide ~pid ~rng inputs.(pid))

(* Set-up of a sample workload: build the plan and compile the protocol
   once per spec at the workload's n. *)
let sample_setup ~prefix ~n ~adversaries ~size ~seed () =
  let plan = make_plan ~prefix ~n ~adversaries ~seeds:(unit_seeds ~seed ~size 0) in
  List.iter
    (fun (spec : Plan.spec) ->
      match spec.Plan.runner with
      | Plan.Consensus f -> ignore (sample_machine ~n ~seed f)
      | Plan.Deciding _ | Plan.Probed _ -> invalid_arg "sample_setup")
    plan.Plan.specs;
  plan

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let steps_of (a : Engine.aggregate) = sum (fun s -> s.Engine.s_total) a.Engine.samples

let digest (a : Engine.aggregate) =
  [ ("trials", a.Engine.trials); ("agreements", a.Engine.agreements);
    ("total_work", steps_of a);
    ("indiv_work", sum (fun s -> s.Engine.s_indiv) a.Engine.samples);
    ("failures", List.length a.Engine.failures + List.length a.Engine.quarantined) ]

(* Safety and termination, checked at every seed: every trial ran, and
   none violated agreement or validity or hit the step cap. *)
let sample_errors ~expected sid (a : Engine.aggregate) =
  (if a.Engine.trials = expected then []
   else [ Printf.sprintf "%s: %d of %d trials ran" sid a.Engine.trials expected ])
  @ List.map
      (fun (s, why) -> Printf.sprintf "%s: seed %d: %s" sid s why)
      (a.Engine.failures @ a.Engine.quarantined)

(* Pins cover the first [pin_units] units at the default seed, merged
   per spec; a mismatch fails the last of them. *)
let pin_check ~pins ~seed ~pin_units =
  let acc = Hashtbl.create 8 in
  fun u results ->
    if seed <> pins.Pins.default_seed || u >= pin_units then []
    else begin
      List.iter
        (fun (sid, a) ->
          let prev = Option.value (Hashtbl.find_opt acc sid) ~default:Engine.empty_aggregate in
          Hashtbl.replace acc sid (Engine.merge prev a))
        results;
      if u < pin_units - 1 then []
      else
        List.concat_map
          (fun (sid, _) -> Pins.check pins.Pins.sample ~key:sid (digest (Hashtbl.find acc sid)))
          results
    end

let sample_checks ~size ~pinned u results =
  List.concat_map (fun (sid, a) -> sample_errors ~expected:size sid a) results
  @ pinned u results

(* Steps of one unit of spec [sid] at the default seed, from its pin. *)
let pinned_steps pins ~size sid =
  match List.assoc_opt sid pins.Pins.sample with
  | Some c ->
    float_of_int (List.assoc "total_work" c * size) /. float_of_int (List.assoc "trials" c)
  | None -> failwith (sid ^ ": no pin")

let scale_pin_units = 3

(* A sample unit runs each spec through [Engine.run_plan] on its own, as
   a timed part.  The seed picks the trials, and a trial's work varies with
   it (write_stalker at n=1024: 12.9 k to 21.4 k steps at about the same
   cost per step), so each spec's time, CPU and allocation are scaled
   to the spec's pinned default-seed step count: a unit's figures are
   those of the pinned input size, whatever the seed. *)
let sample_e2e ~prefix ~n ~adversaries ~size ~pin_units ~latencies ~pins ~seed
    ~seconds =
  let pinned = pin_check ~pins ~seed ~pin_units in
  (* Per-trial latency, from the gaps between progress callbacks, kept
     in a buffer outside the OCaml heap so that the samples do not count
     toward the program's peak heap. *)
  let module F = Bigarray.Array1 in
  let gaps = ref (F.create Bigarray.float64 Bigarray.c_layout 65536) in
  let ngaps = ref 0 and last = ref 0. in
  let on_progress ~done_:_ ~total:_ =
    let t = M.now () in
    if !ngaps = F.dim !gaps then begin
      let bigger = F.create Bigarray.float64 Bigarray.c_layout (2 * !ngaps) in
      F.blit !gaps (F.sub bigger 0 !ngaps);
      gaps := bigger
    end;
    F.unsafe_set !gaps !ngaps (t -. !last);
    incr ngaps;
    last := t
  in
  let run_spec (spec : Plan.spec) =
    let plan = Plan.make ~name:prefix [ spec ] in
    last := M.now ();
    let results, o =
      timed (fun () ->
          if latencies then Engine.run_plan ~on_progress plan else Engine.run_plan plan)
    in
    let a = Engine.get results spec.Plan.sid in
    let steps = steps_of a in
    if steps = 0 then failwith (spec.Plan.sid ^ ": no steps");
    let ref_steps = pinned_steps pins ~size spec.Plan.sid in
    let k = ref_steps /. float_of_int steps in
    ((spec.Plan.sid, a),
     { o with wall = o.wall *. k; cpu = o.cpu *. k; alloc_mb = o.alloc_mb *. k;
              steps = ref_steps; execs = a.Engine.trials })
  in
  let unit_of _ u =
    let plan = make_plan ~prefix ~n ~adversaries ~seeds:(unit_seeds ~seed ~size u) in
    { parts = List.map (fun spec () -> run_spec spec) plan.Plan.specs;
      checks = sample_checks ~size ~pinned u }
  in
  let setup_s, obs, peak =
    drive ~seconds ~min_units:pin_units
      ~setup:(sample_setup ~prefix ~n ~adversaries ~size ~seed)
      ~unit_of
  in
  let extra =
    M.metric "trials_per_s" "1/s"
      (M.median (List.map (fun o -> float_of_int o.execs /. o.wall) obs))
    ::
    (if not latencies then []
     else
       let a = Array.init !ngaps (fun i -> F.get !gaps i *. 1e3) in
       Array.sort compare a;
       let pct p name =
         match M.percentile a p with
         | Some v -> [ M.metric name "ms" v ]
         | None -> []
       in
       pct 50. "trial_ms.p50" @ pct 99. "trial_ms.p99"
       @ [ M.metric "trial_ms.samples" "count" (float_of_int (Array.length a)) ])
  in
  result_of ~setup_s ~peak ~extra obs

let run_e2e ~workload ~pins ~seed ~seconds =
  match workload with
  | "verify-deep" -> verify_e2e ~names:deep_configs ~jobs:1 ~dedup:true ~pins ~seconds
  | "verify-wide" -> verify_e2e ~names:wide_configs ~jobs:2 ~dedup:false ~pins ~seconds
  | "sample-scale" ->
    sample_e2e ~prefix:"scale" ~n:scale_n ~adversaries:scale_adversaries ~size:1
      ~pin_units:scale_pin_units ~latencies:false ~pins ~seed ~seconds
  | "sample-sweep" ->
    sample_e2e ~prefix:"sweep" ~n:sweep_n ~adversaries:sweep_adversaries
      ~size:sweep_trials ~pin_units:1 ~latencies:true ~pins ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)

let workload_names = [ "verify-deep"; "verify-wide"; "sample-scale"; "sample-sweep" ]
