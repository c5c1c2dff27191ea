(* The traced run ([--trace 1]): the same units as the end-to-end run,
   each done once untraced and once traced, so every count the traced
   run reports is checked against the untraced one and the difference
   in wall time is the tracing overhead.

   Tracing is done from outside, at the public boundaries: a counting
   and timestamping [Sink], a [Telemetry] registry, wrapped
   [setup]/[check] callbacks and adversary closures, a re-fold of
   [Engine.run_trial]/[Engine.merge], and micro-timings of
   [Machine.step_forced]/[snapshot_into]/[restore]/[state_hash] and
   [Independence.independent] on states reached along the workload's
   own paths.  A layer the workload does not run reports 0. *)

open Conrat_sim
open Conrat_verify
open Conrat_harness
module M = Measure
module W = Workloads
module Tel = Conrat_obs.Telemetry

let adversary_keys = List.map fst W.scale_adversaries

let per_layer_names =
  [ ("machine.snapshots", "count"); ("machine.restores", "count");
    ("machine.step_ns", "ns"); ("machine.snapshot_ns", "ns");
    ("machine.restore_ns", "ns"); ("machine.hash_ns", "ns");
    ("por.explored", "count"); ("por.pruned", "count"); ("por.steps", "count");
    ("por.pruned_frac", "ratio"); ("por.dedup_hit_frac", "ratio");
    ("independence.ns_per_query", "ns"); ("por.self_s", "s");
    ("check.ns_per_leaf", "ns"); ("check.self_s", "s"); ("setup.self_s", "s");
    ("parallel.shards", "count"); ("parallel.steals", "count");
    ("parallel.gen_s", "s"); ("parallel.shard_s.p50", "s");
    ("parallel.shard_s.max", "s"); ("parallel.busy_frac", "ratio");
    ("parallel.speedup", "ratio") ]
  @ List.map (fun k -> ("adversary." ^ k ^ ".ns_per_step", "ns")) adversary_keys
  @ List.map (fun k -> ("scheduler." ^ k ^ ".ns_per_step", "ns")) adversary_keys
  @ [ ("engine.trial_us", "us"); ("engine.merge_us", "us");
      ("engine.merge_frac", "ratio"); ("gc.minor_collections", "count");
      ("gc.major_collections", "count"); ("gc.promoted_mb", "MB");
      ("host.ref_ms", "ms"); ("host.cores", "count");
      ("trace.overhead_frac", "ratio") ]

(* ------------------------------------------------------------------ *)
(* Accumulators                                                        *)
(* ------------------------------------------------------------------ *)

(* Summed nanoseconds over [n] timed calls, clock-read cost removed. *)
type acc = { mutable ns : float; mutable n : int }

let acc () = { ns = 0.; n = 0 }

let add a ~calls ns =
  a.ns <- a.ns +. ns -. Lazy.force M.clock_overhead_ns;
  a.n <- a.n + calls

let between a t0 t1 = add a ~calls:1 (M.ns_between t0 t1)
let per_call a = if a.n = 0 then 0. else a.ns /. float_of_int a.n
let secs a = a.ns *. 1e-9

let wrap_setup a setup () =
  let t0 = M.now_ns () in
  let r = setup () in
  between a t0 (M.now_ns ());
  r

let wrap_check a check ~complete outputs =
  let t0 = M.now_ns () in
  let r = check ~complete outputs in
  between a t0 (M.now_ns ());
  r

let wrap_adversary a (adv : Adversary.t) =
  { adv with
    Adversary.fresh =
      (fun ~n rng ->
        let choose = adv.Adversary.fresh ~n rng in
        fun view ->
          let t0 = M.now_ns () in
          let pid = choose view in
          between a t0 (M.now_ns ());
          pid) }

type gc = { minor : int; major : int; promoted : float }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections;
    promoted = s.Gc.promoted_words }

let gc_delta g0 g1 =
  { minor = g1.minor - g0.minor; major = g1.major - g0.major;
    promoted = g1.promoted -. g0.promoted }

let gc_add a b =
  { minor = a.minor + b.minor; major = a.major + b.major;
    promoted = a.promoted +. b.promoted }

let gc_zero = { minor = 0; major = 0; promoted = 0. }

(* ------------------------------------------------------------------ *)
(* Machine and independence micro-timings                              *)
(* ------------------------------------------------------------------ *)

type micro = { step : acc; snap : acc; restore : acc; hash : acc; indep : acc }

let micro () = { step = acc (); snap = acc (); restore = acc (); hash = acc (); indep = acc () }

let landed_choice m rng pid =
  match Machine.coin_class m pid with 1 -> true | 2 -> Rng.bool rng | _ -> false

(* Random root-to-leaf paths through a checker config's tree (coins and
   schedules drawn from [rng]).  At each state: every pair of enabled
   pending operations goes through [Independence.independent]; then the
   state is snapshotted, hashed, stepped, restored and stepped again,
   each call timed on its own. *)
let walk_verify mi rng (c : Checks.t) ~budget =
  let memory, body = Checks.setup_of c ~n:c.Checks.n () in
  let m = Machine.create ~cheap_collect:c.Checks.cheap_collect ~n:c.Checks.n ~memory body in
  let root = Machine.snapshot m and snap = Machine.snapshot m in
  let taken = ref 0 in
  while !taken < budget do
    Machine.restore m root;
    let depth = ref 0 in
    while Machine.running m && !depth < c.Checks.max_depth && !taken < budget do
      let en = Array.copy (Machine.enabled m) in
      let k = Array.length en in
      if k >= 2 then begin
        let ops = Array.map (fun p -> Option.get (Machine.pending_op m p)) en in
        let t0 = M.now_ns () in
        for i = 0 to k - 1 do
          for j = i + 1 to k - 1 do
            ignore (Sys.opaque_identity (Independence.independent ops.(i) ops.(j)))
          done
        done;
        add mi.indep ~calls:(k * (k - 1) / 2) (M.ns_between t0 (M.now_ns ()))
      end;
      let pid = en.(Rng.int rng k) in
      let landed = landed_choice m rng pid in
      let t0 = M.now_ns () in
      Machine.snapshot_into m snap;
      let t1 = M.now_ns () in
      ignore (Sys.opaque_identity (Machine.state_hash m));
      let t2 = M.now_ns () in
      Machine.step_forced m ~pid ~landed;
      let t3 = M.now_ns () in
      Machine.restore m snap;
      let t4 = M.now_ns () in
      Machine.step_forced m ~pid ~landed;
      between mi.snap t0 t1;
      between mi.hash t1 t2;
      between mi.step t2 t3;
      between mi.restore t3 t4;
      incr depth;
      incr taken
    done
  done

(* Random-schedule executions of the sampling workloads' protocol at
   their n, timing each [Machine.step_forced].  The sampling path takes
   no snapshots and hashes nothing, so only steps are timed. *)
let walk_sample mi rng ~n ~seed ~budget =
  let taken = ref 0 in
  while !taken < budget do
    let m = W.sample_machine ~n ~seed (Conrat_core.Consensus.standard ~m:2) in
    while Machine.running m && !taken < budget do
      let en = Machine.enabled m in
      let pid = en.(Rng.int rng (Array.length en)) in
      let landed = landed_choice m rng pid in
      let t0 = M.now_ns () in
      Machine.step_forced m ~pid ~landed;
      between mi.step t0 (M.now_ns ());
      incr taken
    done
  done

(* ------------------------------------------------------------------ *)
(* Result assembly                                                     *)
(* ------------------------------------------------------------------ *)

let emit ~pairs ~failed ~values =
  let get name = Option.value (Hashtbl.find_opt values name) ~default:0. in
  { M.correct = failed = 0; attempted = pairs; failed;
    metrics = List.map (fun (name, u) -> M.metric name u (get name)) per_layer_names }

let set values name v = Hashtbl.replace values name v

let common values ~refs ~gc ~pairs ~traced ~untraced =
  let p = float_of_int pairs in
  set values "gc.minor_collections" (float_of_int gc.minor /. p);
  set values "gc.major_collections" (float_of_int gc.major /. p);
  set values "gc.promoted_mb" (gc.promoted *. W.word_mb /. p);
  set values "host.ref_ms" (M.median refs *. 1e3);
  set values "host.cores" (float_of_int (Domain.recommended_domain_count ()));
  set values "trace.overhead_frac" ((traced /. untraced) -. 1.)

(* Run [pair u] (returning its error list) for about [seconds], at
   least once (see [Measure.repeat_for]); the reference kernel runs
   before each.  Returns the pairs run, the reference timings and the
   number of failed pairs. *)
let pairs_loop ~seconds pair =
  let runs =
    M.repeat_for ~seconds ~min_calls:1 (fun ~expected_s:_ u ->
        let r = M.ref_seconds () in
        let errors = try pair u with e -> [ Printexc.to_string e ] in
        List.iter (Printf.eprintf "pair %d: %s\n%!" u) errors;
        (r, errors <> []))
  in
  (List.length runs, List.map fst runs, List.length (List.filter snd runs))

(* ------------------------------------------------------------------ *)
(* Verify workloads                                                    *)
(* ------------------------------------------------------------------ *)

let same_counts what (a : Por.stats) (b : Por.stats) =
  if W.counts_of_stats a = W.counts_of_stats b && a.Por.exhausted = b.Por.exhausted
  then []
  else [ what ^ ": traced counts differ from untraced" ]

let stats_of name = function
  | Ok s -> s
  | Error (reason, _, _) -> failwith (name ^ ": violation: " ^ reason)

let verify_trace ~names ~jobs ~dedup ~pins ~seed ~seconds =
  let configs = W.verify_setup names () in
  let values = Hashtbl.create 64 in
  let setup_a = acc () and check_a = acc () in
  let snaps = ref 0 and restores = ref 0 and hashes = ref 0 in
  let explored = ref 0 and pruned = ref 0 and steps = ref 0 and dedup_hits = ref 0 in
  let traced_seq = ref 0. and traced = ref 0. and untraced = ref 0. in
  let wall1 = ref 0. and wall2 = ref 0. and gen_s = ref 0. in
  let shard_secs = ref [] and steals = ref 0 and gc = ref gc_zero in
  let pair _ =
    let errors = ref [] in
    let note e = errors := !errors @ e in
    (* Untraced: the end-to-end unit, plus a jobs-1 pass when the unit
       is parallel (the speedup's numerator, and the jobs-invariance
       check against the same pins). *)
    let timed_pass ~jobs =
      let t0 = M.now () in
      let r = List.map (fun c -> let s, e = W.exhaust ~pins ~jobs ~dedup c in note e; s) configs in
      (r, M.now () -. t0)
    in
    let base, w = timed_pass ~jobs in
    untraced := !untraced +. w;
    if jobs > 1 then begin
      let _, w1 = timed_pass ~jobs:1 in
      untraced := !untraced +. w1;
      wall1 := !wall1 +. w1;
      wall2 := !wall2 +. w
    end;
    let g0 = gc_now () in
    (* Traced sequential pass: counting sink, telemetry probe, wrapped
       callbacks — the same arguments [Checks.run] passes. *)
    let t0 = M.now () in
    List.iter2
      (fun (c : Checks.t) b ->
        let tel = Tel.create ~domains:1 () in
        let sink =
          Sink.make ~on_snapshot:(fun ~step:_ -> incr snaps)
            ~on_restore:(fun ~step:_ -> incr restores) ()
        in
        let s =
          stats_of c.Checks.name
            (Por.explore ~max_depth:c.Checks.max_depth ~max_runs:c.Checks.max_runs
               ~cheap_collect:c.Checks.cheap_collect ~faults:c.Checks.faults ~sink
               ~probe:(Tel.probe tel ~domain:0) ~dedup ~n:c.Checks.n
               ~setup:(wrap_setup setup_a (Checks.setup_of c ~n:c.Checks.n))
               ~check:(wrap_check check_a (Checks.check_of c ~n:c.Checks.n))
               ())
        in
        note (same_counts c.Checks.name b s);
        let tot = Tel.totals tel in
        hashes := !hashes + Tel.get tot Tel.dedup_hits + Tel.get tot Tel.dedup_misses
                  + Tel.get tot Tel.dedup_intersections;
        explored := !explored + Por.explored s;
        pruned := !pruned + s.Por.pruned;
        steps := !steps + s.Por.steps;
        dedup_hits := !dedup_hits + s.Por.dedup_hits)
      configs base;
    let ws = M.now () -. t0 in
    traced_seq := !traced_seq +. ws;
    (* Traced parallel pass: telemetry registry for shard records and
       steals, a fleet sink timestamping the first steal (the end of
       the generation pass). *)
    let wp =
      if jobs <= 1 then 0.
      else begin
        let t0 = M.now () in
        List.iter2
          (fun (c : Checks.t) b ->
            let tel = Tel.create ~domains:jobs () in
            let first = Atomic.make 0 in
            let sink =
              Sink.make
                ~on_steal:(fun ~domain:_ ~shard:_ ~prefix:_ ->
                  ignore (Atomic.compare_and_set first 0 (Int64.to_int (M.now_ns ()))))
                ()
            in
            let c0 = M.now_ns () in
            let s =
              stats_of c.Checks.name
                (Parallel.explore_por ~jobs ~max_depth:c.Checks.max_depth
                   ~max_runs:c.Checks.max_runs ~cheap_collect:c.Checks.cheap_collect
                   ~faults:c.Checks.faults ~dedup ~telemetry:tel ~sink ~n:c.Checks.n
                   ~setup:(Checks.setup_of c ~n:c.Checks.n)
                   ~check:(Checks.check_of c ~n:c.Checks.n)
                   ())
            in
            note (same_counts (c.Checks.name ^ " (jobs)") b s);
            let f = Atomic.get first in
            let c1 = M.now_ns () in
            gen_s := !gen_s +. (M.ns_between c0 (if f = 0 then c1 else Int64.of_int f) *. 1e-9);
            steals := !steals + Tel.get (Tel.totals tel) Tel.steals;
            shard_secs := List.map (fun (r : Tel.shard) -> r.Tel.seconds) (Tel.shards tel) @ !shard_secs)
          configs base;
        M.now () -. t0
      end
    in
    gc := gc_add !gc (gc_delta g0 (gc_now ()));
    traced := !traced +. ws +. wp;
    !errors
  in
  let pairs, refs, failed = pairs_loop ~seconds pair in
  (* Micro-timings: a fixed budget of steps along random paths, split
     evenly over the configs. *)
  let mi = micro () and rng = Rng.create seed in
  List.iter (fun c -> walk_verify mi rng c ~budget:(200_000 / List.length configs)) configs;
  let p = float_of_int pairs in
  let per x = float_of_int x /. p in
  set values "machine.snapshots" (per !snaps);
  set values "machine.restores" (per !restores);
  set values "machine.step_ns" (per_call mi.step);
  set values "machine.snapshot_ns" (per_call mi.snap);
  set values "machine.restore_ns" (per_call mi.restore);
  set values "machine.hash_ns" (per_call mi.hash);
  set values "por.explored" (per !explored);
  set values "por.pruned" (per !pruned);
  set values "por.steps" (per !steps);
  set values "por.pruned_frac" (float_of_int !pruned /. float_of_int (max 1 (!explored + !pruned)));
  set values "por.dedup_hit_frac" (float_of_int !dedup_hits /. float_of_int (max 1 !hashes));
  set values "independence.ns_per_query" (per_call mi.indep);
  (* An estimate: the sequential traced wall minus the timed callbacks
     and the machine calls priced at their micro-timed cost. *)
  let machine_s =
    1e-9
    *. ((float_of_int !steps *. per_call mi.step)
       +. (float_of_int !snaps *. per_call mi.snap)
       +. (float_of_int !restores *. per_call mi.restore)
       +. (float_of_int !hashes *. per_call mi.hash))
  in
  set values "por.self_s" ((!traced_seq -. secs check_a -. secs setup_a -. machine_s) /. p);
  set values "check.ns_per_leaf" (per_call check_a);
  set values "check.self_s" (secs check_a /. p);
  set values "setup.self_s" (secs setup_a /. p);
  if jobs > 1 then begin
    let shards = M.sorted !shard_secs in
    let busy = Array.fold_left ( +. ) 0. shards in
    set values "parallel.shards" (per (Array.length shards));
    set values "parallel.steals" (per !steals);
    set values "parallel.gen_s" (!gen_s /. p);
    (match M.percentile shards 50. with
     | Some v -> set values "parallel.shard_s.p50" v
     | None -> ());
    if Array.length shards > 0 then
      set values "parallel.shard_s.max" shards.(Array.length shards - 1);
    set values "parallel.busy_frac"
      (busy /. (float_of_int jobs *. Float.max 1e-9 (!traced -. !traced_seq -. !gen_s)));
    set values "parallel.speedup" (!wall1 /. !wall2)
  end;
  common values ~refs ~gc:!gc ~pairs ~traced:!traced ~untraced:!untraced;
  emit ~pairs ~failed ~values

(* ------------------------------------------------------------------ *)
(* Sample workloads                                                    *)
(* ------------------------------------------------------------------ *)

let sample_trace ~prefix ~n ~adversaries ~size ~pin_units ~pins ~seed ~seconds =
  let pinned = W.pin_check ~pins ~seed ~pin_units in
  let values = Hashtbl.create 64 in
  let adv = List.map (fun (k, _) -> (k, acc ())) adversaries in
  let trial = List.map (fun (k, _) -> (k, acc ())) adversaries in
  let steps_by = Hashtbl.create 8 in
  let merge_a = acc () and trial_all = acc () in
  let traced = ref 0. and untraced = ref 0. and gc = ref gc_zero in
  let pair u =
    let plan = W.make_plan ~prefix ~n ~adversaries ~seeds:(W.unit_seeds ~seed ~size u) in
    let t0 = M.now () in
    let base = Engine.run_plan plan in
    untraced := !untraced +. (M.now () -. t0);
    let errors = W.sample_checks ~size ~pinned u base in
    let g0 = gc_now () in
    let t0 = M.now () in
    (* The re-fold: [Engine.run_trial] per seed and [Engine.merge] into
       the running aggregate, in seed order as the sequential engine
       does, with each spec's adversary wrapped. *)
    let mismatches =
      List.concat_map
        (fun ((short, _), (spec : Plan.spec)) ->
          let spec = { spec with Plan.adversary = wrap_adversary (List.assoc short adv) spec.Plan.adversary } in
          let ta = List.assoc short trial in
          let agg =
            List.fold_left
              (fun acc seed ->
                let t0 = M.now_ns () in
                let one = Engine.run_trial spec seed in
                let t1 = M.now_ns () in
                let acc = Engine.merge acc one in
                let t2 = M.now_ns () in
                between ta t0 t1;
                between trial_all t0 t1;
                between merge_a t1 t2;
                acc)
              Engine.empty_aggregate spec.Plan.seeds
          in
          let prev = Option.value (Hashtbl.find_opt steps_by short) ~default:0 in
          Hashtbl.replace steps_by short
            (prev + W.steps_of agg);
          if W.digest agg = W.digest (Engine.get base spec.Plan.sid) then []
          else [ spec.Plan.sid ^ ": traced counts differ from untraced" ])
        (List.combine adversaries plan.Plan.specs)
    in
    traced := !traced +. (M.now () -. t0);
    gc := gc_add !gc (gc_delta g0 (gc_now ()));
    errors @ mismatches
  in
  let pairs, refs, failed = pairs_loop ~seconds pair in
  let mi = micro () in
  walk_sample mi (Rng.create seed) ~n ~seed ~budget:20_000;
  set values "machine.step_ns" (per_call mi.step);
  List.iter
    (fun (k, _) ->
      let steps = float_of_int (Option.value (Hashtbl.find_opt steps_by k) ~default:0) in
      let a = List.assoc k adv and t = List.assoc k trial in
      if steps > 0. then begin
        set values ("adversary." ^ k ^ ".ns_per_step") (a.ns /. steps);
        set values ("scheduler." ^ k ^ ".ns_per_step") ((t.ns -. a.ns) /. steps)
      end)
    adversaries;
  set values "engine.trial_us" (per_call trial_all /. 1e3);
  set values "engine.merge_us" (per_call merge_a /. 1e3);
  set values "engine.merge_frac" (merge_a.ns /. (merge_a.ns +. trial_all.ns));
  common values ~refs ~gc:!gc ~pairs ~traced:!traced ~untraced:!untraced;
  emit ~pairs ~failed ~values

let run ~workload ~pins ~seed ~seconds =
  match workload with
  | "verify-deep" ->
    verify_trace ~names:W.deep_configs ~jobs:1 ~dedup:true ~pins ~seed ~seconds
  | "verify-wide" ->
    verify_trace ~names:W.wide_configs ~jobs:2 ~dedup:false ~pins ~seed ~seconds
  | "sample-scale" ->
    sample_trace ~prefix:"scale" ~n:W.scale_n ~adversaries:W.scale_adversaries
      ~size:1 ~pin_units:W.scale_pin_units ~pins ~seed ~seconds
  | "sample-sweep" ->
    sample_trace ~prefix:"sweep" ~n:W.sweep_n ~adversaries:W.sweep_adversaries
      ~size:W.sweep_trials ~pin_units:1 ~pins ~seed ~seconds
  | w -> invalid_arg ("unknown workload " ^ w)
