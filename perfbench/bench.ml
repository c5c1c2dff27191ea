(* perfbench — the repo benchmark.

     python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

   run.py builds this executable from the checkout and runs it with the
   same arguments.  It runs workload W for about T seconds, checks its
   outputs against perfbench/pins.sexp, prints one "name value unit"
   line per metric and, as its last line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  It exits 1 when any
   unit failed its output checks, 2 on bad arguments.

   All load comes from this one process and at most two domains.  Each
   timing is a median over equal-sized units.  Each timed part of a
   unit (a verify unit, or one spec of a sample unit) sits between reps
   of a fixed reference kernel (Measure.ref_once), run on a collected
   heap and outside any timing, so that [wall_ref] cancels host drift
   and the kernel stays independent of the program's state.

   Workloads, and why each exists:

   - verify-deep: fallback_n2_d34 under Por.explore ~dedup:true,
     sequential; one unit = one exhaustion (1 661 305 explored
     executions, 190 936 dedup hits, 5.37 M steps).  The mode used to
     close the deep bounds (d40/d46): VM steps, snapshot/restore, state
     hashing and truncated-leaf checks, with a visited table that
     outgrows the caches.  With n=2, sleep sets barely prune.
   - verify-wide: binary_ratifier_n5, _n4_f2, _accept_n3_f2 and
     _rec_n3_f1 through Checks.run ~jobs:2, no dedup; one unit = the
     four exhaustions.  The traffic of `check all --jobs 2`: sleep-set
     pruning dominates (786 220 pruned against 79 344 explored at n5),
     plus crash/recover candidates and the Parallel/Frontier
     shard-and-steal layer that verify-deep skips.
   - sample-scale: Consensus.standard ~m:2 at n=1024, split_half
     inputs, one spec per adversary (round_robin, random_uniform,
     write_stalker, overwrite_attacker, adaptive_overwriter: every view
     class), sequential; one unit = one trial per spec.  The sampling
     path as n grows.
   - sample-sweep: the same protocol at n=16 under random_uniform, one
     spec of 3000 seeds (the per-spec size of Full-mode E1),
     sequential; one unit = the 3000-trial sweep.  Per-trial set-up and
     Engine aggregation, which sample-scale does not stress.

   Output checks (perfbench/pins.sexp, see pins.ml).  Every verify
   exhaustion must match its pinned counts (explored, complete,
   truncated, pruned, dedup_hits, steps) and be exhausted; verify-wide
   runs at two jobs against the sequential counts, so jobs-invariance is
   checked.  At the default seed (1) the first units of each sample spec
   must match their pinned aggregate digest (trials, agreements, summed
   total and individual work, no failures); at any seed every trial
   must be safe and finish within the step cap.  A unit failing any
   check, or raising, counts toward fail_frac and makes the run exit 1.
   The traced run checks that its counts equal the untraced run's (it
   checks the sample-scale pin only when its three pinned units fit in
   the run).

   End-to-end metrics ([--trace 0]).  In the result JSON, gated by
   BENCHMARK.json's bounds: setup_s (time per set-up — config or plan
   construction, factory instantiation, machine compilation — timed
   after the units in 15 batches of at least 10 ms, each divided by a
   major-heap allocation kernel timed on both sides of it; the median
   ratio is reported in seconds of the host the bounds were tuned on,
   see Measure.setup_ref_once), wall_ref (median over units of unit
   wall / reference kernel time), alloc_mb (median allocation per unit,
   all domains) and peak_heap_mb (the heap peak the units reach).
   Printed on every run as "name value unit" lines but not gated,
   because on a shared host their run-to-run spread exceeds any bound a
   gate may have (see Workloads.e2e_names): wall_s and cpu_s per unit,
   steps_per_s (machine transitions), execs_per_s (explored executions
   on the verify workloads, trials on the sample workloads), ref_ms
   with ref_ms.around and ref_ms.between (the reps around units and, on
   sample-scale, between their specs, which should agree), units,
   fail_frac; trials_per_s on the sample workloads; and on
   sample-sweep trial_ms.p50/p99 from the gaps between
   Engine.run_plan ~on_progress callbacks, with their sample count.
   Sample units are reported at their pinned default-seed work (see
   Workloads.sample_e2e).

   Per-layer metrics ([--trace 1]; see trace.ml), all reported on every
   workload, 0 where the layer is not on the workload's path, and what
   they should move:

     layer metric                          moves                 on
     machine.{snapshots,restores},         execs_per_s           verify-deep
       machine.{step,snapshot,restore,       (less: verify-wide)
       hash}_ns
     por.{explored,pruned,steps,           wall_s                verify-wide
       pruned_frac,dedup_hit_frac},          (barely: verify-deep)
       independence.ns_per_query,
       por.self_s (estimate)
     check.{ns_per_leaf,self_s},           execs_per_s           verify-deep
       setup.self_s
     parallel.{shards,steals,gen_s,        wall_s, cpu_s         verify-wide only
       shard_s.p50,shard_s.max,
       busy_frac,speedup}
     adversary.<adv>.ns_per_step           steps_per_s           sample-scale
                                             (no change predicted on sample-sweep)
     scheduler.<adv>.ns_per_step           steps_per_s           sample-scale
     engine.{trial_us,merge_us,merge_frac} execs_per_s,          sample-sweep
                                             trial_ms.p99
                                             (no change predicted on sample-scale)
     gc.{minor,major}_collections,         alloc_mb,             all
       gc.promoted_mb                        peak_heap_mb
     host.{ref_ms,cores},                  (context)             all
       trace.overhead_frac

   With fixed work per unit, wall_s, execs_per_s and steps_per_s move
   together, and wall_ref with them.

   Two hot spots the workloads expose, as measured on a shared 2-core
   x86-64 KVM guest:
   - sampling-path cost per step grows with n.  One trial per
     adversary at n=1024 (Engine.run_trial, six seeds each) cost
     2.0-3.4 us/step under random_uniform, 9-12 round_robin, 23-37
     adaptive_overwriter, 118-162 overwrite_attacker and 128-154
     write_stalker; 2000-trial sweeps at n=8 cost 0.6-1.8 us/step
     under the same adversaries, trial set-up included.  The traced
     run puts most of the n=1024 cost in the adversary and its view
     (adversary.stalker.ns_per_step about 150 000 ns).
   - Engine merge cost grows with trial count: run_seeds folds each
     singleton aggregate into a growing sorted list.  n=8
     random_uniform sweeps took 0.23 s for 2 500 trials (92 us per
     trial), 1.59 s for 10 000 (159 us) and 7.56 s for 20 000
     (378 us); at sample-sweep's 3000 trials engine.merge_frac is about
     0.15. *)

let usage =
  "bench --workload NAME --seed N --seconds T --trace 0|1\n\
   workloads: " ^ String.concat ", " Workloads.workload_names

let print_metric (m : Measure.metric) =
  Printf.printf "%s %s %s\n" m.Measure.name (Measure.json_float m.Measure.value)
    m.Measure.unit_

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let bad msg = prerr_endline ("bench: " ^ msg ^ "\n" ^ usage); exit 2 in
  (try
     Arg.parse_argv Sys.argv
       [ ("--workload", Arg.Set_string workload, "NAME  workload to run");
         ("--seed",
          Arg.String
            (fun a ->
              match Measure.seed_of_string a with
              | Some v -> seed := v
              | None -> raise (Arg.Bad ("--seed must be an integer, got " ^ a))),
          "N  input seed, any integer (default 1)");
         ("--seconds", Arg.Set_int seconds, "T  measuring time (default 10)");
         ("--trace", Arg.Set_int trace, "0|1  end-to-end or traced run") ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
   | Arg.Bad msg -> bad msg
   | Arg.Help msg -> print_string msg; exit 0);
  if not (List.mem !workload Workloads.workload_names) then
    bad ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if !seconds < 1 || !seconds > 100 then bad "--seconds must be 1..100";
  let pins =
    match Pins.load "perfbench/pins.sexp" with Ok p -> p | Error e -> bad ("pins: " ^ e)
  in
  Printf.printf "host cores=%d ref_ms=%.3f\n%!"
    (Domain.recommended_domain_count ())
    (Measure.ref_seconds () *. 1e3);
  let result, extra =
    if !trace = 1 then
      (Trace.run ~workload:!workload ~pins ~seed:!seed ~seconds:!seconds, [])
    else Workloads.run_e2e ~workload:!workload ~pins ~seed:!seed ~seconds:!seconds
  in
  let extra = if !trace = 1 then [ Measure.metric "fail_frac" "ratio" (Measure.fail_frac result) ] else extra in
  List.iter print_metric (result.Measure.metrics @ extra);
  print_endline (Measure.result_json result);
  exit (if result.Measure.correct then 0 else 1)
