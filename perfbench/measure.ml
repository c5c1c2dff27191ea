(* Clocks, the host-drift reference kernel, order statistics and the
   metric record every workload reports into.  Nothing here calls the
   program under test: the reference kernel in particular must stay
   independent of it, or an optimisation of the program would speed up
   the yardstick too and cancel out of [wall_ref]. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9
let ns_between t0 t1 = Int64.to_float (Int64.sub t1 t0)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The cost of one [now_ns] read, subtracted from every per-call timing
   so that wrapping a 100 ns callback does not report 130 ns. *)
let clock_overhead_ns =
  lazy
    (let reps = 200_000 in
     let t0 = now_ns () in
     for _ = 1 to reps do ignore (Sys.opaque_identity (now_ns ())) done;
     ns_between t0 (now_ns ()) /. float_of_int reps)

(* ------------------------------------------------------------------ *)
(* Reference kernel                                                    *)
(* ------------------------------------------------------------------ *)

(* Two fixed parts.  An integer multiply/xor chain tracks the host's
   CPU share, clock and SMT-sibling pressure.  Copying and remapping an
   option array (the shape of a sampling-path view copy) tracks
   allocation and minor-GC throughput, which is where a shared
   host's neighbours slow this program most: timed around the same
   deterministic n=1024 trial twenty times, trial time ranged 0.70 to
   1.54 s, its ratio to this part only 8.2 to 13.7.  A kernel
   scattering loads over an 8 MB table was tried first; its own spread
   (28% IQR) exceeded the workloads'.  The array is small enough (200
   slots) to be allocated young: a major-heap copy would keep its young
   fields alive through the remembered set, promote every one of them,
   and leave major-GC work and heap growth behind for the unit. *)
let ref_slots = Array.init 200 (fun i -> if i land 3 = 0 then None else Some (i, 3 * i))

let ref_once () =
  let x = ref 0x9e3779b9 and acc = ref 0 in
  for i = 1 to 2_000_000 do
    x := ((!x * 25214903917) + 11) land 0xffffffffffff;
    acc := (!acc lxor (!x lsr 7)) + i
  done;
  for _ = 1 to 1500 do
    let copy = Array.map (function None -> None | Some (a, b) -> Some (b, a)) ref_slots in
    acc := !acc + Array.length (Sys.opaque_identity copy)
  done;
  ignore (Sys.opaque_identity !acc)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Measure.median: no samples"
  | a ->
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The median time of [reps] (at least three) runs of [kernel]. *)
let time_median ?(reps = 3) kernel =
  median
    (List.init (max 3 reps) (fun _ ->
         let t0 = now () in
         kernel ();
         now () -. t0))

let ref_seconds ?reps () = time_median ?reps ref_once

(* The yardstick of set-up time.  Set-up builds long-lived structures
   (memories, compiled code tables, plans); this kernel allocates arrays
   too large for the minor heap (300 slots, so straight into the major
   heap), fills them with young boxes the minor GC must promote, and
   keeps the last 64 alive for the major GC to mark and sweep.  Of the
   kernels tried it tracked set-up drift best: over ten processes per
   workload, set-up time divided by it spread 2-5% (IQR/median),
   divided by [ref_once] 2-10%, undivided 5-16%. *)
let setup_ref_once () =
  let ring = Array.make 64 [||] in
  for i = 1 to 1000 do
    ring.(i land 63) <- Array.init 300 (fun j -> if j land 3 = 0 then None else Some (i, j))
  done;
  ignore (Sys.opaque_identity ring)

(* [setup_ref_once]'s median rep on the host the bounds were tuned on (a
   shared 2-core x86-64 KVM guest, where reps read 17 to 18 ms while
   [ref_once] read 6 to 9 ms as the neighbours' load changed).  A time
   divided by a rep taken next to it and multiplied by this constant
   reads in seconds of that host, with the drift of the moment
   cancelled. *)
let setup_ref_nominal_s = 17.5e-3

(* [reps] reference reps, their times.  With [collect], on a collected
   heap, so that the kernel neither pays for the program's pending GC
   work nor runs beside its live data. *)
let sample ~collect ~reps =
  if collect then Gc.full_major ();
  List.init reps (fun _ ->
      let t0 = now () in
      ref_once ();
      now () -. t0)

(* No run may approach the 180 s limit, whatever [--seconds] says. *)
let hard_cap_s = 120.

(* [f ~expected_s 0], [f ~expected_s 1], ... until [seconds] would be
   exceeded by one more call of the median cost so far ([expected_s]),
   but at least [min_calls] times and never past [hard_cap_s]; the
   results in call order. *)
let repeat_for ~seconds ~min_calls f =
  let start = now () in
  let rec loop u acc costs =
    let elapsed = now () -. start in
    let expected_s = if costs = [] then 0. else median costs in
    if elapsed < hard_cap_s
       && (u < min_calls || elapsed +. expected_s <= float_of_int seconds)
    then begin
      let t0 = now () in
      let r = f ~expected_s u in
      loop (u + 1) (r :: acc) ((now () -. t0) :: costs)
    end
    else List.rev acc
  in
  loop 0 [] []

(* Minimum samples strictly beyond a reported percentile.  Below that a
   tail percentile is one or two unlucky samples, not a tail. *)
let min_beyond = 10

(* Nearest-rank percentile [p] (0 < p < 100) of an already sorted
   array, or [None] when fewer than [min_beyond] samples lie beyond it. *)
let percentile sorted_samples p =
  let n = Array.length sorted_samples in
  if n = 0 then None
  else begin
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    let k = max 0 (min (n - 1) (rank - 1)) in
    if n - 1 - k < min_beyond then None else Some sorted_samples.(k)
  end

(* ------------------------------------------------------------------ *)
(* Metric records                                                      *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let valid_unit s =
  String.length s > 0
  && String.length s <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' ->
           true
         | _ -> false)
       s

let metric name unit_ value =
  if not (valid_name name && valid_unit unit_) then
    invalid_arg (Printf.sprintf "Measure.metric: bad name/unit %S %S" name unit_);
  { name; unit_; value }

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let fail_frac r =
  if r.attempted = 0 then 1. else float_of_int r.failed /. float_of_int r.attempted

(* The last stdout line: one JSON object, metric names in report order. *)
let result_json r =
  let m =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float value) unit_)
      r.metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed (String.concat ", " m)

(* [--seed] takes any decimal integer, of any size or sign.  Inputs are
   made from its residue modulo 1 000 000 (see Workloads.unit_seeds), so
   seeds 0..999 999 are used as given. *)
let seed_of_string s =
  let digits, neg =
    if String.length s > 1 && (s.[0] = '-' || s.[0] = '+') then
      (String.sub s 1 (String.length s - 1), s.[0] = '-')
    else (s, false)
  in
  if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then None
  else
    let r =
      String.fold_left (fun r c -> ((r * 10) + Char.code c - Char.code '0') mod 1_000_000) 0 digits
    in
    Some (if neg then (1_000_000 - r) mod 1_000_000 else r)
