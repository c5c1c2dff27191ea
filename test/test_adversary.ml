(* Choice-stream oracle for the adversaries.  The views are windows onto
   the scheduler's live state and every adversary reads them through
   O(1)/O(log n) accessors; the reference below is the list-based
   implementation over copied views that they replaced.  Every pid
   stream must be bit-identical to it — that is what keeps the
   committed experiment tables reproducible — at n on both sides of the
   machine's tabulation limit, with and without crash/recovery faults
   (which re-insert pids into the live set).  Also: the scheduler's
   mapping of invalid choices, and the per-step allocation budget. *)

open Conrat_sim

let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Reference: copied views and list-based adversaries                  *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  type full = {
    n : int;
    enabled : int array;
    pending : Op.any option array;
    contents : int option array;
  }

  (* Built from the raw descriptors only, independently of the live
     set the views under test read. *)
  let copy (v : View.full) =
    let n = View.n v in
    let pending = Array.init n (View.pending v) in
    let enabled =
      Array.of_list (List.filter (fun p -> pending.(p) <> None) (List.init n Fun.id))
    in
    { n; enabled; pending; contents = Memory.snapshot (View.memory v) }

  let next_enabled_from enabled n start =
    let is_enabled = Array.make n false in
    Array.iter (fun p -> is_enabled.(p) <- true) enabled;
    let rec go i remaining =
      if remaining = 0 then enabled.(0)
      else if is_enabled.(i mod n) then i mod n
      else go (i + 1) (remaining - 1)
    in
    go start n

  let adversary name fresh =
    { Adversary.name;
      fresh =
        (fun ~n rng ->
          let f = fresh ~n rng in
          fun v -> f (copy v)) }

  let round_robin =
    adversary "round_robin" (fun ~n:_ _rng ->
      let cursor = ref 0 in
      fun v ->
        let pid = next_enabled_from v.enabled v.n !cursor in
        cursor := pid + 1;
        pid)

  let random_uniform =
    adversary "random_uniform" (fun ~n:_ rng ->
      fun v -> v.enabled.(Rng.int rng (Array.length v.enabled)))

  let fixed_permutation =
    adversary "fixed_permutation" (fun ~n rng ->
      let perm = Rng.permutation rng n in
      let cursor = ref 0 in
      fun v ->
        let is_enabled = Array.make v.n false in
        Array.iter (fun p -> is_enabled.(p) <- true) v.enabled;
        let rec go remaining =
          if remaining = 0 then v.enabled.(0)
          else begin
            let pid = perm.(!cursor mod n) in
            incr cursor;
            if is_enabled.(pid) then pid else go (remaining - 1)
          end
        in
        go (2 * n))

  let kind v pid = Option.map Op.kind v.pending.(pid)

  let write_stalker =
    adversary "write_stalker" (fun ~n:_ _rng ->
      let cursor = ref 0 in
      fun v ->
        let readers =
          Array.to_list v.enabled
          |> List.filter (fun pid ->
              match kind v pid with
              | Some (Op.Read_op | Op.Collect_op) -> true
              | Some _ | None -> false)
        in
        let pool = if readers <> [] then Array.of_list readers else v.enabled in
        let pid = pool.(!cursor mod Array.length pool) in
        incr cursor;
        pid)

  let stored_values contents = Array.to_list contents |> List.filter_map Fun.id

  let best_writer v stored =
    let best = ref None in
    Array.iter
      (fun pid ->
        match v.pending.(pid) with
        | Some any when Op.is_write any ->
          (match Op.value any with
           | Some value when stored <> [] && not (List.mem value stored) ->
             let p = Option.value (Op.prob any) ~default:1.0 in
             (match !best with
              | Some (_, p') when p' >= p -> ()
              | _ -> best := Some (pid, p))
           | Some _ | None -> ())
        | Some _ | None -> ())
      v.enabled;
    Option.map fst !best

  let overwrite_attacker =
    adversary "overwrite_attacker" (fun ~n:_ _rng ->
      let cursor = ref 0 in
      fun v ->
        match best_writer v (stored_values v.contents) with
        | Some pid -> pid
        | None ->
          let pid = v.enabled.(!cursor mod Array.length v.enabled) in
          incr cursor;
          pid)

  let adaptive_overwriter =
    adversary "adaptive_overwriter" (fun ~n:_ _rng ->
      let cursor = ref 0 in
      let let_reader_go = ref true in
      fun v ->
        let stored = stored_values v.contents in
        let best_writer = best_writer v stored in
        let any_reader =
          Array.to_list v.enabled |> List.find_opt (fun pid -> kind v pid = Some Op.Read_op)
        in
        let fallback () =
          let pid = v.enabled.(!cursor mod Array.length v.enabled) in
          incr cursor;
          pid
        in
        if stored = [] then fallback ()
        else begin
          let choice =
            if !let_reader_go then match any_reader with Some r -> Some r | None -> best_writer
            else match best_writer with Some w -> Some w | None -> any_reader
          in
          let_reader_go := not !let_reader_go;
          match choice with Some pid -> pid | None -> fallback ()
        end)

  let noisy =
    adversary "noisy" (fun ~n rng ->
      let jitter = 0.3 in
      let vtime = Array.init n (fun _ -> Rng.float rng) in
      fun v ->
        let best = ref v.enabled.(0) in
        Array.iter (fun pid -> if vtime.(pid) < vtime.(!best) then best := pid) v.enabled;
        let pid = !best in
        vtime.(pid) <- vtime.(pid) +. 1.0 +. (Rng.exponential rng (1.0 /. jitter) -. jitter);
        pid)

  let priority =
    adversary "priority" (fun ~n rng ->
      ignore (Rng.bits64 rng);
      let prio = Array.init n Fun.id in
      fun v ->
        let best = ref v.enabled.(0) in
        Array.iter (fun pid -> if prio.(pid) > prio.(!best) then best := pid) v.enabled;
        !best)

  let all =
    [ round_robin; random_uniform; fixed_permutation; write_stalker; overwrite_attacker;
      adaptive_overwriter; noisy; priority ]
end

(* The live set against a sorted-list model, over random add/remove
   sequences and every select / cyclic-successor query. *)
let qcheck_liveset_model =
  QCheck.Test.make ~name:"liveset = sorted-list model" ~count:300
    QCheck.(pair (int_range 1 70) (small_list (pair bool small_nat)))
    (fun (n, ops) ->
      let s = Liveset.create n and model = ref [] in
      List.iter
        (fun (add, p) ->
          let p = p mod n in
          if add then begin
            Liveset.add s p;
            if not (List.mem p !model) then model := List.sort compare (p :: !model)
          end
          else begin
            Liveset.remove s p;
            model := List.filter (( <> ) p) !model
          end)
        ops;
      let members = Array.of_list !model in
      Liveset.count s = Array.length members
      && List.for_all (fun p -> Liveset.mem s p = List.mem p !model) (List.init n Fun.id)
      && Array.for_all Fun.id (Array.mapi (fun k p -> Liveset.nth s k = p) members)
      && (members = [||]
          || List.for_all
               (fun start ->
                 Liveset.next_from s start
                 = Ref.next_enabled_from members n (((start mod n) + n) mod n))
               (List.init (3 * n) (fun i -> i - n))))

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let faults =
  Conrat_faults.Injector.mix
    [ Conrat_faults.Injector.crashing ~rate:0.05 ~f:3 ();
      Conrat_faults.Injector.recovering ~rate:0.1 ~r:3 () ]

(* Standard consensus soon has every input value in memory, after
   which the overwriters only cycle.  [churn] keeps conflicting writes
   pending: each process makes [rounds] random reads, collects, writes
   and probabilistic writes (at probabilities that tie often) of values
   in [0, 8) to four registers. *)
let churn ~rounds memory =
  let regs = Memory.alloc_n memory 4 in
  fun ~pid ~rng ->
    let open Program in
    let rec go k =
      if k = rounds then return pid
      else
        let l = regs.(Rng.int rng 4) and x = Rng.int rng 8 in
        match Rng.int rng 4 with
        | 0 -> bind (read l) (fun _ -> go (k + 1))
        | 1 -> bind (collect regs.(0) 4) (fun _ -> go (k + 1))
        | 2 -> bind (write l x) (fun () -> go (k + 1))
        | _ ->
          let p = [| 0.25; 0.5; 1.0 |].(Rng.int rng 3) in
          bind (prob_write l x ~p) (fun () -> go (k + 1))
    in
    go 0

type workload = Consensus of int | Churn

(* The recorded trace names every scheduled pid, crash and recovery in
   order. *)
let run ?(with_faults = false) ?(max_steps = 20_000) ?(workload = Consensus 2) ~n ~seed
    adversary =
  let memory = Memory.create () in
  if with_faults then Memory.track_writers memory;
  let body =
    match workload with
    | Consensus m ->
      let inst = (Conrat_core.Consensus.standard ~m).Conrat_core.Consensus.instantiate ~n memory in
      fun ~pid ~rng -> inst.Conrat_core.Consensus.decide ~pid ~rng (pid mod m)
    | Churn -> churn ~rounds:12 memory
  in
  let result =
    Scheduler.run ~record:true ~cheap_collect:true ~max_steps
      ?faults:(if with_faults then Some faults else None)
      ~n ~adversary ~rng:(Rng.create seed) ~memory body
  in
  let events = Trace.events (Option.get result.Scheduler.trace) in
  (List.map (fun e -> (e.Trace.pid, e.Trace.op = None, e.Trace.landed)) events, result)

let qcheck_choice_streams =
  QCheck.Test.make ~name:"choice streams = list-based reference" ~count:200
    QCheck.(
      quad
        (int_bound (List.length Ref.all - 1))
        (* half the cases at n <= 12, around the machine's tabulation
           limit (n <= 10) *)
        (oneof [ int_range 1 12; int_range 13 300 ])
        (pair (oneofl [ Consensus 2; Consensus 16; Churn ]) (int_bound 1_000_000))
        bool)
    (fun (k, n, (workload, seed), with_faults) ->
      let reference = List.nth Ref.all k in
      let adversary = Adversary.by_name reference.Adversary.name in
      let got, r = run ~with_faults ~workload ~n ~seed adversary in
      let want, r' = run ~with_faults ~workload ~n ~seed reference in
      if got <> want then
        QCheck.Test.fail_reportf "%s n=%d %s seed=%d faults=%b: streams diverge at event %d"
          reference.Adversary.name n
          (match workload with Consensus m -> Printf.sprintf "consensus m=%d" m | Churn -> "churn")
          seed with_faults
          (let rec first i = function
             | a :: l, b :: l' -> if a = b then first (i + 1) (l, l') else i
             | _ -> i
           in
           first 0 (got, want))
      else r.Scheduler.outputs = r'.Scheduler.outputs && r.Scheduler.steps = r'.Scheduler.steps)

(* Faulted runs must actually exercise re-insertion into the live set. *)
let test_faults_recover () =
  let recovered = ref 0 in
  for seed = 0 to 19 do
    let _, r = run ~with_faults:true ~n:40 ~seed Adversary.round_robin in
    recovered := !recovered + r.Scheduler.recoveries
  done;
  checkb "some recoveries fired" true (!recovered > 0)

(* An adversary naming negative pids, pids >= n and finished pids: the
   scheduler must map each to the first enabled pid at or cyclically
   after it (mod n), exactly as the reference rule does. *)
let qcheck_invalid_choices =
  QCheck.Test.make ~name:"invalid choices map to the next enabled pid" ~count:60
    QCheck.(pair (int_range 1 40) (int_bound 1_000_000))
    (fun (n, seed) ->
      let log = ref [] in
      let chaos =
        Adversary.adaptive "chaos" (fun ~n rng ->
          fun v ->
            let r = Ref.copy v in
            let finished = List.filter (fun p -> r.Ref.pending.(p) = None) (List.init n Fun.id) in
            let c =
              match Rng.int rng 4 with
              | 0 -> -1 - Rng.int rng (3 * n)
              | 1 -> n + Rng.int rng (3 * n)
              | 2 when finished <> [] -> List.nth finished (Rng.int rng (List.length finished))
              | _ -> Rng.int rng n
            in
            log := (c, r.Ref.enabled) :: !log;
            c)
      in
      let got, _ = run ~n ~seed chaos in
      let want =
        List.rev_map
          (fun (c, enabled) ->
            if c >= 0 && c < n && Array.mem c enabled then c
            else Ref.next_enabled_from enabled n (((c mod n) + n) mod n))
          !log
      in
      List.map (fun (pid, _, _) -> pid) got = want)

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words allocated by the adversary's choice function itself,
   summed over every step after the first [warmup]. *)
let choice_words ~n ~warmup (adversary : Adversary.t) =
  let words = ref 0. and calls = ref 0 in
  let measured =
    { adversary with
      Adversary.fresh =
        (fun ~n rng ->
          let choose = adversary.Adversary.fresh ~n rng in
          fun v ->
            let w0 = Gc.minor_words () in
            let pid = choose v in
            let w1 = Gc.minor_words () in
            incr calls;
            if !calls > warmup then words := !words +. (w1 -. w0);
            pid) }
  in
  ignore (run ~n ~seed:11 ~max_steps:100_000 measured);
  (!words, !calls)

let test_choose_allocates_nothing () =
  List.iter
    (fun (adversary : Adversary.t) ->
      let name = adversary.Adversary.name in
      let words, calls = choice_words ~n:1024 ~warmup:100 adversary in
      checkb (name ^ " ran") true (calls > 1000);
      Alcotest.check (Alcotest.float 0.) (name ^ ": minor words after warm-up") 0. words)
    [ Adversary.round_robin; Adversary.random_uniform; Adversary.fixed_permutation ();
      Adversary.write_stalker ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "adversary"
    [ ( "oracle",
        [ qc qcheck_liveset_model;
          qc qcheck_choice_streams;
          Alcotest.test_case "faulted runs recover" `Quick test_faults_recover;
          qc qcheck_invalid_choices ] );
      ( "allocation",
        [ Alcotest.test_case "choose allocates nothing at n=1024" `Quick
            test_choose_allocates_nothing ] ) ]
