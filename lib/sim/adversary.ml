type t = {
  name : string;
  fresh : n:int -> Rng.t -> (View.full -> int);
}

let adaptive name fresh = { name; fresh }

let oblivious name fresh =
  { name;
    fresh = (fun ~n rng ->
      let f = fresh ~n rng in
      fun view -> f (View.to_oblivious view)) }

let value_oblivious name fresh =
  { name;
    fresh = (fun ~n rng ->
      let f = fresh ~n rng in
      fun view -> f (View.to_value_oblivious view)) }

let location_oblivious name fresh =
  { name;
    fresh = (fun ~n rng ->
      let f = fresh ~n rng in
      fun view -> f (View.to_location_oblivious view)) }

let round_robin =
  oblivious "round_robin" (fun ~n:_ _rng ->
    let cursor = ref 0 in
    fun v ->
      let pid = View.next_from v !cursor in
      cursor := pid + 1;
      pid)

let random_uniform =
  oblivious "random_uniform" (fun ~n:_ rng ->
    fun v -> View.nth v (Rng.int rng (View.live v)))

let fixed_permutation ?perm () =
  oblivious "fixed_permutation" (fun ~n rng ->
    let perm = match perm with Some p -> Array.copy p | None -> Rng.permutation rng n in
    let cursor = ref 0 in
    fun v ->
      (* Walk the permutation from the cursor to the first live pid:
         two laps find one when [perm] covers every pid; a caller's
         [perm] that does not falls back to the lowest live pid. *)
      let pid = ref (-1) and remaining = ref (2 * n) in
      while !pid < 0 && !remaining > 0 do
        let p = perm.(!cursor mod n) in
        incr cursor;
        decr remaining;
        if View.is_live v p then pid := p
      done;
      if !pid >= 0 then !pid else View.nth v 0)

(* The fallback of the stateful adversaries: cycle through the live
   pids in ascending order. *)
let cycle cursor v =
  let pid = View.nth v (!cursor mod View.live v) in
  incr cursor;
  pid

let write_stalker =
  value_oblivious "write_stalker" (fun ~n:_ _rng ->
    let cursor = ref 0 in
    fun v ->
      let readers = View.readers v in
      if readers = 0 then cycle cursor v
      else begin
        let pid = View.nth_reader v (!cursor mod readers) in
        incr cursor;
        pid
      end)

(* The values currently stored anywhere in memory, gathered once per
   step into a scratch buffer.  Each [fresh] makes its own: executions
   run on several domains at once, so a shared buffer would race. *)
type stored = { mutable vals : int array; mutable len : int }

let stored () = { vals = Array.make 16 0; len = 0 }

let gather s v =
  let regs = View.registers v in
  if Array.length s.vals < regs then s.vals <- Array.make (2 * regs) 0;
  s.len <- 0;
  for l = 0 to regs - 1 do
    match View.contents v l with
    | Some x ->
      s.vals.(s.len) <- x;
      s.len <- s.len + 1
    | None -> ()
  done

let is_stored s x =
  let found = ref false and i = ref 0 in
  while (not !found) && !i < s.len do
    found := s.vals.(!i) = x;
    incr i
  done;
  !found

(* The live pid with the highest-probability pending write of a value
   not currently in memory (the lowest such pid on ties), or -1.  One
   pass, no allocation. *)
let best_overwriter s v =
  let best = ref (-1) and best_p = ref 0.0 in
  if s.len > 0 then
    for pid = 0 to View.n v - 1 do
      if View.is_live v pid
         && (match View.kind v pid with
             | Op.Write_op | Op.Prob_write_op -> true
             | Op.Read_op | Op.Collect_op -> false)
         && not (is_stored s (View.value v pid))
      then begin
        let p = View.prob v pid in
        if !best < 0 || p > !best_p then begin
          best := pid;
          best_p := p
        end
      end
    done;
  !best

let overwrite_attacker =
  location_oblivious "overwrite_attacker" (fun ~n:_ _rng ->
    let cursor = ref 0 and s = stored () in
    fun v ->
      gather s v;
      let pid = best_overwriter s v in
      if pid >= 0 then pid else cycle cursor v)

(* The first live pid pending a plain read, or -1. *)
let first_reader v =
  let pid = ref (-1) and k = ref 0 in
  while !pid < 0 && !k < View.readers v do
    let p = View.nth_reader v !k in
    if View.kind v p = Op.Read_op then pid := p;
    incr k
  done;
  !pid

let adaptive_overwriter =
  adaptive "adaptive_overwriter" (fun ~n:_ _rng ->
    (* Tries to split the readers: once some register is non-empty,
       alternate between letting one pending reader observe the current
       value and scheduling the conflicting pending writer most likely
       to overwrite it, so that successive readers see different
       values.  An adaptive adversary may do this because it sees both
       register contents and pending-write values/locations; Theorem 7
       makes no promise against it. *)
    let cursor = ref 0 and s = stored () in
    let let_reader_go = ref true in
    fun v ->
      gather s v;
      let choice =
        if s.len = 0 then -1
        else begin
          let pid =
            if !let_reader_go then
              let r = first_reader v in
              if r >= 0 then r else best_overwriter s v
            else
              let w = best_overwriter s v in
              if w >= 0 then w else first_reader v
          in
          let_reader_go := not !let_reader_go;
          pid
        end
      in
      if choice >= 0 then choice else cycle cursor v)

(* The best live pid under the strict order [better], the lowest on
   ties: one pass. *)
let best_live v better =
  let best = ref (View.nth v 0) in
  for pid = !best + 1 to View.n v - 1 do
    if View.is_live v pid && better pid !best then best := pid
  done;
  !best

let noisy ?(jitter = 0.3) () =
  oblivious "noisy" (fun ~n rng ->
    (* vtime.(p) is process p's next planned step time; each executed
       step adds 1 plus accumulated random error, as in the noisy
       scheduling model of Aspnes [5]. *)
    let vtime = Array.init n (fun _ -> Rng.float rng) in
    let earlier p q = vtime.(p) < vtime.(q) in
    fun v ->
      let pid = best_live v earlier in
      vtime.(pid) <- vtime.(pid) +. 1.0 +. (Rng.exponential rng (1.0 /. jitter) -. jitter);
      pid)

let priority ?priorities () =
  oblivious "priority" (fun ~n rng ->
    let prio =
      match priorities with
      | Some p -> Array.copy p
      | None ->
        ignore (Rng.bits64 rng);
        Array.init n Fun.id
    in
    let higher p q = prio.(p) > prio.(q) in
    fun v -> best_live v higher)

let all_weak () =
  [ round_robin; random_uniform; fixed_permutation (); write_stalker; overwrite_attacker ]

let by_name = function
  | "round_robin" -> round_robin
  | "random_uniform" -> random_uniform
  | "fixed_permutation" -> fixed_permutation ()
  | "write_stalker" -> write_stalker
  | "overwrite_attacker" -> overwrite_attacker
  | "adaptive_overwriter" -> adaptive_overwriter
  | "noisy" -> noisy ()
  | "priority" -> priority ()
  | _ -> raise Not_found
