type window = {
  n : int;
  step : unit -> int;
  live : Liveset.t;
  readers : Liveset.t;
  pending : Op.any option array;
  memory : Memory.t;
  op_counts : Metrics.counts;
}

type 'c t = window
type oblivious = [ `Live ] t
type value_oblivious = [ `Live | `Counts | `Kind | `Loc | `Prob ] t
type location_oblivious = [ `Live | `Counts | `Kind | `Value | `Prob | `Contents ] t
type full = [ `Live | `Counts | `Kind | `Loc | `Value | `Prob | `Contents | `Full ] t

let make ~n ~step ~live ~readers ~pending ~memory ~op_counts =
  { n; step; live; readers; pending; memory; op_counts }

external to_oblivious : full -> oblivious = "%identity"
external to_value_oblivious : full -> value_oblivious = "%identity"
external to_location_oblivious : full -> location_oblivious = "%identity"

let step v = v.step ()
let n v = v.n
let live v = Liveset.count v.live
let is_live v pid = Liveset.mem v.live pid
let nth v k = Liveset.nth v.live k
let next_from v start = Liveset.next_from v.live start

let op v pid =
  match v.pending.(pid) with
  | Some any -> any
  | None -> invalid_arg "View: pid is not live"
[@@inline]

let kind v pid = Op.kind (op v pid)
let readers v = Liveset.count v.readers
let nth_reader v k = Liveset.nth v.readers k
let loc v pid = Op.loc (op v pid)

let value v pid =
  let (Op.Any o) = op v pid in
  match o with
  | Op.Write (_, x) -> x
  | Op.Prob_write (_, x, _) -> x
  | Op.Prob_write_detect (_, x, _) -> x
  | Op.Read _ | Op.Collect _ -> invalid_arg "View.value: pending operation is not a write"

let prob v pid =
  let (Op.Any o) = op v pid in
  match o with
  | Op.Prob_write (_, _, p) | Op.Prob_write_detect (_, _, p) -> p
  | Op.Read _ | Op.Write _ | Op.Collect _ -> 1.0

let op_count v pid = Metrics.count v.op_counts pid
let registers v = Memory.size v.memory
let contents v l = Memory.read v.memory l
let pending v pid = v.pending.(pid)
let memory v = v.memory
