(** Adversary views of the execution state.

    The strength of an adversary is defined by what it can observe when
    choosing the next process to move (§2.1).  A view is a read-only
    window onto the scheduler's live state — nothing is copied per step
    — and its type carries the set of things the class may observe.
    Each accessor below demands the capability it reveals, so it is a
    type error, not merely a convention, for an oblivious adversary to
    inspect register contents or for a location-oblivious one to ask
    where a pending write lands.

    One deliberate deviation, documented here and tested: every view
    includes the set of {e live} processes (those that have not yet
    returned or crashed), because a scheduler must not stall on a
    halted process.  This is the standard convention — a fixed-order
    oblivious schedule simply skips halted processes.

    The accessors of a pending operation ({!kind}, {!loc}, {!value},
    {!prob}) expect a live pid and raise [Invalid_argument] otherwise. *)

type 'c t
(** A window whose phantom row ['c] lists what it may reveal:
    [`Live] (time and liveness), [`Counts] (per-pid work), [`Kind],
    [`Loc], [`Value] and [`Prob] (of each pending operation),
    [`Contents] (register contents) and [`Full] (the raw descriptors
    and store). *)

type oblivious = [ `Live ] t
(** Nothing but time and liveness. *)

type value_oblivious = [ `Live | `Counts | `Kind | `Loc | `Prob ] t
(** Value-oblivious (§2.1, used by Aumann etc.): operation types,
    target locations and write probabilities, but neither register
    contents nor the values of pending writes. *)

type location_oblivious = [ `Live | `Counts | `Kind | `Value | `Prob | `Contents ] t
(** Location-oblivious (§2.1, the class that justifies probabilistic
    writes): memory contents and pending write values and
    probabilities, but not which register a pending write targets. *)

type full = [ `Live | `Counts | `Kind | `Loc | `Value | `Prob | `Contents | `Full ] t
(** Adaptive: everything. *)

val make :
  n:int ->
  step:(unit -> int) ->
  live:Liveset.t ->
  readers:Liveset.t ->
  pending:Op.any option array ->
  memory:Memory.t ->
  op_counts:Metrics.counts ->
  full
(** A window onto live state, built once per execution: [step] reads
    the current step count, [live] holds the pids with a pending
    operation and [readers] those of them whose pending operation is a
    read or a collect ({!Op.is_read}); [pending], [memory] and
    [op_counts] are the scheduler's own.  The caller keeps all of them
    consistent. *)

external to_oblivious : full -> oblivious = "%identity"
external to_value_oblivious : full -> value_oblivious = "%identity"
external to_location_oblivious : full -> location_oblivious = "%identity"
(** Projections: the same window behind a narrower type. *)

(** {1 Time and liveness (every class)} *)

val step : _ t -> int
(** Operations executed so far. *)

val n : _ t -> int
(** Number of processes. *)

val live : _ t -> int
(** Number of live processes. *)

val is_live : _ t -> int -> bool

val nth : _ t -> int -> int
(** [nth v k] is the [k]-th live pid in ascending order, O(log n). *)

val next_from : _ t -> int -> int
(** The first live pid at or cyclically after [start mod n], O(log n). *)

(** {1 Pending operations} *)

val kind : [> `Kind ] t -> int -> Op.kind

val readers : [> `Kind ] t -> int
(** Number of live pids whose pending operation is a read or a
    collect. *)

val nth_reader : [> `Kind ] t -> int -> int
(** The [k]-th such pid in ascending order, O(log n). *)

val loc : [> `Loc ] t -> int -> Memory.loc
(** The register a pending operation targets (the base of a collect). *)

val value : [> `Value ] t -> int -> int
(** The value a pending write carries; raises [Invalid_argument] when
    the pending operation is not a write. *)

val prob : [> `Prob ] t -> int -> float
(** The probability that a pending operation takes effect: [p] for a
    probabilistic write, [1.0] for every other operation. *)

(** {1 Work and memory} *)

val op_count : [> `Counts ] t -> int -> int
(** Operations executed so far by a pid (live or not). *)

val registers : [> `Contents ] t -> int
(** Registers allocated so far. *)

val contents : [> `Contents ] t -> Memory.loc -> int option
(** Current contents of a register ([None] = ⊥). *)

val pending : [> `Full ] t -> int -> Op.any option
(** The raw pending descriptor of any pid ([None] = halted). *)

val memory : [> `Full ] t -> Memory.t
