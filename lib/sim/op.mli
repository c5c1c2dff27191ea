(** Shared-memory operations.

    One value of type {!t} is one unit of work in the paper's complexity
    measures (total work / individual work).  Local computation and
    local coin flips are free, exactly as in the model of §2.

    Two operations go beyond plain atomic registers:

    - [Prob_write (r, v, p)] is the probabilistic write of the
      probabilistic-write model (§2.1): when the scheduler executes it,
      a coin that the adversary can neither observe nor influence lands
      heads with probability [p], and only then is [v] stored in [r].
      The operation costs one unit whether or not the write lands, and
      the caller learns nothing about the outcome.
    - [Prob_write_detect] is the variant from footnote 2 of the paper in
      which the process {e does} learn whether its write landed; the
      paper notes this shaves 2 operations off the conciliator's
      individual work.
    - [Collect (base, len)] reads [len] consecutive registers in one
      unit of work.  It exists only to model the "cheap-collect" variant
      of §6.2(4) and is rejected by the scheduler unless the cheap-collect
      model is explicitly enabled. *)

type prob = float

type 'a t =
  | Read : Memory.loc -> int option t
  | Write : Memory.loc * int -> unit t
  | Prob_write : Memory.loc * int * prob -> unit t
  | Prob_write_detect : Memory.loc * int * prob -> bool t
  | Collect : Memory.loc * int -> int option array t

type any = Any : 'a t -> any
(** Existential wrapper used by views, traces and adversaries. *)

type kind = Read_op | Write_op | Prob_write_op | Collect_op

val kind : any -> kind
(** The operation's type, as visible to a value-oblivious adversary.
    Both probabilistic-write variants report [Prob_write_op]. *)

val loc : any -> Memory.loc
(** The register (or base register, for collects) the operation
    touches. *)

val value : any -> int option
(** The value a pending write would store; [None] for reads and
    collects. *)

val prob : any -> prob option
(** The success probability of a pending probabilistic write. *)

val is_write : any -> bool
(** Whether the operation can modify memory. *)

val is_read : any -> bool
(** Whether the operation observes memory: a read or a collect. *)

val to_sexp : any -> Sexp.t
val of_sexp : Sexp.t -> (any, string) result
(** Serialization for schedule artifacts: [of_sexp (to_sexp op)]
    reconstructs the operation exactly (floats round-trip). *)

val pp : Format.formatter -> any -> unit
