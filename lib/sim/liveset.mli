(** A mutable subset of the pids [0 .. n-1], kept in ascending order.

    A membership bitmap plus a Fenwick tree over the same bits: the
    size is O(1), membership O(1), and the order statistics the
    schedulers need — select ({!nth}) and the cyclic successor
    ({!next_from}) — are O(log n), with no allocation after {!create}.
    The {!Machine} keeps one over its live pids and the {!Scheduler} one
    over its live readers, so that an adversary's per-step cost does not
    grow with a copy of the enabled set. *)

type t

val create : int -> t
(** [create n] is the empty subset of [0 .. n-1]. *)

val count : t -> int
(** Number of members. *)

val mem : t -> int -> bool

val add : t -> int -> unit
(** O(log n); a no-op when already a member. *)

val remove : t -> int -> unit
(** O(log n); a no-op when not a member. *)

val fill : t -> (int -> bool) -> unit
(** [fill t f] resets [t] to [{ pid | f pid }] in O(n). *)

val nth : t -> int -> int
(** [nth t k] is the [k]-th smallest member ([0 <= k < count t]);
    raises [Invalid_argument] otherwise. *)

val next_from : t -> int -> int
(** [next_from t start] is the first member at or cyclically after
    [start mod n] (for any [start], negative included).  Raises
    [Invalid_argument] when [t] is empty. *)
