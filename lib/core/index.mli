(** Well-order indices over the task domain (paper §4.1).

    With [s] task sets declared, every task carries an [s]-tuple of
    non-negative integers compared lexicographically.  Slot [k]
    corresponds to task set [k] in declaration order; for-each sets
    stamp a fresh counter value into their slot, for-all sets stamp 0
    (so all siblings tie), and a child inherits its parent's slots to
    the left of its own.  Sequential execution (Definition 4.3) always
    runs the minimum active index. *)

type t

val of_array : int array -> t

val to_array : t -> int array

val compare : t -> t -> int
(** Lexicographic. *)

val equal : t -> t -> bool

val child : parent:t -> slot:int -> stamp:int -> t
(** Index for a task pushed into set [slot]: slots left of [slot] are
    inherited from the parent, [slot] itself gets [stamp], and slots to
    the right are reset to 0. *)

val slot : t -> int -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
