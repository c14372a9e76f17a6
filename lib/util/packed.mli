(** Int arrays stored in 32 bits per element.

    A fixed-length array of ints in the signed 32-bit range, packed
    four bytes each into one [Bytes] block: half the words of an
    [int array], and no scan by the GC.  The CSR columns of every
    generated graph live in this form ({!Agp_graph.Csr}), and runs
    borrow them read-only through [Agp_core.State].  Every write checks
    its value's range, so a packed array holds exactly the ints it was
    given. *)

type t
(** Structural equality compares lengths and elements. *)

val create : int -> t
(** [create n] is [n] zeros.  @raise Invalid_argument when [n < 0]. *)

val empty : t
(** The array of length 0. *)

val length : t -> int

val fits : int -> bool
(** [fits x] holds when [-2{^31} <= x < 2{^31}]. *)

val get : t -> int -> int
(** @raise Invalid_argument ["index out of bounds"] outside [0 .. length-1]. *)

val set : t -> int -> int -> unit
(** @raise Invalid_argument ["index out of bounds"] outside
    [0 .. length-1], or ["Packed: value out of the 32-bit range"]
    when the value does not {!fits}. *)

val of_array : int array -> t
(** @raise Invalid_argument when an element does not {!fits}. *)

val to_array : t -> int array
(** A fresh [int array] of the same elements. *)

(** {1 Inline access}

    {!get} and {!set} are calls, which a caller in another library does
    not inline (dune's dev profile compiles with [-opaque]).  These two
    primitives are the checked byte accesses behind them, which the
    compiler inlines at every call site, for the hot readers and
    writers of other modules: the ECA core's loads, [Csr]'s per-arc
    readers and the lattice generators. *)

external get32 : t -> int -> int32 = "%caml_bytes_get32"
(** [Int32.to_int (get32 a (4 * i))] is element [i].  It raises
    [Invalid_argument] on a byte offset outside the array, which for
    [0 <= i < 2{^60}] is exactly an [i] outside [0 .. length-1]; a
    reader checks [i] itself to report its own error or to rule out
    [4 * i] wrapping. *)

external set32 : t -> int -> int32 -> unit = "%caml_bytes_set32"
(** [set32 a (4 * i) (Int32.of_int x)] writes element [i], checked like
    {!get32}.  [Int32.of_int] keeps only [x]'s low 32 bits, so a writer
    uses it only for values it has bounded by a check of its own (as
    the generators bound vertex ids and arc offsets by
    [Csr.require_fits]); every other write goes through {!set}. *)
