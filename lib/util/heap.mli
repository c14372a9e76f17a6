(** Binary min-heaps with a caller-supplied ordering. *)

type 'a t

val create : ('a -> 'a -> int) -> 'a t
(** [create cmp] is an empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val of_array : ('a -> 'a -> int) -> 'a array -> 'a t
(** Heapify in O(n). *)

val to_sorted_list : 'a t -> 'a list
(** Drains the heap; ascending order. *)
