(** Growable arrays.

    A thin dynamic-array abstraction used throughout the simulators for
    worklists, logs and adjacency construction. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty vector. *)

val make : int -> 'a -> 'a t
(** [make n x] is a vector of [n] copies of [x]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** Bounds-checked read. *)

val set : 'a t -> int -> 'a -> unit
(** Bounds-checked write. *)

val push : 'a t -> 'a -> unit
(** Append one element, growing geometrically. *)

val pop : 'a t -> 'a
(** Remove and return the last element.  @raise Invalid_argument if empty. *)

val last : 'a t -> 'a
(** Last element without removal. *)

val clear : 'a t -> unit
(** Logical reset; capacity is retained. *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array

val to_list : 'a t -> 'a list

val of_array : 'a array -> 'a t

val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live prefix. *)
