(** Program state Σ: named memory arrays plus an optional access trace.

    Both software runtimes and the hardware simulator execute task
    bodies against this structure; the simulator additionally drains the
    access trace to charge loads/stores through the modelled cache and
    QPI link.  Addresses are (array, element-index) pairs; the
    {!address_of} map gives each array a disjoint byte range so traces
    can be replayed against a flat cache model. *)

type data
(** An array's contents, int or float. *)

type access = {
  array_name : string;
  index : int;
  is_write : bool;
}

type t = private {
  arrays : (string, data) Hashtbl.t;
  order : string Agp_util.Vec.t;  (** registration order, for layout and diffing *)
  mutable tracing : bool;
      (** Whether loads, stores and {!touch} record into [trace].
          Exposed so a hot path can test it inline (a field read, where a
          call across modules does not inline under dune's dev profile)
          before calling {!touch}; set it with {!set_tracing}. *)
  trace : access Agp_util.Vec.t;
}
(** Read the fields, never write through them: [arrays], [order] and
    [trace] belong to this module. *)

val create : unit -> t

val add_int_array : t -> string -> int array -> unit
(** Register an integer array under a name (the array is shared, not
    copied — substrates keep mutating visibility).
    @raise Invalid_argument on duplicate names. *)

val add_float_array : t -> string -> float array -> unit

val has_array : t -> string -> bool

val array_length : t -> string -> int

val read : t -> string -> int -> Value.t
(** Traced bounds-checked load. *)

val write : t -> string -> int -> Value.t -> unit
(** Traced bounds-checked store; value kind must match the array. *)

val touch : t -> string -> int -> bool -> unit
(** Record a synthetic access (used by [Prim] implementations whose data
    structures live outside Σ, e.g. the DMR mesh) without moving data. *)

val int_array : t -> string -> int array
(** Direct handle for result extraction (untraced). *)

val float_array : t -> string -> float array

val set_tracing : t -> bool -> unit
(** Tracing starts disabled. *)

val drain_trace : t -> access list
(** Return and clear accumulated accesses (oldest first). *)

val address_of : t -> string -> int -> int
(** Flat byte address of an element: arrays are laid out consecutively
    in registration order, 8 bytes per element. *)

val snapshot : t -> t
(** Deep copy (trace not copied, tracing off). *)

val equal_content : t -> t -> bool
(** Same arrays with same contents (trace ignored). *)

val diff : t -> t -> string list
(** Human-readable differences, for test failure messages. *)
