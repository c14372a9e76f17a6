(** Program state Σ: named memory arrays plus the access stream of prim
    kernels.

    Both software runtimes and the hardware simulator execute task
    bodies against this structure.  Arrays are laid out at consecutive
    byte ranges in registration order, 8 bytes per element, so a timing
    shell can replay accesses against a flat cache model: {!base} gives
    an array's first byte.  A compiled load or store reports what it
    touched through [Engine.view]; a prim kernel, whose accesses the
    engine cannot see, reports them through {!touch}, which while the
    state is tracing appends the byte address and a write bit to one
    flat int stream. *)

type data
(** An array's contents, int or float. *)

type t

val create : unit -> t

val add_int_array : t -> string -> int array -> unit
(** Register an integer array under a name (the array is shared, not
    copied — substrates keep mutating visibility).
    @raise Invalid_argument on duplicate names. *)

val add_float_array : t -> string -> float array -> unit

val has_array : t -> string -> bool

val base : t -> string -> int
(** Byte address of the array's element 0.
    @raise Invalid_argument on an unknown name. *)

val read : t -> string -> int -> Value.t
(** Bounds-checked load; records nothing. *)

val write : t -> string -> int -> Value.t -> unit
(** Bounds-checked store, value kind must match the array; records
    nothing. *)

val touch : t -> string -> int -> bool -> unit
(** [touch t name index is_write] appends the access to element [index]
    of [name] to the stream while [t] is tracing, and does nothing
    otherwise.  Prim implementations call it for the accesses their
    kernel makes, including ones to data structures that live outside
    Σ (e.g. the DMR mesh), without moving data.  Allocates only when the
    stream's buffer doubles.
    @raise Invalid_argument on an unknown name while tracing. *)

val int_array : t -> string -> int array
(** Direct handle for result extraction and prim kernels (unrecorded). *)

val float_array : t -> string -> float array

val with_tracing : t -> (unit -> 'a) -> 'a
(** [with_tracing t f] runs [f] with tracing on; on every exit, an
    exception included, it restores the previous setting and clears the
    stream.  Tracing starts off. *)

(** {1 The access stream}, oldest first, indexed from 0 *)

val trace_length : t -> int

val trace_addr : t -> int -> int
(** The byte address of access [i], for [i] below {!trace_length}. *)

val trace_is_write : t -> int -> bool

val clear_trace : t -> unit

val snapshot : t -> t
(** Deep copy (stream not copied, tracing off). *)

val equal_content : t -> t -> bool
(** Same arrays with same contents (stream ignored). *)

val diff : t -> t -> string list
(** Human-readable differences, for test failure messages. *)
