(** The worker timeline of [agp trace] — the debugging view of §4.4
    ("a pure software runtime is provided to help programmers debug
    applications").

    A {!t} folds a software runtime's task events through
    {!Lifecycle}'s walk as the run emits them ({!sink} is a
    {!Sink.tap}): it keeps the worker occupancies that start within the
    first [ticks] scheduler ticks, with the task's well-order index, and
    per task set the number of occupancies each ending closed.  Memory
    therefore follows the live tasks and the rendered window, not the
    run's length, and the summary covers the whole run. *)

type t

val create : ticks:int -> t
(** A fold that renders the first [ticks] ticks. *)

val sink : t -> Sink.t
(** The tap to hand the run. *)

val render : t -> string
(** ASCII worker-per-row timeline of the first [ticks] ticks: each cell
    is the index of the task that occupied the worker, with [*] marking
    a squash and [~] a rendezvous stall. *)

val summary : t -> (string * int * int * int * int) list
(** Per task set, by name: (set, committed, aborted, retried,
    rendezvous stalls), counted over the whole run. *)
