(** Differential conformance of backends against the sequential oracle.

    The §4.1 correctness criterion — a parallelized execution is
    correct exactly when its result is equivalent to the sequential
    one — becomes a registry-driven gate: for an app and a backend,
    {!check} runs the oracle and the backend on independent fresh
    instances and compares (a) the substrate verdicts ([check ()]) and
    (b), for result-deterministic apps, the final committed state
    word-for-word ({!Agp_core.State.diff}).

    Failures are typed so liveness bugs (deadlock, step-limit), result
    corruption, state divergence and plain crashes are distinguishable
    — the scattered per-experiment assertions of the test suite, made
    systematic over [Backend.all x apps]. *)

type failure =
  | Unsupported of string  (** backend cannot execute this app *)
  | Oracle_failed of string
      (** the sequential oracle itself failed its substrate check — the
          workload (not the backend) is broken *)
  | Check_failed of string  (** backend ran but its result is invalid *)
  | State_mismatch of string list
      (** substrate checks passed but the final state differs from the
          oracle's (only tested when [state_equiv] is requested) *)
  | Liveness of string  (** typed deadlock / step-limit from the runtime *)
  | Crash of string  (** any other exception *)

val failure_to_string : failure -> string

type row = {
  row_app : string;
  row_backend : string;
  outcome : (unit, failure) result;
}

val check :
  ?state_equiv:bool ->
  Backend.t ->
  Agp_apps.App_instance.t ->
  (unit, failure) result
(** One differential run.  [state_equiv] (default false) additionally
    requires bit-identical final state vs. the oracle — enable it only
    for apps whose answer is unique (BFS levels, SSSP distances);
    result-nondeterministic apps (DMR meshes, MST tie-breaks, LU float
    association) are covered by the substrate verdict alone. *)

val mutating : Backend.t list -> Backend.t list
(** The state-mutating subset ([capabilities.validates]) — the backends
    the differential property quantifies over. *)

val matrix_backends : unit -> Backend.t list
(** The canonical backends-under-test set: every validating backend of
    [Backend.all].  Registering a validating backend opts it into
    conformance automatically — there is no separate list to keep in
    sync. *)

val missing_from : row list -> Backend.t list
(** Validating backends of [Backend.all] that appear in no row — the
    CI assertion that nothing silently opted out of the matrix.  Empty
    on a complete run. *)

val matrix :
  ?state_equiv:(Agp_apps.App_instance.t -> bool) ->
  backends:Backend.t list ->
  Agp_apps.App_instance.t list ->
  row list
(** Every app x every given backend.  Unsupported pairs produce an
    [Error (Unsupported _)] row rather than being skipped silently. *)

val failing : row list -> row list
(** Rows whose outcome is an error, except [Unsupported] ones (a
    timing model honestly declining an app is not a conformance
    failure). *)

val render : row list -> string
(** Table: app x backend -> ok / failure summary. *)
