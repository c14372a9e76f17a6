type outcome =
  | Commit
  | Abort
  | Retry

type t =
  | Task_dispatch of { set : string; pipe : int; tid : int; index : int array }
  | Task_finish of { set : string; pipe : int; tid : int; outcome : outcome }
  | Rendezvous_park of { set : string; pipe : int; tid : int }
  | Rendezvous_resume of { set : string; tid : int }
  | Queue_full of { set : string; pipe : int }
  | Cache_access of { addr : int; is_write : bool; hit : bool }
  | Link_transfer of { bytes : int; start : int; finish : int }

let outcome_name = function
  | Commit -> "commit"
  | Abort -> "abort"
  | Retry -> "retry"

let kind = function
  | Task_dispatch _ -> "task_dispatch"
  | Task_finish _ -> "task_finish"
  | Rendezvous_park _ -> "rendezvous_park"
  | Rendezvous_resume _ -> "rendezvous_resume"
  | Queue_full _ -> "queue_full"
  | Cache_access _ -> "cache_access"
  | Link_transfer _ -> "link_transfer"
