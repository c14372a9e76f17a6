type config = { queue_depth : int; shed_watermark : int; tenant_quota : int }

let default_config = { queue_depth = 256; shed_watermark = 256; tenant_quota = 64 }

type 'a t = {
  config : config;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable queue : (string * 'a) list;  (* oldest first *)
  mutable qlen : int;
  tenants : (string, int) Hashtbl.t;  (* in-flight per tenant *)
  mutable inflight : int;
  mutable closed : bool;
}

let create config =
  let config =
    { config with shed_watermark = min config.shed_watermark config.queue_depth }
  in
  {
    config;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    queue = [];
    qlen = 0;
    tenants = Hashtbl.create 16;
    inflight = 0;
    closed = false;
  }

let tenant_load t tenant = Option.value ~default:0 (Hashtbl.find_opt t.tenants tenant)

let submit t ~tenant x =
  Mutex.protect t.mutex (fun () ->
      if t.closed then Error Protocol.Draining
      else
        let load = tenant_load t tenant in
        if load >= t.config.tenant_quota then
          Error
            (Protocol.Quota_exceeded
               { tenant; in_flight = load; quota = t.config.tenant_quota })
        else if t.qlen >= t.config.shed_watermark then
          Error
            (Protocol.Queue_full
               { depth = t.qlen; watermark = t.config.shed_watermark })
        else begin
          t.queue <- t.queue @ [ (tenant, x) ];
          t.qlen <- t.qlen + 1;
          Hashtbl.replace t.tenants tenant (load + 1);
          t.inflight <- t.inflight + 1;
          Condition.signal t.nonempty;
          Ok ()
        end)

let take_batch t ~max ~compatible =
  if max < 1 then invalid_arg "Admission.take_batch: max < 1";
  Mutex.protect t.mutex (fun () ->
      while t.qlen = 0 && not t.closed do
        Condition.wait t.nonempty t.mutex
      done;
      match t.queue with
      | [] -> []  (* closed and drained *)
      | (_, head) :: rest ->
          let taken = ref [ head ] and kept = ref [] and count = ref 1 in
          List.iter
            (fun ((_, x) as entry) ->
              if !count < max && compatible head x then begin
                taken := x :: !taken;
                incr count
              end
              else kept := entry :: !kept)
            rest;
          t.queue <- List.rev !kept;
          t.qlen <- t.qlen - !count;
          List.rev !taken)

let finish t ~tenant =
  Mutex.protect t.mutex (fun () ->
      (match Hashtbl.find_opt t.tenants tenant with
      | Some n when n > 1 -> Hashtbl.replace t.tenants tenant (n - 1)
      | Some _ -> Hashtbl.remove t.tenants tenant
      | None -> ());
      if t.inflight > 0 then t.inflight <- t.inflight - 1)

let depth t = Mutex.protect t.mutex (fun () -> t.qlen)
let in_flight t = Mutex.protect t.mutex (fun () -> t.inflight)

let close t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
