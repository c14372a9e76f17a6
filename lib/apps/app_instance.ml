type run = {
  state : Agp_core.State.t;
  bindings : Agp_core.Spec.bindings;
  initial : (string * Agp_core.Value.t list) list;
  check : unit -> (unit, string) result;
}

type t = {
  app_name : string;
  spec : Agp_core.Spec.t;
  fresh : unit -> run;
  kernel_flops : (string * int) list;
  fpga_ilp : int;
  sw_task_overhead : int;
  cpu_flops_per_cycle : float;
  fpga_mlp : int;
  graph_source : (Agp_graph.Csr.t * int) option;
}

let add_input spec state name a =
  if Agp_core.Spec.may_write spec name then
    Agp_core.State.add_int_array state name (Agp_util.Packed.to_array a)
  else Agp_core.State.add_packed_array state name a
