(** Declarative experiment campaigns.

    A grid names a seed, a list of workloads, and a list of mechanism
    points (a registered mechanism name plus string parameters). Its
    cells are the full cross product — one simulated run per
    (workload, mechanism point) — which {!Runner} executes, serially or
    fanned out over domains, with identical results either way.

    Mechanism points are built programmatically ({!mech}, {!axes}) or
    parsed from a grid file ({!of_file}):

    {v
    # Table 4: UTLB vs the interrupt baseline across cache sizes.
    name table4
    seed 42
    workloads fft lu barnes radix raytrace volrend water
    mechanism utlb entries=1024,2048,4096,8192,16384
    mechanism intr entries=1024,2048,4096,8192,16384
    v}

    [workloads] tokens name the calibrated generators (optionally
    [name@factor] for a {!Utlb_trace.Workloads.scaled} variant);
    [mechanism] lines cross-multiply their [key=v1,v2,...] axes. *)

type mech = {
  mech_name : string;  (** A {!Utlb.Sim_driver.Registry} name. *)
  params : (string * string) list;  (** Ordered [key, value] pairs. *)
}

type t = {
  name : string;
  seed : int64;  (** Drives trace generation and per-cell engine RNGs. *)
  workloads : Utlb_trace.Workloads.spec list;
  mechanisms : mech list;
  tenants : string option;
      (** Grid-level tenancy spec in the {!Utlb_tenant.Tenant.of_string}
          grammar, applied to every cell unless overridden by a
          [tenants=] mechanism parameter; [None] runs untenanted. *)
}

val mech : ?params:(string * string) list -> string -> mech

val axes : string -> (string * string list) list -> mech list
(** [axes name [(k1, vs1); (k2, vs2); ...]] is the cross product of the
    axis values, first axis outermost — e.g.
    [axes "utlb" [("entries", ["1024"; "8192"])]] is two mechanism
    points. An empty axis list yields the single default point. *)

val mech_label : mech -> string
(** ["utlb\[entries=1024,assoc=2-way\]"] — stable cell naming for
    reports and emitters; just the name when there are no params. *)

type cell = {
  index : int;  (** Position in {!cells} order; seeds derive from it. *)
  workload : Utlb_trace.Workloads.spec;
  mech : mech;
}

val cells : t -> cell list
(** Workloads outermost, mechanism points innermost; indices are
    sequential from 0. The order is part of the campaign's identity:
    emitted results always appear in it, however many domains ran the
    cells. *)

val cell_seed : t -> cell -> int64
(** The cell's private engine seed: a splitmix-style mix of the grid
    seed and the cell index, so no two cells share RNG state and a
    parallel run is byte-identical to a serial one. *)

val param : cell -> string -> string option
(** Look up one mechanism parameter of the cell. *)

val resolve :
  t ->
  mech ->
  (Utlb.Sim_driver.packed * Utlb_tenant.Tenant.config option, string) result
(** The engine and tenancy of one mechanism point: the one resolver the
    runner, [utlbcheck] and [utlbsim sweep --slo] share. The engine
    comes from {!Utlb.Sim_driver.Registry.resolve} (the [tenants]
    parameter removed); the tenancy from the point's [tenants=]
    parameter when present (so one grid can sweep partitioning modes
    as an axis), otherwise the grid-level [tenants] directive; [None]
    runs untenanted. [Error] names an unregistered mechanism, a
    malformed parameter, a config the engine refuses, or a malformed
    tenants spec. *)

val of_string : ?name:string -> string -> (t, string) result
(** Parse the grid-file syntax above. Lines are [key tokens...];
    [#] starts a comment. Unknown workloads, unregistered mechanisms,
    mechanism points the registry refuses (a config the engine would
    not create, a malformed parameter) and malformed lines are errors
    naming the line number. *)

val of_file : string -> (t, string) result
(** {!of_string} on the file's contents; the default campaign name is
    the file's basename without extension. *)
