(** Trace-driven simulation driver (Section 6).

    Replays a node trace through a translation mechanism and returns the
    accumulated {!Report.t}. This is the engine behind every row of
    Tables 4, 5, 7, 8 and both figures.

    Dispatch is over {!Engine_intf.packed} first-class modules, the only
    way to name an engine: any module satisfying {!Engine_intf.S} runs
    through {!run_packed} — and, once registered with {!Registry},
    through every campaign grid, [utlbsim sweep] invocation, bench
    table and VMMC cluster without touching this driver. Build a
    [packed] value directly ([Packed ((module Hier_engine), config)])
    or from a mechanism spec with {!Registry.resolve}. *)

type packed = Engine_intf.packed =
  | Packed : (module Engine_intf.S with type config = 'c) * 'c -> packed
      (** An engine module bundled with a configuration to create it. *)

val mechanism_name : packed -> string
(** The packed engine's stable name (["utlb"], ["intr"], ...). *)

val stepper : packed -> Stepper.semantics
(** The packed engine's pin-protocol model ({!Engine_intf.S.stepper}):
    the one model every checker runs on. *)

val default_seed : int64

val load_trace_lenient : in_channel -> Utlb_trace.Trace.t * int
(** {!Utlb_trace.Trace.load_lenient} with each skipped record logged
    as a warning on the ["utlb.driver"] [Logs] source. Returns the
    trace and the skip count (pass it to [run_packed]'s
    [?records_skipped] so the report remembers). *)

val run_packed :
  ?seed:int64 ->
  ?sanitizer:Utlb_sim.Sanitizer.t ->
  ?obs:Utlb_obs.Scope.t ->
  ?faults:Utlb_fault.Injector.t ->
  ?tenancy:Utlb_tenant.Arbiter.t ->
  ?records_skipped:int ->
  ?label:string ->
  packed ->
  Utlb_trace.Trace.t ->
  Report.t
(** [run_packed packed trace] replays every record in timestamp order
    through a fresh engine. The default label is the mechanism name.
    With [sanitizer], the engine shadows its execution with invariant
    checks and a full sweep ([run_invariants]) runs after the last
    record. With [obs], the driver ticks the scope once per record
    (emitting one [Lookup] event each) and the engine emits its
    internal events through it; the final lookup is closed with
    {!Utlb_obs.Scope.finish} before the report is taken. With
    [faults], the engine rolls the injector on the fault points it
    implements (an injector over an empty plan changes nothing). With
    [tenancy], the engine enforces per-tenant quotas and cache windows
    and the report carries the per-tenant [isolation] breakdown.
    [records_skipped] (default 0, typically from
    {!load_trace_lenient}) is added to the report's
    [records_skipped]. *)

val run_workload :
  ?seed:int64 ->
  ?sanitizer:Utlb_sim.Sanitizer.t ->
  ?obs:Utlb_obs.Scope.t ->
  ?faults:Utlb_fault.Injector.t ->
  ?tenancy:Utlb_tenant.Arbiter.t ->
  packed ->
  Utlb_trace.Workloads.spec ->
  Report.t
(** Generate the workload's trace (from the same seed) and replay it
    with {!run_packed}; the report is labelled with the workload
    name. *)

(** Registry of translation mechanisms by name.

    Each entry maps string parameters (the axes of a campaign grid, or
    [key=value] pairs from a grid file) to a packed engine. The
    built-in mechanisms (["utlb"], ["victima"], ["utopia"], ["intr"],
    ["per-process"]) register themselves when this module loads; new
    designs call {!Registry.register} once and become available to
    [Utlb_exp] campaigns, [utlbsim sweep]/[list], and the bench tables
    with no driver changes. Parameter constructors ignore keys they do
    not understand (so one grid can carry axes for several mechanisms)
    and raise [Invalid_argument] on malformed values and, through the
    engine's {!Engine_intf.S.validate}, on configurations its [create]
    would refuse. *)
module Registry : sig
  type entry = {
    name : string;  (** Lower-case registry key. *)
    doc : string;  (** One-line description incl. recognised params. *)
    of_params : (string * string) list -> packed;
  }

  val register :
    name:string ->
    doc:string ->
    ((string * string) list -> packed) ->
    unit
  (** The entry's [of_params] runs the engine's
      {!Engine_intf.S.validate} on every config it builds.
      @raise Invalid_argument if [name] is already taken. *)

  val find : string -> entry option
  (** Case-insensitive. *)

  val resolve :
    name:string -> params:(string * string) list -> (packed, string) result
  (** The one way from a mechanism spec to an engine: {!find} plus
      [of_params]. [Error] names an unregistered mechanism
      (["unregistered mechanism \"x\""]), a malformed parameter, or a
      config the engine refuses. *)

  val mechanisms : unit -> entry list
  (** All registered mechanisms, sorted by name. *)
end
