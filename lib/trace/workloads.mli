(** Synthetic per-node communication traces for the seven SPLASH-2
    applications of the paper's evaluation (Section 6.1, Table 3).

    The real traces came from instrumented VMMC runs of SPLASH-2 under a
    home-based SVM protocol on 4-way SMP nodes — five communicating
    processes per node (four application processes and one protocol
    process). Those traces are not available, so each generator
    synthesises a node's stream with:

    - the application's communication footprint and lookup count
      calibrated to Table 3;
    - an access structure matching the paper's description of the
      application (strided passes for FFT, paired blocked sweeps for LU,
      a locality walk over particle partitions for Barnes, sequential
      key reads plus recency-biased bucket writes for Radix, task-queue
      runs for Raytrace and Volrend, cyclic multi-page passes for
      Water); and
    - a protocol process (pid 4) that mirrors a fraction of application
      accesses at the same virtual pages — the SVM home/diff traffic
      that makes per-process cache-index offsetting matter (Table 8's
      direct vs direct-nohash gap).

    Generators are deterministic given a seed. *)

type spec = {
  name : string;  (** Lower-case application name, e.g. ["fft"]. *)
  problem_size : string;  (** Table 3's problem-size column. *)
  description : string;
  table3_footprint : int;  (** Paper's footprint, 4 KB pages. *)
  table3_lookups : int;  (** Paper's translation lookups per node. *)
  generate : seed:int64 -> Trace.t;
  rescale : float -> spec;
      (** Same access structure at a scaled problem size (footprint and
          lookup count multiplied); use {!scaled}. *)
}

val app_processes : int
(** 4 application processes per node. *)

val protocol_pid : Utlb_mem.Pid.t
(** Pid 4, the SVM protocol process. *)

val fft : spec

val lu : spec

val barnes : spec

val radix : spec

val raytrace : spec

val volrend : spec

val water : spec

val all : spec list
(** The seven applications in the paper's Table 3 order
    (FFT, LU, Barnes, Radix, Raytrace, Volrend, Water). *)

val interference : spec
(** The multi-tenant interference scenario: pid 0 is a latency-critical
    victim cycling a small hot working set, pids 1-3 are aggressors
    streaming footprints far larger than any evaluated NI cache (no
    protocol mirroring). Designed to be split into tenants — the
    victim's miss-rate variance collapses under strict partitioning. *)

val extras : spec list
(** Scenario-family workloads resolvable by {!find} but kept out of
    {!all}, so the paper-table campaigns and bench baselines that
    enumerate [all] are unaffected. *)

val find : string -> spec option
(** Case-insensitive lookup by name, over [all] and [extras]. *)

val scaled : spec -> factor:float -> spec
(** [scaled spec ~factor] is the workload with footprint and lookups
    multiplied by [factor] — for studying how the paper's results move
    with problem size beyond Table 3.
    @raise Invalid_argument if [factor] is NaN or not positive, if the
    scaled footprint or lookup count does not fit an int (an infinite
    factor included), or if the last process's partition would run past
    {!Utlb_mem.Page_table.max_vpn}. Each process's span is [footprint /
    app_processes] pages from [65536 + pid * 16384], and the generators
    size their streams by it, so a larger factor names pages no engine
    can translate and arrays no host can allocate: the ceiling is about
    345x for fft and 1,976x for water. *)

val custom :
  name:string ->
  ?problem_size:string ->
  ?description:string ->
  generate:(seed:int64 -> Trace.t) ->
  unit ->
  spec
(** Wrap any trace generator — e.g. a {!Pattern} instantiation or a
    {!scaled} spec under a distinguishing name — as a workload usable
    in campaign grids. Table-3 calibration columns are zero and the
    spec rejects {!scaled}. *)

val multiprogram : spec list -> spec
(** Independent applications timesharing one node — the behaviour the
    paper's traces could not capture ("they may not reveal certain
    behaviors that multiple independent programs have", Section 7).
    Each component keeps its own processes (pids renumbered into
    disjoint ranges) and virtual layout; their records interleave by
    timestamp. @raise Invalid_argument on an empty list. *)
