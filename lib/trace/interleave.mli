(** Merging per-process access streams into one node trace.

    Shared by {!Workloads} and {!Pattern}: streams are interleaved by
    drawing the next record from a process chosen with probability
    proportional to its remaining length (mirroring how the paper's
    timestamp-serialised SMP traces mix), and a protocol process
    mirrors a fraction of accesses at the same virtual pages. *)

type stream
(** One process's accesses in issue order, in growable parallel arrays
    (no per-access allocation). *)

val stream : int -> stream
(** An empty stream with room for that many accesses before it grows. *)

val push : stream -> vpn:int -> npages:int -> op:Record.op -> unit

val merge :
  Utlb_sim.Rng.t ->
  mirror_fraction:float ->
  mirror_npages:int ->
  protocol_pid:Utlb_mem.Pid.t ->
  stream array ->
  Trace.t
(** Streams are indexed by pid (0..n-1). The records are built in time
    order, so the trace is not sorted again. *)
