(** Step-level view of the pin protocol: the transition system that
    [utlbcheck explore] exhaustively enumerates.

    The whole-trace entry points of {!Engine_intf.S} execute a
    complete lookup — check, pin, publish, NI fetch, DMA — atomically,
    which is exactly the abstraction an interleaving explorer must
    {e not} take for granted. This module decomposes one communication
    request into the protocol's individual steps:

    {v
      issue -> [irq ->] pin -> publish   (per page, kernel side)
            -> fetch -> use              (per page, NI side; static
                                          tables skip the fetch)
            -> complete
    v}

    with background [unpin] (and, when the NI cache is full, [evict])
    actions interleaving freely. Each engine derives its semantics via
    {!Engine_intf.S.stepper}: the hierarchical UTLB (with or without a
    backstop) keeps translations in the host table (evictions are
    harmless), the
    interrupt baseline equates cached with pinned (evictions unpin),
    and the per-process tables skip the NI fetch but live under a
    static share.

    The state is a small immutable value whose collections are kept
    sorted, so structural equality is canonical equality — the
    explorer hashes states directly. [enabled] and [apply] are
    deterministic; all nondeterminism is the explorer's choice of
    which enabled action to fire.

    Violations surface in three places: at [issue] ({!admission},
    UP01-UP05, the rules {!Utlb_check.Protocol} also runs), at [apply]
    of a racing action (UP23), and at terminal states
    ({!terminal_violations} — UP20 deadlock, UP21 pin leak, UP22
    non-quiescence). The [mutant] knob seeds one protocol bug at a
    time so the explorer's detectors can be validated
    deterministically. *)

(** {2 Semantics} *)

(** The structure a hierarchical engine keeps next to its Shared
    UTLB-Cache ({!Hier_engine.backstop}, here without its size). A
    backstop never changes the pin ledger, only where the NI finds a
    translation, so the step relation ignores it; it only names the
    mechanism and selects the cost paths. *)
type backstop =
  | No_backstop  (** The paper's engine (["utlb"]). *)
  | Victim_store  (** Capacity evictions spill, misses recall (["victima"]). *)
  | Restseg  (** Hashed zone probed before the cache (["utopia"]). *)

type semantics =
  | Hier of { prepin : int; limit_pages : int option; backstop : backstop }
  | Intr of { entries : int; limit_pages : int option }
  | Static of { processes : int; share : int }
(** The capacity parameters the step relation needs, derived from an
    engine config by {!Engine_intf.S.stepper}. *)

val mechanism : semantics -> string
(** Registry name of the engine family: ["utlb"], ["victima"] or
    ["utopia"] (by backstop), ["intr"], or ["per-process"]. *)

(** {2 Requests, mutants, scope} *)

type request = { vpn : int; npages : int; op : Utlb_trace.Record.op }

val request :
  ?op:Utlb_trace.Record.op -> vpn:int -> npages:int -> unit -> request
(** @raise Invalid_argument if [npages < 1] or [vpn < 0]. *)

(** One seeded protocol bug, for validating the explorer's
    detectors. *)
type mutant =
  | Blocking_evict
      (** The NI refuses to evict protected lines and blocks the
          fetch forever: deadlock (UP20). *)
  | Leak_unpin  (** The kernel never unpins: pin leak (UP21). *)
  | No_shootdown
      (** Unpin releases the page but leaves its translations in the
          table and NI cache: non-quiescence (UP22). *)
  | Early_unpin
      (** Unpin ignores in-flight spans: mid-transfer release
          (UP23). *)

val mutants : mutant list

val mutant_name : mutant -> string

val mutant_of_string : string -> mutant option

val mutant_code : mutant -> string
(** The UP code the mutant is designed to trip. *)

type scope = {
  procs : int;  (** Processes in synthesis mode. *)
  pages : int;  (** Distinct pages each request menu draws from. *)
  sets : int;  (** Modelled NI-cache capacity (lines). *)
  requests : int;  (** Requests each process issues, synthesis mode. *)
  page_cap : int;
      (** Pages of a request that are micro-stepped individually;
          wider requests still run their admission checks over the
          full span. *)
  program : (int * request) list option;
      (** Trace mode: the exact (pid, request) issue sequence, in
          global order, instead of the synthesized menu. *)
  mutant : mutant option;
}

val default_scope : scope
(** 2 processes x 2 pages x 4 cache lines, 2 requests each, no
    mutant — the scope [utlbcheck explore] checks by default. *)

(** {2 Actions} *)

type action =
  | Issue of { pid : int; req : request }  (** Process starts a request. *)
  | Irq of { pid : int; vpn : int }  (** Interrupt delivery (intr). *)
  | Pin of { pid : int; vpn : int }  (** Kernel pins one page. *)
  | Publish of { pid : int; vpn : int }  (** Table update. *)
  | Fetch of { pid : int; vpn : int }  (** NI fetches the entry. *)
  | Evict of { pid : int; vpn : int }  (** NI evicts a cache line. *)
  | Use of { pid : int; vpn : int }  (** DMA through the entry. *)
  | Complete of { pid : int }  (** Request retires. *)
  | Unpin of { pid : int; vpn : int }  (** Kernel releases a page. *)

val pid_of : action -> int

val page_of : action -> (int * int) option
(** The (owner pid, vpn) the action touches; [None] for [Issue] and
    [Complete]. *)

val action_label : action -> string
(** Stable one-line rendering, used in counterexample schedules. *)

(** {2 State} *)

type pin_sub = Irq_pending | Pin_pending | Publish_pending
type xfer_sub = Fetch_pending | Use_pending

type stage =
  | Pinning of { idx : int; sub : pin_sub }
  | Transfer of { idx : int; sub : xfer_sub }
  | Finishing

type activity = { req : request; stepped : int; stage : stage }

type pstate = { pid : int; left : int; act : activity option }

type state = {
  ps : pstate list;  (** Ascending pid. *)
  next_seq : int;  (** Trace-mode issue cursor. *)
  pins : (int * int) list;  (** Sorted (pid, vpn). *)
  table : (int * int) list;
  cache : (int * int) list;
  seen : int list;  (** Pids that ever issued, sorted. *)
}
(** Canonical by construction: every collection sorted, so structural
    equality and [Hashtbl.hash] identify equal protocol states. *)

val initial : scope -> semantics -> state

val in_active : state -> int -> int -> bool
(** [in_active st pid vpn]: the page lies in [pid]'s in-flight
    (micro-stepped) span. In-flight pages are protected from clean
    unpinning. *)

val population : state -> int -> int
(** Pages the process currently pins. *)

val capacity : semantics -> int
(** Pinned-page population cap ([max_int] when unlimited). *)

(** {2 Admission} *)

type violation = {
  code : string;  (** UP01-UP05, UP20-UP23 ({!Utlb_check.Catalogue}). *)
  pid : int;
  severity : Utlb_sim.Sanitizer.severity;
      (** The same type as {!Utlb_check.Finding.severity}. *)
  message : string;
}

val admission :
  semantics -> known:bool -> distinct:int -> pid:int -> request ->
  violation list
(** The UP01-UP05 admission rules for one request of process [pid],
    checked at issue time: [known] says whether [pid] issued before,
    [distinct] how many distinct processes did. This is the only copy
    of the rules; {!apply} runs it on [Issue] and
    {!Utlb_check.Protocol} on every trace record, and the test suite
    replays each rule through the engine it describes.

    - UP01 (hier, intr): the buffer is wider than the per-process
      limit. Under intr the engine never pins more pages than its
      cache has lines, so UP01 needs a limit below [entries] there.
    - UP02 (all): the buffer runs past the translation table.
    - UP03 (intr): the buffer is wider than the cache.
    - UP04 (per-process): a process beyond the carved tables, or a
      buffer wider than one table share.
    - UP05 (hier, warning): the buffer fits the limit but its pre-pin
      window does not. *)

(** {2 The step relation} *)

val enabled : scope -> semantics -> state -> action list
(** All actions the protocol allows from [st], deterministically
    sorted. The empty list marks a terminal state — pass it to
    {!terminal_violations}. *)

val apply : scope -> semantics -> state -> action -> state * violation list
(** Fire one action. Deterministic. The violations are those this
    very transition proves (admission checks at [Issue], in-flight
    races at [Fetch]/[Evict]/[Use]). *)

val terminal_violations : scope -> semantics -> state -> violation list
(** Judge a terminal state ([enabled] returned []): pending work means
    deadlock (UP20); otherwise surviving pins are an unreachable-unpin
    leak (UP21); otherwise stale table/cache entries are
    non-quiescence (UP22). Clean discipline drains all three. *)

(** {2 Worst-case cost paths}

    The priced step vocabulary the [utlbcheck bound] analyzer
    abstract-interprets. Each engine enumerates — via
    {!Engine_intf.S.cost_paths} — the control paths one translation of
    [npages] pages can take through its protocol (hit, miss, walk,
    reclaim, plus backstop chains such as the victim store's
    spill-recall or the RestSeg fallback) as sequences of priced
    steps. {!Utlb_check.Bound} prices every step against the
    {!Cost_model} (adding the fault plan's worst-case surcharge at
    walk and interrupt steps) and takes the per-path maximum as a
    sound single-translation latency bound.

    Soundness contract: each path must {e dominate} the corresponding
    terms of the engine's Section 6.2 cost equation — every rate is
    replaced by its worst case (miss rates 1, one reclaim unpin per
    page pinned, the widest pin ioctl the pre-pin window allows) — so
    an empirically observed average cost can never exceed the priced
    worst path. *)

module Cost : sig
  type step =
    | Check of int  (** Worst-case user-level bitmap check of n pages. *)
    | Pin of int  (** One pin ioctl covering n contiguous pages. *)
    | Unpin of int  (** One unpin ioctl releasing n pages. *)
    | Intr  (** Interrupt dispatch to the host. *)
    | Kernel_pin  (** Interrupt-path kernel pin service. *)
    | Kernel_unpin  (** Interrupt-path unpin (cached = pinned evict). *)
    | Ni_hit  (** Shared UTLB-Cache probe. *)
    | Ni_direct
        (** Direct NI SRAM read: per-process table slot, victim-store
            line, or RestSeg frame. *)
    | Walk of int  (** NI miss walk DMA-fetching n entries. *)
    | Dma of int  (** Raw DMA of n entries (victim-store spill). *)

  type path = { path : string; steps : step list }

  type profile = {
    paths : path list;
    cache_entries : int;
        (** Effective NI-side translation capacity (cache entries or
            the per-process SRAM share) — the geometry UP43 checks. *)
    prefetch : int;  (** Entries fetched per miss walk. *)
  }

  val hier_paths :
    backstop -> prefetch:int -> prepin:int -> npages:int -> path list
  (** Hierarchical-UTLB family: [hit], [ni-miss] (every page walks),
      and [walk] (every page also check-misses: one pin ioctl over the
      pre-pin span, then a single-page reclaim unpin per pinned page).
      A victim store adds [recall] (miss served from the store: a
      direct read instead of a walk) and [spill-walk] (every fill also
      spills an evicted line: one extra single-entry DMA per page). A
      RestSeg replaces the three with [restseg-hit] (hashed direct
      placement), [probe-hit] (RestSeg probe misses, cache probe hits)
      and [restseg-fallback] (the walk chain behind a wasted RestSeg
      probe per page). *)

  val intr_paths : npages:int -> path list
  (** Interrupt baseline: [hit], [miss] (interrupt + kernel pin per
      page), and [evict-unpin] (every fill also evicts, and under
      cached = pinned every eviction unpins). *)

  val static_paths : npages:int -> path list
  (** Per-process tables: [hit] (direct SRAM reads) and [miss] (pin,
      single-entry table fill per page, one reclaim unpin per
      page). *)
end
