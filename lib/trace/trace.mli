(** A communication trace: the time-ordered record stream of one node.

    Provides merging of per-process streams (the paper serialises the
    five per-process traces of each SMP using synchronised timestamps),
    summary statistics matching Table 3's columns, and a line-oriented
    text format for saving and reloading traces. *)

type t

val of_records : Record.t array -> t
(** Takes ownership; sorts by {!Record.compare_time} unless the records
    are already strictly increasing by it, in which case the array is
    used as it is (a linear check, no sort). *)

val records : t -> Record.t array
(** Time-ordered. Do not mutate. *)

val length : t -> int
(** Number of records (= translation lookups). *)

val merge : t list -> t
(** Interleave several traces by timestamp. *)

val iter : t -> (Record.t -> unit) -> unit

(** {2 Table-3 style statistics} *)

val footprint_pages : t -> int
(** Distinct virtual pages touched by any process on the node. *)

val per_pid_footprint : t -> (Utlb_mem.Pid.t * int) list
(** Distinct pages per process, ascending pid. *)

val pids : t -> Utlb_mem.Pid.t list

val total_pages_touched : t -> int
(** Sum of [npages] over all records. *)

(** {2 Persistence} *)

val save : t -> out_channel -> unit

val load : in_channel -> (t, string) result
(** Stops at end of input; blank lines and [#] comments are skipped.
    Strict: the first malformed record aborts the load with an error
    carrying its 1-based line number. *)

val load_lenient :
  ?on_skip:(line:int -> string -> unit) -> in_channel -> t * int
(** Like {!load} but malformed records are skipped instead of aborting
    the load: returns the trace of the records that did parse together
    with the number skipped. Each skipped line is reported to
    [on_skip] with its 1-based line number and parse error (callers
    typically log a warning). Never raises on malformed input. *)
