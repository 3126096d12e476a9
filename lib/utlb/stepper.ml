(* Step-level view of the pin protocol: the transition system
   [utlbcheck explore] enumerates. See stepper.mli for the model. *)

module Record = Utlb_trace.Record
module Sanitizer = Utlb_sim.Sanitizer

(* {2 Semantics} *)

type backstop = No_backstop | Victim_store | Restseg

type semantics =
  | Hier of { prepin : int; limit_pages : int option; backstop : backstop }
  | Intr of { entries : int; limit_pages : int option }
  | Static of { processes : int; share : int }

let mechanism = function
  | Hier { backstop = No_backstop; _ } -> "utlb"
  | Hier { backstop = Victim_store; _ } -> "victima"
  | Hier { backstop = Restseg; _ } -> "utopia"
  | Intr _ -> "intr"
  | Static _ -> "per-process"

(* {2 Requests, mutants, scope} *)

type request = { vpn : int; npages : int; op : Record.op }

let request ?(op = Record.Send) ~vpn ~npages () =
  if npages < 1 then invalid_arg "Stepper.request: npages < 1";
  if vpn < 0 then invalid_arg "Stepper.request: vpn < 0";
  { vpn; npages; op }

type mutant = Blocking_evict | Leak_unpin | No_shootdown | Early_unpin

let mutants = [ Blocking_evict; Leak_unpin; No_shootdown; Early_unpin ]

let mutant_name = function
  | Blocking_evict -> "blocking-evict"
  | Leak_unpin -> "leak-unpin"
  | No_shootdown -> "no-shootdown"
  | Early_unpin -> "early-unpin"

let mutant_of_string s =
  List.find_opt (fun m -> mutant_name m = String.trim s) mutants

let mutant_code = function
  | Blocking_evict -> "UP20"
  | Leak_unpin -> "UP21"
  | No_shootdown -> "UP22"
  | Early_unpin -> "UP23"

type scope = {
  procs : int;
  pages : int;
  sets : int;
  requests : int;
  page_cap : int;
  program : (int * request) list option;
  mutant : mutant option;
}

let default_scope =
  {
    procs = 2;
    pages = 2;
    sets = 4;
    requests = 2;
    page_cap = 4;
    program = None;
    mutant = None;
  }

(* {2 Actions} *)

type action =
  | Issue of { pid : int; req : request }
  | Irq of { pid : int; vpn : int }
  | Pin of { pid : int; vpn : int }
  | Publish of { pid : int; vpn : int }
  | Fetch of { pid : int; vpn : int }
  | Evict of { pid : int; vpn : int }
  | Use of { pid : int; vpn : int }
  | Complete of { pid : int }
  | Unpin of { pid : int; vpn : int }

let pid_of = function
  | Issue { pid; _ }
  | Irq { pid; _ }
  | Pin { pid; _ }
  | Publish { pid; _ }
  | Fetch { pid; _ }
  | Evict { pid; _ }
  | Use { pid; _ }
  | Complete { pid }
  | Unpin { pid; _ } -> pid

let page_of = function
  | Issue _ | Complete _ -> None
  | Irq { pid; vpn }
  | Pin { pid; vpn }
  | Publish { pid; vpn }
  | Fetch { pid; vpn }
  | Evict { pid; vpn }
  | Use { pid; vpn }
  | Unpin { pid; vpn } -> Some (pid, vpn)

let action_label = function
  | Issue { pid; req } ->
    Printf.sprintf "issue(pid=%d vpn=%#x npages=%d)" pid req.vpn req.npages
  | Irq { pid; vpn } -> Printf.sprintf "irq(pid=%d vpn=%#x)" pid vpn
  | Pin { pid; vpn } -> Printf.sprintf "pin(pid=%d vpn=%#x)" pid vpn
  | Publish { pid; vpn } -> Printf.sprintf "publish(pid=%d vpn=%#x)" pid vpn
  | Fetch { pid; vpn } -> Printf.sprintf "fetch(pid=%d vpn=%#x)" pid vpn
  | Evict { pid; vpn } -> Printf.sprintf "evict(pid=%d vpn=%#x)" pid vpn
  | Use { pid; vpn } -> Printf.sprintf "use(pid=%d vpn=%#x)" pid vpn
  | Complete { pid } -> Printf.sprintf "complete(pid=%d)" pid
  | Unpin { pid; vpn } -> Printf.sprintf "unpin(pid=%d vpn=%#x)" pid vpn

(* {2 State} *)

type pin_sub = Irq_pending | Pin_pending | Publish_pending
type xfer_sub = Fetch_pending | Use_pending

type stage =
  | Pinning of { idx : int; sub : pin_sub }
  | Transfer of { idx : int; sub : xfer_sub }
  | Finishing

type activity = { req : request; stepped : int; stage : stage }

type pstate = { pid : int; left : int; act : activity option }

type state = {
  ps : pstate list;
  next_seq : int;
  pins : (int * int) list;
  table : (int * int) list;
  cache : (int * int) list;
  seen : int list;
}

(* All collections stay sorted so structurally equal states are the
   same OCaml value shape: the canonical hashing the explorer's
   visited set relies on. *)
let rec sorted_add x l =
  match l with
  | [] -> [ x ]
  | y :: rest ->
    let c = compare x y in
    if c < 0 then x :: l else if c = 0 then l else y :: sorted_add x rest
let sorted_remove x l = List.filter (fun y -> y <> x) l

let initial scope _sem =
  let ps =
    match scope.program with
    | Some prog ->
      let pids =
        List.sort_uniq compare (List.map (fun (pid, _) -> pid) prog)
      in
      List.map (fun pid -> { pid; left = 0; act = None }) pids
    | None ->
      List.init (max 1 scope.procs) (fun pid ->
          { pid; left = max 0 scope.requests; act = None })
  in
  { ps; next_seq = 0; pins = []; table = []; cache = []; seen = [] }

let pstate st pid = List.find (fun p -> p.pid = pid) st.ps

let update_pstate st pid f =
  { st with ps = List.map (fun p -> if p.pid = pid then f p else p) st.ps }

let in_active st pid vpn =
  match (pstate st pid).act with
  | None -> false
  | Some a -> vpn >= a.req.vpn && vpn < a.req.vpn + a.stepped
  | exception Not_found -> false

let capacity = function
  | Hier { limit_pages = Some l; _ } | Intr { limit_pages = Some l; _ } -> l
  | Hier _ | Intr _ -> max_int
  | Static { share; _ } -> share

let population st pid =
  List.length (List.filter (fun (p, _) -> p = pid) st.pins)

(* Under intr, cached = pinned: evicting a line unpins its page, so
   lines of an in-flight span are protected. The hierarchical cache is
   only an accelerator (translations survive in the host table), so
   any line may be dropped harmlessly — and so may a backstop line
   (victim store or RestSeg): both are acceleration structures over
   the same pin ledger. *)
let protected_entry sem st (owner, vpn) =
  match sem with
  | Intr _ -> in_active st owner vpn
  | Hier _ | Static _ -> false

let first_pin_sub = function
  | Intr _ -> Irq_pending
  | Hier _ | Static _ -> Pin_pending

let first_xfer_sub = function
  | Static _ -> Use_pending
  | Hier _ | Intr _ -> Fetch_pending

(* {2 Violations} *)

type violation = {
  code : string;
  pid : int;
  severity : Sanitizer.severity;
  message : string;
}

let max_vpn = Translation_table.max_vpn

(* The only copy of the UP01-UP05 admission rules; test_verify.ml
   replays each one through the engine it describes. *)
let admission sem ~known ~distinct ~pid (req : request) =
  let n = req.npages in
  let viols = ref [] in
  let emit ?(severity = Sanitizer.Error) code fmt =
    Printf.ksprintf
      (fun message -> viols := { code; pid; severity; message } :: !viols)
      fmt
  in
  let up01 l =
    emit "UP01"
      "record pins %d pages at once but the per-process limit is %d pages; \
       in-flight pages are protected from eviction, so the engine must \
       break the limit"
      n l
  in
  if req.vpn + n - 1 > max_vpn then
    emit "UP02"
      "buffer [%#x, %#x] extends past the translation table (max vpn %#x); \
       the NI dereferences the garbage frame"
      req.vpn
      (req.vpn + n - 1)
      max_vpn;
  (match sem with
  | Hier { prepin; limit_pages; _ } -> (
    match limit_pages with
    | None -> ()
    | Some l ->
      if n > l then up01 l
      else if prepin > 1 && n + prepin - 1 > l then
        emit ~severity:Sanitizer.Warning "UP05"
          "buffer of %d pages fits the %d-page limit but its pre-pin window \
           (%d) reaches %d pages; replacement may invalidate NI entries of \
           the in-flight buffer"
          n l prepin
          (n + prepin - 1))
  | Intr { entries; limit_pages } -> (
    if n > entries then
      emit "UP03"
        "buffer of %d pages is wider than the %d-entry cache; under cached \
         = pinned, self-conflict eviction unpins the first %d page(s) while \
         their transfer is in flight"
        n entries (n - entries);
    (* Under cached = pinned the engine never pins more pages than
       the cache has lines, so only a limit below that can break. *)
    match limit_pages with
    | Some l when n > l && l < entries -> up01 l
    | _ -> ())
  | Static { processes; share } ->
    if (not known) && distinct >= processes then
      emit "UP04"
        "process %d is distinct process number %d but only %d per-process \
         tables are carved; the engine aborts"
        pid (distinct + 1) processes;
    if n > share then
      emit "UP04"
        "buffer of %d pages is wider than the %d-entry per-process table \
         share; every index is protected, eviction cannot free one, and \
         the engine aborts"
        n share);
  List.rev !viols

(* {2 Enabled actions} *)

let request_menu scope =
  List.concat_map
    (fun vpn ->
      List.map
        (fun n -> { vpn; npages = n; op = Record.Send })
        (List.init (max 1 scope.pages - vpn) (fun i -> i + 1)))
    (List.init (max 1 scope.pages) (fun v -> v))

let unprotected_victims sem st =
  List.filter (fun e -> not (protected_entry sem st e)) st.cache

let pin_blocked scope sem st pid vpn =
  (* The kernel reclaims (unpins) a victim before pinning past the
     population cap — unless nothing outside an in-flight span can be
     reclaimed, in which case the engine must break the limit (the
     UP01 scenario) and the pin proceeds. *)
  (not (List.mem (pid, vpn) st.pins))
  && population st pid >= capacity sem
  && scope.mutant <> Some Leak_unpin
  && List.exists
       (fun (p, w) -> p = pid && not (in_active st p w))
       st.pins

let enabled scope sem st =
  let acts = ref [] in
  let add a = acts := a :: !acts in
  List.iter
    (fun p ->
      match p.act with
      | None -> (
        match scope.program with
        | Some prog -> (
          match List.nth_opt prog st.next_seq with
          | Some (pid, req) when pid = p.pid -> add (Issue { pid; req })
          | _ -> ())
        | None ->
          if p.left > 0 then
            List.iter
              (fun req -> add (Issue { pid = p.pid; req }))
              (request_menu scope))
      | Some a -> (
        let v idx = a.req.vpn + idx in
        match a.stage with
        | Pinning { idx; sub = Irq_pending } ->
          add (Irq { pid = p.pid; vpn = v idx })
        | Pinning { idx; sub = Pin_pending } ->
          if not (pin_blocked scope sem st p.pid (v idx)) then
            add (Pin { pid = p.pid; vpn = v idx })
        | Pinning { idx; sub = Publish_pending } ->
          add (Publish { pid = p.pid; vpn = v idx })
        | Transfer { idx; sub = Fetch_pending } ->
          let vpn = v idx in
          if
            List.mem (p.pid, vpn) st.cache
            || List.length st.cache < scope.sets
          then add (Fetch { pid = p.pid; vpn })
          else begin
            (* Cache full: an eviction must free a set first. *)
            match unprotected_victims sem st with
            | _ :: _ as victims ->
              List.iter
                (fun (ep, ev) -> add (Evict { pid = ep; vpn = ev }))
                victims
            | [] ->
              if scope.mutant <> Some Blocking_evict then
                (* Every line is protected; the engine must evict one
                   anyway (the in-flight race apply flags as UP23).
                   The blocking-evict mutant instead refuses — and
                   deadlocks. *)
                List.iter
                  (fun (ep, ev) -> add (Evict { pid = ep; vpn = ev }))
                  st.cache
          end
        | Transfer { idx; sub = Use_pending } ->
          add (Use { pid = p.pid; vpn = v idx })
        | Finishing -> add (Complete { pid = p.pid })))
    st.ps;
  (match scope.mutant with
  | Some Leak_unpin -> ()
  | Some Early_unpin ->
    List.iter (fun (p, v) -> add (Unpin { pid = p; vpn = v })) st.pins
  | _ ->
    List.iter
      (fun (p, v) ->
        if not (in_active st p v) then add (Unpin { pid = p; vpn = v }))
      st.pins);
  List.sort_uniq compare !acts

(* {2 Applying an action} *)

let advance_pin sem (a : activity) =
  match a.stage with
  | Pinning { idx; sub } -> (
    let next_sub =
      match sub with
      | Irq_pending -> Some Pin_pending
      | Pin_pending -> Some Publish_pending
      | Publish_pending -> None
    in
    match next_sub with
    | Some sub -> { a with stage = Pinning { idx; sub } }
    | None ->
      if idx + 1 < a.stepped then
        { a with stage = Pinning { idx = idx + 1; sub = first_pin_sub sem } }
      else { a with stage = Transfer { idx = 0; sub = first_xfer_sub sem } })
  | Transfer _ | Finishing -> a

let advance_xfer sem (a : activity) =
  match a.stage with
  | Transfer { idx; sub } -> (
    match sub with
    | Fetch_pending -> { a with stage = Transfer { idx; sub = Use_pending } }
    | Use_pending ->
      if idx + 1 < a.stepped then
        {
          a with
          stage = Transfer { idx = idx + 1; sub = first_xfer_sub sem };
        }
      else { a with stage = Finishing })
  | Pinning _ | Finishing -> a

let step_activity st pid f =
  update_pstate st pid (fun p ->
      match p.act with
      | None -> p
      | Some a -> { p with act = Some (f a) })

let apply scope sem st action =
  match action with
  | Issue { pid; req } ->
    let viols =
      admission sem ~known:(List.mem pid st.seen)
        ~distinct:(List.length st.seen) ~pid req
    in
    let stepped = max 1 (min req.npages scope.page_cap) in
    let act =
      Some
        { req; stepped; stage = Pinning { idx = 0; sub = first_pin_sub sem } }
    in
    let st =
      update_pstate st pid (fun p -> { p with left = max 0 (p.left - 1); act })
    in
    let st =
      {
        st with
        seen = sorted_add pid st.seen;
        next_seq =
          (match scope.program with
          | Some _ -> st.next_seq + 1
          | None -> st.next_seq);
      }
    in
    (st, viols)
  | Irq { pid; _ } -> (step_activity st pid (advance_pin sem), [])
  | Pin { pid; vpn } ->
    let st = { st with pins = sorted_add (pid, vpn) st.pins } in
    (step_activity st pid (advance_pin sem), [])
  | Publish { pid; vpn } ->
    let st = { st with table = sorted_add (pid, vpn) st.table } in
    (step_activity st pid (advance_pin sem), [])
  | Fetch { pid; vpn } ->
    let viols =
      if List.mem (pid, vpn) st.table then []
      else
        [
          {
            code = "UP23";
            pid;
            severity = Sanitizer.Error;
            message =
              Printf.sprintf
                "NI fetch of page %#x for process %d raced an in-flight \
                 invalidation: the table entry was removed before the NI \
                 read it"
                vpn pid;
          };
        ]
    in
    let st = { st with cache = sorted_add (pid, vpn) st.cache } in
    (step_activity st pid (advance_xfer sem), viols)
  | Evict { pid; vpn } ->
    let st = { st with cache = sorted_remove (pid, vpn) st.cache } in
    let st, viols =
      match sem with
      | Intr _ ->
        (* cached = pinned: the eviction unpins the page and drops its
           only translation. *)
        let viols =
          if in_active st pid vpn then
            [
              {
                code = "UP23";
                pid;
                severity = Sanitizer.Error;
                message =
                  Printf.sprintf
                    "conflict eviction unpinned page %#x of process %d \
                     while its transfer was in flight (cached = pinned)"
                    vpn pid;
              };
            ]
          else []
        in
        ( {
            st with
            pins = sorted_remove (pid, vpn) st.pins;
            table = sorted_remove (pid, vpn) st.table;
          },
          viols )
      | Hier _ | Static _ -> (st, [])
    in
    (st, viols)
  | Use { pid; vpn } ->
    let viols =
      if List.mem (pid, vpn) st.pins then []
      else
        [
          {
            code = "UP23";
            pid;
            severity = Sanitizer.Error;
            message =
              Printf.sprintf
                "DMA into page %#x of process %d while it is not pinned: \
                 the page was released mid-transfer"
                vpn pid;
          };
        ]
    in
    (step_activity st pid (advance_xfer sem), viols)
  | Complete { pid } -> (update_pstate st pid (fun p -> { p with act = None }), [])
  | Unpin { pid; vpn } ->
    let st = { st with pins = sorted_remove (pid, vpn) st.pins } in
    let st =
      if scope.mutant = Some No_shootdown then st
      else
        {
          st with
          table = sorted_remove (pid, vpn) st.table;
          cache = sorted_remove (pid, vpn) st.cache;
        }
    in
    (st, [])

(* {2 Terminal states} *)

let stage_label = function
  | Pinning { idx; sub } ->
    Printf.sprintf "pinning page +%d (%s)" idx
      (match sub with
      | Irq_pending -> "awaiting interrupt service"
      | Pin_pending -> "awaiting pin"
      | Publish_pending -> "awaiting table publish")
  | Transfer { idx; sub } ->
    Printf.sprintf "transferring page +%d (%s)" idx
      (match sub with
      | Fetch_pending -> "awaiting NI fetch"
      | Use_pending -> "awaiting DMA use")
  | Finishing -> "awaiting completion"

let pending_work scope st =
  let issue_pending =
    match scope.program with
    | Some prog -> st.next_seq < List.length prog
    | None -> List.exists (fun p -> p.left > 0) st.ps
  in
  issue_pending || List.exists (fun p -> p.act <> None) st.ps

let terminal_violations scope _sem st =
  if pending_work scope st then
    List.filter_map
      (fun p ->
        match p.act with
        | Some a ->
          Some
            {
              code = "UP20";
              pid = p.pid;
              severity = Sanitizer.Error;
              message =
                Printf.sprintf
                  "deadlock: process %d is stuck %s on buffer [%#x, %#x] \
                   and no action is enabled"
                  p.pid (stage_label a.stage) a.req.vpn
                  (a.req.vpn + a.req.npages - 1);
            }
        | None -> None)
      st.ps
    |> function
    | [] ->
      (* Work is pending but no activity is stuck: the issue stream
         itself is blocked (trace mode only). *)
      [
        {
          code = "UP20";
          pid = 0;
          severity = Sanitizer.Error;
          message =
            "deadlock: protocol work is pending but no action is enabled";
        };
      ]
    | vs -> vs
  else if st.pins <> [] then
    List.sort_uniq compare (List.map (fun (p, _) -> p) st.pins)
    |> List.map (fun pid ->
           let pages =
             List.filter_map
               (fun (p, v) -> if p = pid then Some v else None)
               st.pins
           in
           {
             code = "UP21";
             pid;
             severity = Sanitizer.Error;
             message =
               Printf.sprintf
                 "unreachable unpin: exploration terminated with %d page(s) \
                  of process %d still pinned (%s) and no transition can \
                  ever release them"
                 (List.length pages) pid
                 (String.concat ", "
                    (List.map (Printf.sprintf "%#x") pages));
           })
  else if st.table <> [] || st.cache <> [] then
    List.sort_uniq compare
      (List.map (fun (p, _) -> p) (st.table @ st.cache))
    |> List.map (fun pid ->
           {
             code = "UP22";
             pid;
             severity = Sanitizer.Error;
             message =
               Printf.sprintf
                 "non-quiescent final state: process %d left stale \
                  translations behind (%d table, %d cached) mapping pages \
                  that are no longer pinned"
                 pid
                 (List.length (List.filter (fun (p, _) -> p = pid) st.table))
                 (List.length (List.filter (fun (p, _) -> p = pid) st.cache));
           })
  else []

(* {2 Worst-case cost paths}

   The priced step vocabulary utlbcheck bound abstract-interprets; see
   stepper.mli for the soundness contract each path family keeps with
   its engine's Section 6.2 cost equation. *)

module Cost = struct
  type step =
    | Check of int
    | Pin of int
    | Unpin of int
    | Intr
    | Kernel_pin
    | Kernel_unpin
    | Ni_hit
    | Ni_direct
    | Walk of int
    | Dma of int

  type path = { path : string; steps : step list }

  type profile = { paths : path list; cache_entries : int; prefetch : int }

  let repeat n s = List.init (max 0 n) (fun _ -> s)

  (* The per-page chain, unrolled npages times: the worst case has
     every page of the buffer take the slow chain independently. *)
  let per_page n steps = List.concat (repeat n steps)

  let hier_paths backstop ~prefetch ~prepin ~npages =
    let n = max 1 npages in
    let prefetch = max 1 prefetch in
    (* Widest pin ioctl the pre-pin window allows (Section 6.5): the
       buffer plus prepin-1 lookahead pages, and at the memory limit
       each of those pins may first reclaim one victim with a
       single-page unpin. *)
    let span = n + max 1 prepin - 1 in
    (* The slow chain: pin the span, walk every page (behind [probe]),
       reclaim one victim per pinned page. *)
    let walk name probe extra =
      {
        path = name;
        steps =
          (Check n :: Pin span
          :: per_page n (probe @ [ Ni_hit; Walk prefetch ] @ extra))
          @ repeat span (Unpin 1);
      }
    in
    let plain =
      [
        { path = "hit"; steps = Check n :: repeat n Ni_hit };
        {
          path = "ni-miss";
          steps = Check n :: per_page n [ Ni_hit; Walk prefetch ];
        };
        walk "walk" [] [];
      ]
    in
    match backstop with
    | No_backstop -> plain
    | Victim_store ->
      plain
      @ [
          {
            path = "recall";
            steps = Check n :: per_page n [ Ni_hit; Ni_direct ];
          };
          walk "spill-walk" [] [ Dma 1 ];
        ]
    | Restseg ->
      [
        { path = "restseg-hit"; steps = Check n :: repeat n Ni_direct };
        {
          path = "probe-hit";
          steps = Check n :: per_page n [ Ni_direct; Ni_hit ];
        };
        walk "restseg-fallback" [ Ni_direct ] [];
      ]

  let intr_paths ~npages =
    let n = max 1 npages in
    [
      { path = "hit"; steps = repeat n Ni_hit };
      { path = "miss"; steps = per_page n [ Ni_hit; Intr; Kernel_pin ] };
      {
        path = "evict-unpin";
        steps = per_page n [ Ni_hit; Intr; Kernel_pin; Kernel_unpin ];
      };
    ]

  let static_paths ~npages =
    let n = max 1 npages in
    [
      { path = "hit"; steps = Check n :: repeat n Ni_direct };
      {
        path = "miss";
        steps =
          (Check n :: Pin n :: per_page n [ Ni_hit; Walk 1; Ni_direct ])
          @ repeat n (Unpin 1);
      };
    ]
end
