module Ni_cache = Utlb.Ni_cache
module Replacement = Utlb.Replacement

type engine = Utlb | Intr | Per_process

let engine_name = function
  | Utlb -> "utlb"
  | Intr -> "intr"
  | Per_process -> "per-process"

let engine_of_string s =
  match String.lowercase_ascii s with
  | "utlb" | "hier" | "hierarchical" -> Some Utlb
  | "intr" | "interrupt" | "interrupt-based" -> Some Intr
  | "per-process" | "pp" -> Some Per_process
  | _ -> None

type t = {
  source : string;
  engine : engine;
  entries : int;
  associativity : Ni_cache.associativity;
  prefetch : int;
  prepin : int;
  policy : Replacement.policy;
  limit_mb : int option;
  processes : int;
  sram_budget_entries : int;
  user_check_us : float;
  ni_hit_us : float;
  ni_direct_us : float;
  intr_us : float;
  kernel_pin_us : float;
  kernel_unpin_us : float;
  check_min_us : float;
  pin_table : (int * float) list;
  unpin_table : (int * float) list;
  ni_miss_table : (int * float) list;
  dma_table : (int * float) list;
  check_max_table : (int * float) list;
  faults : string option;
}

(* Paper defaults, matching Cost_model.default and the engines'
   default_config values. *)
let default =
  {
    source = "<default>";
    engine = Utlb;
    entries = 8192;
    associativity = Ni_cache.Direct;
    prefetch = 1;
    prepin = 1;
    policy = Replacement.Lru;
    limit_mb = None;
    processes = 5;
    sram_budget_entries = 8192;
    user_check_us = 0.5;
    ni_hit_us = 0.8;
    ni_direct_us = 0.5;
    intr_us = 10.0;
    kernel_pin_us = 17.0;
    kernel_unpin_us = 15.0;
    check_min_us = 0.2;
    pin_table =
      [ (1, 27.0); (2, 30.0); (4, 36.0); (8, 47.0); (16, 70.0); (32, 115.0) ];
    unpin_table =
      [ (1, 25.0); (2, 30.0); (4, 36.0); (8, 50.0); (16, 80.0); (32, 139.0) ];
    ni_miss_table =
      [ (1, 1.8); (2, 1.9); (4, 1.9); (8, 2.3); (16, 2.8); (32, 3.2) ];
    dma_table =
      [ (1, 1.5); (2, 1.6); (4, 1.6); (8, 1.9); (16, 2.1); (32, 2.5) ];
    check_max_table =
      [ (1, 0.4); (2, 0.6); (4, 0.6); (8, 0.6); (16, 0.6); (32, 0.7) ];
    faults = None;
  }

let cache config =
  { Ni_cache.entries = config.entries; associativity = config.associativity }

let memory_limit_pages config =
  Option.map Utlb_mem.Addr.pages_of_mb config.limit_mb

let hier_config config =
  {
    Utlb.Hier_engine.cache = cache config;
    prefetch = config.prefetch;
    prepin = config.prepin;
    policy = config.policy;
    memory_limit_pages = memory_limit_pages config;
    backstop = No_backstop;
  }

let intr_config config =
  {
    Utlb.Intr_engine.cache = cache config;
    memory_limit_pages = memory_limit_pages config;
  }

let pp_config config =
  {
    Utlb.Pp_engine.sram_budget_entries = config.sram_budget_entries;
    processes = config.processes;
    policy = config.policy;
  }

let packed config : Utlb.Sim_driver.packed =
  match config.engine with
  | Utlb -> Packed ((module Utlb.Hier_engine), hier_config config)
  | Intr -> Packed ((module Utlb.Intr_engine), intr_config config)
  | Per_process -> Packed ((module Utlb.Pp_engine), pp_config config)

let cost_model config =
  (* Malformed anchor lists fall back to the paper defaults here; the
     configuration linter reports them with UC14x codes separately. *)
  let table anchors =
    try Some (Utlb_sim.Cost_table.create anchors)
    with Invalid_argument _ -> None
  in
  Utlb.Cost_model.create ~user_check_us:config.user_check_us
    ~ni_hit_us:config.ni_hit_us ~ni_direct_us:config.ni_direct_us
    ~intr_us:config.intr_us ~kernel_pin_us:config.kernel_pin_us
    ~kernel_unpin_us:config.kernel_unpin_us ~check_min_us:config.check_min_us
    ?pin_table:(table config.pin_table)
    ?unpin_table:(table config.unpin_table)
    ?ni_miss_table:(table config.ni_miss_table)
    ?dma_table:(table config.dma_table)
    ?check_max_table:(table config.check_max_table)
    ()

(* Anchor-table syntax: "1:27, 2:30.5, 4:36". *)
let parse_anchors s =
  let parse_pair chunk =
    match String.split_on_char ':' (String.trim chunk) with
    | [ size; cost ] ->
      (match (int_of_string_opt (String.trim size),
              float_of_string_opt (String.trim cost)) with
      | Some n, Some c -> Some (n, c)
      | _ -> None)
    | _ -> None
  in
  let chunks = String.split_on_char ',' s in
  let pairs = List.filter_map parse_pair chunks in
  if List.length pairs = List.length chunks then Some pairs else None

let parse_string ?(source = "<string>") text =
  let cfg = ref { default with source } in
  let findings = ref [] in
  let seen = Hashtbl.create 16 in
  let note ?severity ~code fmt =
    Finding.vf ~context:source ?severity ~code fmt
  in
  let add f = findings := f :: !findings in
  let bad_value ~line key value expected =
    add
      (note ~code:"UC003" "line %d: invalid value %S for %S (expected %s)"
         line value key expected)
  in
  let set_int ~line key value f =
    match int_of_string_opt value with
    | Some n -> f n
    | None -> bad_value ~line key value "an integer"
  in
  let set_float ~line key value f =
    match float_of_string_opt value with
    | Some x -> f x
    | None -> bad_value ~line key value "a number"
  in
  let set_anchors ~line key value f =
    match parse_anchors value with
    | Some pairs -> f pairs
    | None -> bad_value ~line key value "size:cost pairs, e.g. 1:27,2:30"
  in
  let handle ~line key value =
    (match Hashtbl.find_opt seen key with
    | Some first ->
      add
        (note ~severity:Finding.Warning ~code:"UC004"
           "line %d: duplicate key %S (first set on line %d); later value \
            wins"
           line key first)
    | None -> Hashtbl.replace seen key line);
    match key with
    | "engine" ->
      (match engine_of_string value with
      | Some e -> cfg := { !cfg with engine = e }
      | None -> bad_value ~line key value "utlb, intr, or per-process")
    | "entries" -> set_int ~line key value (fun n -> cfg := { !cfg with entries = n })
    | "assoc" | "associativity" ->
      (match Ni_cache.associativity_of_string value with
      | Some a -> cfg := { !cfg with associativity = a }
      | None -> bad_value ~line key value "direct, direct-nohash, 2-way, or 4-way")
    | "prefetch" ->
      set_int ~line key value (fun n -> cfg := { !cfg with prefetch = n })
    | "prepin" ->
      set_int ~line key value (fun n -> cfg := { !cfg with prepin = n })
    | "policy" ->
      (match Replacement.policy_of_string value with
      | Some p -> cfg := { !cfg with policy = p }
      | None -> bad_value ~line key value "lru, mru, lfu, mfu, or random")
    | "limit_mb" ->
      if String.lowercase_ascii value = "none" then
        cfg := { !cfg with limit_mb = None }
      else
        set_int ~line key value (fun n ->
            match Utlb_mem.Addr.pages_of_mb n with
            | _ -> cfg := { !cfg with limit_mb = Some n }
            | exception Invalid_argument msg ->
              add (note ~code:"UC003" "line %d: %s" line msg))
    | "processes" ->
      set_int ~line key value (fun n -> cfg := { !cfg with processes = n })
    | "sram_budget_entries" ->
      set_int ~line key value (fun n ->
          cfg := { !cfg with sram_budget_entries = n })
    | "user_check_us" ->
      set_float ~line key value (fun x -> cfg := { !cfg with user_check_us = x })
    | "ni_hit_us" ->
      set_float ~line key value (fun x -> cfg := { !cfg with ni_hit_us = x })
    | "ni_direct_us" ->
      set_float ~line key value (fun x -> cfg := { !cfg with ni_direct_us = x })
    | "intr_us" ->
      set_float ~line key value (fun x -> cfg := { !cfg with intr_us = x })
    | "kernel_pin_us" ->
      set_float ~line key value (fun x -> cfg := { !cfg with kernel_pin_us = x })
    | "kernel_unpin_us" ->
      set_float ~line key value (fun x ->
          cfg := { !cfg with kernel_unpin_us = x })
    | "check_min_us" ->
      set_float ~line key value (fun x -> cfg := { !cfg with check_min_us = x })
    | "pin_table" ->
      set_anchors ~line key value (fun a -> cfg := { !cfg with pin_table = a })
    | "unpin_table" ->
      set_anchors ~line key value (fun a -> cfg := { !cfg with unpin_table = a })
    | "ni_miss_table" ->
      set_anchors ~line key value (fun a ->
          cfg := { !cfg with ni_miss_table = a })
    | "dma_table" ->
      set_anchors ~line key value (fun a -> cfg := { !cfg with dma_table = a })
    | "check_max_table" ->
      set_anchors ~line key value (fun a ->
          cfg := { !cfg with check_max_table = a })
    | "faults" ->
      (* Kept as the raw spec: Config_lint parses and range-checks it
         (UC170-UC172) so all problems surface together. *)
      cfg := { !cfg with faults = Some value }
    | _ ->
      add
        (note ~severity:Finding.Warning ~code:"UC002"
           "line %d: unknown key %S ignored" line key)
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let body =
        match String.index_opt raw '#' with
        | Some j -> String.sub raw 0 j
        | None -> raw
      in
      let body = String.trim body in
      if body <> "" then
        match String.index_opt body '=' with
        | None ->
          add
            (note ~code:"UC001" "line %d: expected \"key = value\", got %S"
               line body)
        | Some j ->
          let key = String.trim (String.sub body 0 j) in
          let value =
            String.trim (String.sub body (j + 1) (String.length body - j - 1))
          in
          if key = "" then
            add (note ~code:"UC001" "line %d: empty key" line)
          else if value = "" then
            add (note ~code:"UC005" "line %d: empty value for %S" line key)
          else handle ~line key value)
    lines;
  (!cfg, List.rev !findings)

let parse_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Ok (parse_string ~source:path text)
  | exception Sys_error msg -> Error msg
