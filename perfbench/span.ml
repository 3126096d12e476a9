(* Spans recorded from the benchmark's own code around its calls into
   each layer: name, start, end and the enclosing span. Recording is
   off except in the traced reps; spans stay in memory and are written
   once, at exit, as Chrome trace JSON. *)

type t = {
  name : string;  (** The layer, e.g. ["replay"]. *)
  detail : string;  (** Instance, e.g. ["utlb,fft"]; may be empty. *)
  start_ns : int;
  mutable stop_ns : int;
  parent : int;  (** Index of the enclosing span, or -1. *)
}

let enabled = ref false

let recorded = ref []

let count = ref 0

let open_spans = ref []

let with_ ?(detail = "") name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with [] -> -1 | p :: _ -> p in
    let span =
      { name; detail; start_ns = Stats.now_ns (); stop_ns = 0; parent }
    in
    recorded := span :: !recorded;
    open_spans := !count :: !open_spans;
    incr count;
    Fun.protect
      ~finally:(fun () ->
        span.stop_ns <- Stats.now_ns ();
        open_spans := List.tl !open_spans)
      f
  end

let all () = Array.of_list (List.rev !recorded)

(* Self time: the span's duration minus the part its children cover.
   Children of one span never overlap (the bench is single-threaded),
   so that part is the sum of their durations. *)
let self_ns spans =
  let self = Array.map (fun s -> s.stop_ns - s.start_ns) spans in
  Array.iter
    (fun s ->
      if s.parent >= 0 then
        self.(s.parent) <- self.(s.parent) - (s.stop_ns - s.start_ns))
    spans;
  self

(* Total self time per layer name, over every recorded span. *)
let self_by_name () =
  let spans = all () in
  let self = self_ns spans in
  let totals = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let prev = Option.value ~default:0 (Hashtbl.find_opt totals s.name) in
      Hashtbl.replace totals s.name (prev + self.(i)))
    spans;
  totals

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_chrome path =
  let spans = all () in
  let self = self_ns spans in
  let origin = if spans = [||] then 0 else spans.(0).start_ns in
  let us ns = float_of_int ns /. 1e3 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      Array.iteri
        (fun i s ->
          let label =
            if s.detail = "" then s.name
            else Printf.sprintf "%s(%s)" s.name s.detail
          in
          let parent =
            if s.parent < 0 then "" else spans.(s.parent).name
          in
          Printf.fprintf oc
            "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f,\"parent\":%s}}"
            (if i = 0 then "" else ",")
            (json_string label) (json_string s.name)
            (us (s.start_ns - origin))
            (us (s.stop_ns - s.start_ns))
            (us self.(i)) (json_string parent))
        spans;
      output_string oc "\n]}\n")
