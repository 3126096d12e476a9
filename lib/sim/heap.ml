(* Every value carries an insertion sequence number so that equal keys
   pop in FIFO order — a requirement for deterministic event
   scheduling.

   The heap is 4-ary over flat arrays: children of [i] live at
   [4i+1 .. 4i+4], its parent at [(i-1)/4]. Against the binary layout
   this halves the tree depth (fewer cache-missing levels per sift) at
   the price of up to four child comparisons per sift-down level — a
   net win for the event queue, whose hot loop is pop-push. Values and
   sequence numbers sit in two parallel arrays, so a push allocates no
   entry record and [pop_exn]/[peek_exn] return the value itself.
   test_heap.ml keeps a seeded differential against a reference binary
   heap. *)
type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable values : 'a array;
  mutable seqs : int array;
  mutable size : int;
  mutable next_seq : int;
}

let arity = 4

let create ~cmp = { cmp; values = [||]; seqs = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

let less t i j =
  let c = t.cmp t.values.(i) t.values.(j) in
  c < 0 || (c = 0 && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let v = t.values.(i) and s = t.seqs.(i) in
  t.values.(i) <- t.values.(j);
  t.seqs.(i) <- t.seqs.(j);
  t.values.(j) <- v;
  t.seqs.(j) <- s

(* [v] fills the new slots: an ['a array] needs some element, and the
   one being pushed is at hand. *)
let grow t v =
  let cap = max 16 (2 * Array.length t.values) in
  let values = Array.make cap v and seqs = Array.make cap 0 in
  Array.blit t.values 0 values 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  t.values <- values;
  t.seqs <- seqs

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / arity in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let first = (arity * i) + 1 in
  if first < t.size then begin
    let last = min (first + arity - 1) (t.size - 1) in
    let smallest = ref i in
    for c = first to last do
      if less t c !smallest then smallest := c
    done;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end
  end

let push t v =
  if t.size = Array.length t.values then grow t v;
  t.values.(t.size) <- v;
  t.seqs.(t.size) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek_exn t =
  if t.size = 0 then invalid_arg "Heap.peek_exn: empty heap";
  t.values.(0)

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = t.values.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.values.(0) <- t.values.(t.size);
    t.seqs.(0) <- t.seqs.(t.size);
    sift_down t 0
  end;
  top

let peek t = if t.size = 0 then None else Some (peek_exn t)

let pop t = if t.size = 0 then None else Some (pop_exn t)

let clear t =
  t.size <- 0;
  t.values <- [||];
  t.seqs <- [||]

let to_sorted_list t =
  let copy =
    {
      t with
      values = Array.sub t.values 0 t.size;
      seqs = Array.sub t.seqs 0 t.size;
    }
  in
  List.init t.size (fun _ -> pop_exn copy)
