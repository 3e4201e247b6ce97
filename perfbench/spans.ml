(* Spans recorded from the benchmark's own code around each call into a
   simulator layer: name, start, end, parent span and op id, kept in
   memory and written out when the run ends.  Self time (duration minus
   the time covered by child spans) and per-name duration samples are
   folded online, so the aggregates stay exact even after the stored
   span list reaches its cap.

   A span taken while the op's machine carries a simulator trace sink
   ([sink] set) times a different engine path: Machine.tracing turns
   off the interpreter's deferred-tick batching.  Such spans are kept
   and written out, flagged, but their durations go to a separate
   aggregate, so the per-layer figures and folded stacks hold only
   spans of an untraced simulator. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for an op's root span *)
  start : int;  (** ns, monotonic *)
  mutable stop : int;
  mutable child_ns : int;
  path : string;  (** ';'-joined names from the root: a folded-stack key *)
  in_sink : bool;  (** taken with a simulator trace sink attached *)
}

type agg = { durs : Stats.t; mutable self_ns : int }

let enabled = ref false
let sink = ref false
let next_id = ref 0
let next_op = ref 0
let stack : span list ref = ref []
let max_kept = 50_000
let kept : span list ref = ref []
let n_kept = ref 0
let by_name : (string, agg) Hashtbl.t = Hashtbl.create 32
let by_name_sink : (string, agg) Hashtbl.t = Hashtbl.create 32
let folded : (string, int ref) Hashtbl.t = Hashtbl.create 32

let agg tbl name =
  match Hashtbl.find_opt tbl name with
  | Some a -> a
  | None ->
      let a = { durs = Stats.create (); self_ns = 0 } in
      Hashtbl.replace tbl name a;
      a

(* Spans are on and the simulator is untraced: per-layer samples
   taken now measure the layer's own cost. *)
let layer_on () = !enabled && not !sink

let open_span name =
  let parent, op, path =
    match !stack with
    | p :: _ -> (p.id, p.op, p.path ^ ";" ^ name)
    | [] ->
        incr next_op;
        (-1, !next_op, name)
  in
  incr next_id;
  let s =
    { id = !next_id; name; op; parent; start = Clock.now_ns (); stop = 0;
      child_ns = 0; path; in_sink = !sink }
  in
  stack := s :: !stack;
  s

let close_span s =
  s.stop <- Clock.now_ns ();
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  let d = s.stop - s.start in
  (match !stack with p :: _ -> p.child_ns <- p.child_ns + d | [] -> ());
  let a = agg (if s.in_sink then by_name_sink else by_name) s.name in
  Stats.add a.durs d;
  a.self_ns <- a.self_ns + (d - s.child_ns);
  if not s.in_sink then begin
    match Hashtbl.find_opt folded s.path with
    | Some r -> r := !r + (d - s.child_ns)
    | None -> Hashtbl.replace folded s.path (ref (d - s.child_ns))
  end;
  if !n_kept < max_kept then begin
    kept := s :: !kept;
    incr n_kept
  end

(* [with_ name f] runs [f] inside a span when tracing is on, and just
   runs it otherwise. *)
let with_ name f =
  if not !enabled then f ()
  else
    let s = open_span name in
    match f () with
    | v ->
        close_span s;
        v
    | exception e ->
        close_span s;
        raise e

(* Aggregates of untraced-simulator spans. *)
let durations name = match Hashtbl.find_opt by_name name with
  | Some a -> a.durs
  | None -> Stats.create ()

let names () = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_name [])
let self_ns name = match Hashtbl.find_opt by_name name with Some a -> a.self_ns | None -> 0

(* Folded stacks of untraced-simulator spans, one "frame;frame;leaf
   self_ns" line per path — the flamegraph.pl input format the
   simulator's profiler also emits. *)
let to_folded () =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) folded []
  |> List.sort compare
  |> List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v)
  |> String.concat ""

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Stored spans (oldest first, up to [max_kept]; "sink" marks a traced
   simulator) plus per-name totals of the untraced-simulator spans. *)
let to_json () =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"id\":%d,\"name\":\"%s\",\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"sink\":%b}"
        s.id (json_escape s.name) s.op s.parent s.start s.stop s.in_sink)
    (List.rev !kept);
  Printf.bprintf b "],\"spans_total\":%d,\"layers\":[" !next_id;
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_char b ',';
      let d = durations n in
      Printf.bprintf b
        "{\"name\":\"%s\",\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"p50_ns\":%.1f}"
        (json_escape n) (Stats.length d) (Stats.sum d) (self_ns n) (Stats.pct d 50.))
    (names ());
  Buffer.add_string b "]}\n";
  Buffer.contents b
