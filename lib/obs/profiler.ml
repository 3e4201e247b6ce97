(* See profiler.mli.  Same contract as obs.ml/forensics.ml: nothing in
   here may touch the simulation — no clock, no simulated memory, no
   control flow back into the machine.  Ingestion is a couple of
   hashtable updates and integer bumps.

   The call stacks are [Obs.Callstack], the machine [Obs.attribute]
   folds over, so the leaf of every folded key is exactly the label
   attribute would charge — the reconciliation invariant test_obs_props
   pins.  The profiler adds only thread names and folded keys. *)

type mode = Exact | Sampled of int

type t = {
  p_mode : mode;
  counts : (string, int) Hashtbl.t;  (* folded key -> weight *)
  cs : Obs.Callstack.t;
  thread_names : (int, string) Hashtbl.t;  (* first name seen per tid *)
  mutable cur : string;  (* folded key of the live context *)
  mutable prev : int;  (* cycle up to which charges are settled *)
}

let create ?(mode = Exact) () =
  (match mode with
  | Sampled n when n < 2 ->
      invalid_arg "Profiler.create: sampling interval must be >= 2"
  | _ -> ());
  {
    p_mode = mode;
    counts = Hashtbl.create 64;
    cs = Obs.Callstack.create ();
    thread_names = Hashtbl.create 8;
    cur = "boot";
    prev = 0;
  }

let mode t = t.p_mode

let auto () =
  match Sys.getenv_opt "CHERIOT_PROFILE" with
  | None | Some "" | Some "0" -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 2 -> Some (create ~mode:(Sampled n) ())
      | _ -> Some (create ()))

(* Folded key of the live context: thread name, then the call stack
   outermost-first; an empty stack shows as the kernel (matching
   attribute's label for a thread outside any compartment call). *)
let key t =
  match Obs.Callstack.phase t.cs with
  | Obs.Callstack.Boot -> "boot"
  | Obs.Callstack.Idle -> "idle"
  | Obs.Callstack.Thread tid -> (
      let name =
        match Hashtbl.find_opt t.thread_names tid with
        | Some n -> n
        | None -> Printf.sprintf "thread%d" tid
      in
      match Obs.Callstack.stack t.cs tid with
      | [] -> name ^ ";kernel"
      | st -> String.concat ";" (name :: List.rev st))

(* Weight of the interval (prev, cycle] under the current mode: the
   cycle delta in exact mode, the number of sample points (multiples of
   the interval) it contains in sampled mode. *)
let weight t cycle =
  match t.p_mode with
  | Exact -> cycle - t.prev
  | Sampled n -> (cycle / n) - (t.prev / n)

let bump counts key w =
  if w <> 0 then
    Hashtbl.replace counts key
      (w + Option.value (Hashtbl.find_opt counts key) ~default:0)

let charge t cycle =
  bump t.counts t.cur (weight t cycle);
  t.prev <- cycle

let ingest t ~cycle kind =
  charge t cycle;
  (match kind with
  | Obs.Thread_dispatch { tid; name } when not (Hashtbl.mem t.thread_names tid) ->
      Hashtbl.add t.thread_names tid name
  | _ -> ());
  if Obs.Callstack.step t.cs kind then t.cur <- key t

let snapshot t =
  let counts = Hashtbl.copy t.counts in
  let restore_cs = Obs.Callstack.snapshot t.cs in
  let thread_names = Hashtbl.copy t.thread_names in
  let cur = t.cur in
  let prev = t.prev in
  fun () ->
    let refill dst src =
      Hashtbl.reset dst;
      Hashtbl.iter (fun k v -> Hashtbl.replace dst k v) src
    in
    refill t.counts counts;
    restore_cs ();
    refill t.thread_names thread_names;
    t.cur <- cur;
    t.prev <- prev

(* Reports are pure folds: the tail interval since the last event is
   charged into a copy, never into the live profiler. *)

let folded t ~total_cycles =
  let counts = Hashtbl.copy t.counts in
  bump counts t.cur (weight t total_cycles);
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total_weight t ~total_cycles =
  List.fold_left (fun a (_, w) -> a + w) 0 (folded t ~total_cycles)

let to_folded_text t ~total_cycles =
  let b = Buffer.create 1024 in
  List.iter
    (fun (k, w) -> Printf.bprintf b "%s %d\n" k w)
    (folded t ~total_cycles);
  Buffer.contents b

let to_json t ~total_cycles =
  let fold = folded t ~total_cycles in
  let interval = match t.p_mode with Exact -> 1 | Sampled n -> n in
  Json.Obj
    [
      ( "mode",
        Json.Str (match t.p_mode with Exact -> "exact" | Sampled _ -> "sampled")
      );
      ("interval_cycles", Json.Int interval);
      ("total_cycles", Json.Int total_cycles);
      ("total_weight", Json.Int (List.fold_left (fun a (_, w) -> a + w) 0 fold));
      ( "stacks",
        Json.List
          (List.map
             (fun (k, w) ->
               Json.Obj
                 [
                   ("stack", Json.Str k);
                   ( "frames",
                     Json.List
                       (List.map
                          (fun f -> Json.Str f)
                          (String.split_on_char ';' k)) );
                   ("weight", Json.Int w);
                 ])
             fold) );
    ]
