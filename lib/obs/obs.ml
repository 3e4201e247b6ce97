(* See obs.mli.  Nothing in here may touch the simulation: no clock, no
   simulated memory, no control flow back into the machine.  Emission is
   an array store and an integer bump; every fold is post-run. *)

type kind =
  | Instr_sample of { instret : int }
  | Irq_enter of { irq : int }
  | Irq_exit of { irq : int }
  | Revoker_quantum of { granules : int; next : int }
  | Revoker_done of { epoch : int }
  | Fault_note of { note : string }
  | Switcher_call of { tid : int }
  | Switcher_return of { tid : int }
  | Switcher_abort of { tid : int }
  | Call_enter of { caller : string; callee : string; entry : string; tid : int }
  | Call_leave of { callee : string; tid : int; faulted : bool }
  | Thread_dispatch of { tid : int; name : string }
  | Thread_block of { tid : int }
  | Thread_wake of { tid : int; reason : string }
  | Sched_idle
  | Futex_wait of { addr : int; tid : int }
  | Futex_wake of { addr : int; woken : int }
  | Alloc of { base : int; size : int }
  | Free of { base : int; size : int }
  | Quarantine of { base : int; size : int }
  | Release of { base : int; size : int }

type event = { cycle : int; kind : kind }

let sample_mask = 1023

let source_of = function
  | Instr_sample _ -> "interp"
  | Irq_enter _ | Irq_exit _ | Revoker_quantum _ | Revoker_done _ -> "machine"
  | Fault_note _ -> "fault"
  | Switcher_call _ | Switcher_return _ | Switcher_abort _ | Call_enter _
  | Call_leave _ | Thread_dispatch _ | Thread_block _ | Thread_wake _
  | Sched_idle ->
      "kernel"
  | Futex_wait _ | Futex_wake _ -> "sched"
  | Alloc _ | Free _ | Quarantine _ | Release _ -> "alloc"

let kind_label = function
  | Instr_sample _ -> "instr-sample"
  | Irq_enter _ -> "irq-enter"
  | Irq_exit _ -> "irq-exit"
  | Revoker_quantum _ -> "revoker-quantum"
  | Revoker_done _ -> "revoker-done"
  | Fault_note _ -> "fault"
  | Switcher_call _ -> "switcher-call"
  | Switcher_return _ -> "switcher-return"
  | Switcher_abort _ -> "switcher-abort"
  | Call_enter _ -> "call-enter"
  | Call_leave _ -> "call-leave"
  | Thread_dispatch _ -> "thread-dispatch"
  | Thread_block _ -> "thread-block"
  | Thread_wake _ -> "thread-wake"
  | Sched_idle -> "sched-idle"
  | Futex_wait _ -> "futex-wait"
  | Futex_wake _ -> "futex-wake"
  | Alloc _ -> "alloc"
  | Free _ -> "free"
  | Quarantine _ -> "quarantine"
  | Release _ -> "release"

let detail_of = function
  | Instr_sample { instret } -> Printf.sprintf "instr-sample instret=%d" instret
  | Irq_enter { irq } -> Printf.sprintf "irq-enter irq=%d" irq
  | Irq_exit { irq } -> Printf.sprintf "irq-exit irq=%d" irq
  | Revoker_quantum { granules; next } ->
      Printf.sprintf "revoker-quantum granules=%d next=%d" granules next
  | Revoker_done { epoch } -> Printf.sprintf "revoker-done epoch=%d" epoch
  | Fault_note { note } -> Printf.sprintf "fault %s" note
  | Switcher_call { tid } -> Printf.sprintf "switcher-call tid=%d" tid
  | Switcher_return { tid } -> Printf.sprintf "switcher-return tid=%d" tid
  | Switcher_abort { tid } -> Printf.sprintf "switcher-abort tid=%d" tid
  | Call_enter { caller; callee; entry; tid } ->
      Printf.sprintf "call-enter %s->%s.%s tid=%d" caller callee entry tid
  | Call_leave { callee; tid; faulted } ->
      Printf.sprintf "call-leave %s tid=%d faulted=%b" callee tid faulted
  | Thread_dispatch { tid; name } ->
      Printf.sprintf "thread-dispatch tid=%d name=%s" tid name
  | Thread_block { tid } -> Printf.sprintf "thread-block tid=%d" tid
  | Thread_wake { tid; reason } ->
      Printf.sprintf "thread-wake tid=%d reason=%s" tid reason
  | Sched_idle -> "sched-idle"
  | Futex_wait { addr; tid } ->
      Printf.sprintf "futex-wait addr=0x%x tid=%d" addr tid
  | Futex_wake { addr; woken } ->
      Printf.sprintf "futex-wake addr=0x%x woken=%d" addr woken
  | Alloc { base; size } -> Printf.sprintf "alloc base=0x%x size=%d" base size
  | Free { base; size } -> Printf.sprintf "free base=0x%x size=%d" base size
  | Quarantine { base; size } ->
      Printf.sprintf "quarantine base=0x%x size=%d" base size
  | Release { base; size } ->
      Printf.sprintf "release base=0x%x size=%d" base size

let pp_event ppf e =
  Format.fprintf ppf "[%10d] %-7s %s" e.cycle (source_of e.kind)
    (detail_of e.kind)

(* Ring buffer.  [head] counts every emission ever; the live window is
   the last [min head cap] slots.  Overwriting the slot at [head mod cap]
   always evicts the oldest retained event, so newer events are never
   dropped in favour of older ones. *)

type t = { cap : int; buf : event array; mutable head : int }

let placeholder = { cycle = 0; kind = Sched_idle }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Obs.create: capacity must be positive";
  { cap = capacity; buf = Array.make capacity placeholder; head = 0 }

let capacity t = t.cap
let total t = t.head
let length t = min t.head t.cap
let dropped t = t.head - length t

let emit t ~cycle kind =
  Array.unsafe_set t.buf (t.head mod t.cap) { cycle; kind };
  t.head <- t.head + 1

let clear t = t.head <- 0

(* For Machine.snapshot: events are immutable records, so copying the
   slot array and the head counter captures the whole ring. *)
let snapshot t =
  let head = t.head in
  let buf = Array.copy t.buf in
  fun () ->
    t.head <- head;
    Array.blit buf 0 t.buf 0 t.cap

let events t =
  let n = length t in
  List.init n (fun i -> t.buf.((t.head - n + i) mod t.cap))

(* Ring capacity for the env-var auto-attach path.  CHERIOT_TRACE_CAP
   wins over an integer CHERIOT_TRACE value; garbage or out-of-range
   values fail loudly rather than silently truncating history. *)
let cap_min = 16
let cap_max = 1 lsl 24

let ring_cap_env () =
  match Sys.getenv_opt "CHERIOT_TRACE_CAP" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= cap_min && n <= cap_max -> Some n
      | Some n ->
          failwith
            (Printf.sprintf
               "CHERIOT_TRACE_CAP=%d out of range: must be in [%d, %d]" n
               cap_min cap_max)
      | None ->
          failwith
            (Printf.sprintf
               "CHERIOT_TRACE_CAP=%S is not an integer (expected ring \
                capacity in [%d, %d])"
               s cap_min cap_max))

let auto () =
  match Sys.getenv_opt "CHERIOT_TRACE" with
  | None | Some "" | Some "0" -> None
  | Some s -> (
      match ring_cap_env () with
      | Some n -> Some (create ~capacity:n ())
      | None -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n > 1 -> Some (create ~capacity:n ())
          | _ -> Some (create ())))

(* The call-stack state machine.  Per-thread stacks of labels model
   nesting (thread base -> switcher leg -> callee, possibly
   recursively): a switcher leg pushes "switcher", an abort pops it,
   entering a callee replaces it, and leaving a callee drops any
   switcher frames above the callee and then the callee itself. *)
module Callstack = struct
  type phase = Boot | Idle | Thread of int
  type t = { stacks : (int, string list) Hashtbl.t; mutable phase : phase }

  let create () = { stacks = Hashtbl.create 8; phase = Boot }
  let phase t = t.phase
  let stack t tid = Option.value (Hashtbl.find_opt t.stacks tid) ~default:[]
  let top t tid = match stack t tid with [] -> "kernel" | l :: _ -> l
  let push t tid l = Hashtbl.replace t.stacks tid (l :: stack t tid)

  let pop t tid =
    match stack t tid with [] -> () | _ :: r -> Hashtbl.replace t.stacks tid r

  (* The label [attribute] charges; the profiler's folded keys end in
     it. *)
  let leaf t =
    match t.phase with Boot -> "boot" | Idle -> "idle" | Thread tid -> top t tid

  let live t tid = match t.phase with Thread c -> c = tid | Boot | Idle -> false

  let step t = function
    | Thread_dispatch { tid; _ } ->
        t.phase <- Thread tid;
        true
    | Sched_idle ->
        t.phase <- Idle;
        true
    | Switcher_call { tid } | Switcher_return { tid } ->
        push t tid "switcher";
        live t tid
    | Switcher_abort { tid } ->
        if top t tid = "switcher" then pop t tid;
        live t tid
    | Call_enter { callee; tid; _ } ->
        if top t tid = "switcher" then pop t tid;
        push t tid callee;
        live t tid
    | Call_leave { tid; _ } ->
        while top t tid = "switcher" do
          pop t tid
        done;
        pop t tid;
        live t tid
    | _ -> false

  let snapshot t =
    let stacks = Hashtbl.copy t.stacks and phase = t.phase in
    fun () ->
      Hashtbl.reset t.stacks;
      Hashtbl.iter (Hashtbl.replace t.stacks) stacks;
      t.phase <- phase
end

(* Cycle attribution: walk the trace through the call-stack machine,
   charging each inter-event delta to the leaf that was live while it
   elapsed.  The deltas plus the final tail partition [0, total_cycles]
   exactly, so the returned totals always sum to [total_cycles]. *)
let attribute ~total_cycles evs =
  let totals = Hashtbl.create 16 in
  let charge label n =
    if n <> 0 then
      Hashtbl.replace totals label
        (n + Option.value (Hashtbl.find_opt totals label) ~default:0)
  in
  let cs = Callstack.create () in
  let cur = ref (Callstack.leaf cs) in
  let prev = ref 0 in
  List.iter
    (fun e ->
      charge !cur (e.cycle - !prev);
      prev := e.cycle;
      if Callstack.step cs e.kind then cur := Callstack.leaf cs)
    evs;
  charge !cur (total_cycles - !prev);
  Hashtbl.fold (fun k v acc -> if v = 0 then acc else (k, v) :: acc) totals []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Chrome trace_event export: compartment calls are B/E duration slices
   on their thread's track; everything else instant events.  ts is the
   simulated cycle (displayed as "us" by the viewers — harmless). *)

let tid_of = function
  | Switcher_call { tid }
  | Switcher_return { tid }
  | Switcher_abort { tid }
  | Call_enter { tid; _ }
  | Call_leave { tid; _ }
  | Thread_dispatch { tid; _ }
  | Thread_block { tid }
  | Thread_wake { tid; _ }
  | Futex_wait { tid; _ } ->
      tid
  | _ -> 0

let to_chrome evs =
  let base name ph e extra_args =
    Json.Obj
      ([
         ("name", Json.Str name);
         ("ph", Json.Str ph);
         ("ts", Json.Int e.cycle);
         ("pid", Json.Int 1);
         ("tid", Json.Int (tid_of e.kind));
         ("cat", Json.Str (source_of e.kind));
       ]
      @ match extra_args with [] -> [] | a -> [ ("args", Json.Obj a) ])
  in
  let thread_names = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.kind with
      | Thread_dispatch { tid; name } ->
          if not (Hashtbl.mem thread_names tid) then
            Hashtbl.add thread_names tid name
      | _ -> ())
    evs;
  let meta =
    Hashtbl.fold
      (fun tid name acc ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.Str name) ]);
          ]
        :: acc)
      thread_names []
    |> List.sort compare
  in
  let records =
    List.map
      (fun e ->
        match e.kind with
        | Call_enter { caller; callee; entry; _ } ->
            base callee "B" e
              [ ("caller", Json.Str caller); ("entry", Json.Str entry) ]
        | Call_leave { callee; faulted; _ } ->
            base callee "E" e
              (if faulted then [ ("faulted", Json.Bool true) ] else [])
        | k ->
            let j = base (kind_label k) "i" e [] in
            (match j with
            | Json.Obj fields -> Json.Obj (fields @ [ ("s", Json.Str "t") ])
            | _ -> j))
      evs
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta @ records));
      ("displayTimeUnit", Json.Str "ns");
    ]

let metrics ~total_cycles t =
  let evs = events t in
  let count_by f =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let k = f e.kind in
        Hashtbl.replace tbl k
          (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
      evs;
    Hashtbl.fold (fun k v acc -> (k, Json.Int v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let sum f = List.fold_left (fun acc e -> acc + f e.kind) 0 evs in
  Json.Obj
    [
      ("total_cycles", Json.Int total_cycles);
      ("events", Json.Int (total t));
      ("retained", Json.Int (length t));
      ("dropped", Json.Int (dropped t));
      ( "alloc_bytes",
        Json.Int (sum (function Alloc { size; _ } -> size | _ -> 0)) );
      ( "free_bytes",
        Json.Int (sum (function Free { size; _ } -> size | _ -> 0)) );
      ( "quarantine_bytes",
        Json.Int (sum (function Quarantine { size; _ } -> size | _ -> 0)) );
      ( "release_bytes",
        Json.Int (sum (function Release { size; _ } -> size | _ -> 0)) );
      ("by_source", Json.Obj (count_by source_of));
      ("by_kind", Json.Obj (count_by kind_label));
      ( "attribution",
        Json.Obj
          (List.map
             (fun (l, c) -> (l, Json.Int c))
             (attribute ~total_cycles evs)) );
    ]
