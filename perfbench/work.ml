(* What every workload gives the main loop in perfbench.ml. *)

(* How an op runs: [Plain] is the untraced path the end-to-end metrics
   come from; [Spans] records the benchmark's spans; [Obs] also attaches
   a simulator trace sink (Obs ring) to the op's machine; [Count] is
   [Obs] plus folding the ring into the per-layer counts afterwards
   (the traced run's fixed pass, whose timing is not used). *)
type mode = Plain | Spans | Obs | Count

let attaches_obs mode = mode = Obs || mode = Count

type outcome = {
  ok : bool;  (** the op's outputs passed its correctness check *)
  key : int;  (** index of the op's input within one pass of the inputs *)
  label : string;  (** the op's kind, for per-kind latency reports *)
  instr : int;  (** interpreted instructions, -1 when not observable *)
  totals : (string * int) list;
      (** exact simulated totals of this op (cycles first); summed over
          the first pass into the run's fingerprint *)
}

type instance = {
  pass_len : int;  (** ops in one pass over the generated inputs *)
  sinkable : bool;
      (** the benchmark can attach a trace sink to the op's machine, so
          the traced run has an [Obs] mode *)
  repeatable : bool;
      (** an input's totals are the same on every pass (ops start from a
          fresh or restored machine), so later passes are checked
          against the first *)
  run_op : mode -> outcome;
  end_pass : unit -> bool;  (** pass-level correctness check *)
  finish : unit -> bool;  (** check after the timed phase *)
  counts : (string, int) Hashtbl.t;
      (** per-layer simulated counts accumulated by [Count]-mode ops *)
}

(* [start ~seed body] generates the inputs, boots and warms up, then
   hands [body] the instance; [body] runs all timed ops.  Call-mix ops
   must run on a simulated thread, so the workload, not the caller,
   owns the loop's context. *)
type t = { name : string; start : seed:int -> (instance -> unit) -> unit }

let bump counts k n =
  Hashtbl.replace counts k (n + Option.value ~default:0 (Hashtbl.find_opt counts k))

let total o k = Option.value ~default:0 (List.assoc_opt k o.totals)

(* Fold a simulator trace ring into per-kind event counts (the per-layer
   "obs.*" metrics).  Refuses a ring that dropped events, since the
   counts would then be short.  Returns the last instruction sample:
   the interpreter emits one every 1024 retired instructions, so this
   is a floor, up to 1023 short of the ring's true count. *)
let count_obs counts obs =
  if Obs.dropped obs > 0 then
    failwith (Printf.sprintf "trace ring dropped %d events" (Obs.dropped obs));
  bump counts "obs.events" (Obs.total obs);
  let instr = ref 0 in
  List.iter
    (fun e ->
      let k =
        match e.Obs.kind with
        | Obs.Instr_sample { instret } ->
            if instret > !instr then instr := instret;
            None
        | Obs.Switcher_call _ -> Some "obs.switcher_calls"
        | Obs.Call_enter _ -> Some "obs.calls"
        | Obs.Irq_enter _ -> Some "obs.irqs"
        | Obs.Thread_dispatch _ -> Some "obs.dispatches"
        | Obs.Futex_wait _ -> Some "obs.futex_waits"
        | Obs.Sched_idle -> Some "obs.idle"
        | Obs.Revoker_quantum _ -> Some "obs.revoker_quanta"
        | Obs.Alloc _ -> Some "obs.allocs"
        | _ -> None
      in
      Option.iter (fun k -> bump counts k 1) k)
    (Obs.events obs);
  !instr
