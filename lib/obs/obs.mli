(** Cycle-attributed tracing: a bounded ring buffer of timestamped
    events, filled by the machine, switcher path, scheduler and
    allocator, folded after the run into per-compartment cycle
    attribution, Chrome [trace_event] JSON and a flat metrics table.

    Tracing is {e observationally invisible}: emitting an event never
    ticks the clock, touches simulated memory or changes control flow,
    so simulated cycle counts are bit-identical with a sink attached or
    not (enforced by the traced golden-cycles rule in [bench/dune] and
    the QCheck equivalence property in [test/test_obs_props.ml]). *)

(** What happened.  Every constructor names its subsystem of origin
    (see {!source_of}); the cycle stamp lives in {!event}. *)
type kind =
  | Instr_sample of { instret : int }  (** every 1024th retired instruction *)
  | Irq_enter of { irq : int }
  | Irq_exit of { irq : int }
  | Revoker_quantum of { granules : int; next : int }
      (** a sweep quantum that advanced past [granules] granules,
          stopping before granule index [next] *)
  | Revoker_done of { epoch : int }
  | Fault_note of { note : string }  (** fault-engine injection/arming *)
  | Switcher_call of { tid : int }  (** entering the interpreted call leg *)
  | Switcher_return of { tid : int }  (** entering the interpreted return leg *)
  | Switcher_abort of { tid : int }  (** the switcher leg trapped/rejected *)
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

val sample_mask : int
(** The {!Instr_sample} period, minus one: the interpreters emit a
    sample for each retired instruction whose instret [n] has
    [n land sample_mask = 0]. *)

val source_of : kind -> string
(** Emitting subsystem: ["interp"], ["machine"], ["fault"], ["kernel"],
    ["sched"] or ["alloc"]. *)

val pp_event : Format.formatter -> event -> unit
(** One fixed-width text line per event — the golden-trace format. *)

(* Sink: a fixed-capacity ring buffer.  When full, the *oldest* event is
   dropped; newer events are always retained. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 events. *)

val capacity : t -> int
val length : t -> int

val total : t -> int
(** Events ever emitted, including dropped ones. *)

val dropped : t -> int
(** [total - length]: oldest events overwritten by newer ones. *)

val emit : t -> cycle:int -> kind -> unit
val clear : t -> unit

val snapshot : t -> unit -> unit
(** [snapshot t] copies the ring (slots + head counter) and returns a
    thunk restoring it in place.  Building block of
    {!Machine.snapshot}. *)

val events : t -> event list
(** Retained events, oldest first (emission order). *)

val auto : unit -> t option
(** Sink described by the [CHERIOT_TRACE] environment variable: unset,
    empty or ["0"] — [None]; an integer > 1 — a sink of that capacity;
    anything else — a default-capacity sink.  [Machine.create] attaches
    one to every new machine, which is how the traced golden-cycles
    regression turns tracing on without touching the benchmarks.

    [CHERIOT_TRACE_CAP] overrides the ring capacity (so long fig7 runs
    can keep enough history for crash dumps): an integer in
    [\[16, 2^24\]].  Garbage or out-of-range values raise [Failure]
    with a message naming the bounds — never a silently truncated
    ring. *)

val ring_cap_env : unit -> int option
(** The validated [CHERIOT_TRACE_CAP] value, if set.  Raises [Failure]
    on garbage (see {!auto}). *)

(* Post-run folds *)

(** The call-stack state machine behind {!attribute} and the
    profiler: per-thread stacks of labels (innermost first) plus the
    scheduling phase.  A switcher leg pushes ["switcher"], an abort pops
    it, a compartment call replaces it with the callee, and leaving the
    callee pops it (and any switcher frames above it). *)
module Callstack : sig
  type phase = Boot | Idle | Thread of int
  (** Before the first scheduling event, run queue empty, or running
      the thread with this id. *)

  type t

  val create : unit -> t
  (** Phase [Boot], every stack empty. *)

  val step : t -> kind -> bool
  (** Apply one event: [Thread_dispatch], [Sched_idle], the
      [Switcher_*] and [Call_*] edges; every other kind is ignored.
      True when the live context may have changed: the phase moved or
      the running thread's stack did. *)

  val phase : t -> phase

  val stack : t -> int -> string list
  (** A thread's labels, innermost first. *)

  val snapshot : t -> unit -> unit
  (** Copy the machine; the thunk restores it in place. *)
end

val attribute : total_cycles:int -> event list -> (string * int) list
(** Fold the trace into per-compartment / per-subsystem cycle totals.
    Each inter-event delta is charged to the context active when it
    elapsed: ["boot"] until the first scheduling event, ["idle"] while
    the run queue is empty, ["switcher"] during interpreted switcher
    legs, the callee compartment inside a cross-compartment call, and
    ["kernel"] for dispatched threads outside any call.  The returned
    totals (sorted by label, zeros elided) sum to exactly
    [total_cycles] by construction. *)

val to_chrome : event list -> Json.t
(** Chrome [trace_event] JSON ({["traceEvents"]} array, ts = simulated
    cycle, pid 1, tid = thread id): compartment calls become B/E
    duration slices, everything else instant events, thread names as
    metadata records.  Load the output in [chrome://tracing] or
    Perfetto. *)

val metrics : total_cycles:int -> t -> Json.t
(** Flat metrics table: totals, drops, per-source and per-kind event
    counts, allocator byte counters and the {!attribute} fold. *)
