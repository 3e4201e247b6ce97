(** Interpreter for the {!Isa} subset, executing against a {!Machine}.

    Interpreted code (the switcher, test programs) lives in code segments
    — instruction arrays mapped at addresses outside SRAM, as firmware
    executed in place.  A jump whose target address falls outside every
    segment leaves the interpreter ([Exited]); the kernel uses such
    addresses as native trampolines for compartment entry points written
    in OCaml.

    Each executed instruction charges {!Cost.instr} plus memory costs.
    CHERI violations become [Trapped] outcomes carrying the faulting PC,
    exactly where the hardware would trap. *)

type t

type engine = [ `Legacy | `Superblock ]
(** The two execution back-ends:
    - [`Legacy]: the executable spec — a plain per-step fetch, decode
      and check of every instruction, kept deliberately simple as the
      equivalence oracle;
    - [`Superblock]: compiles each single-entry, multi-exit run into a
      fused closure ({!Superblock}) with bounds checks hoisted to block
      entry, memoized load-filter checks and tick batching under the
      event horizon.  Whenever a block precondition fails (too little
      fuel left for the whole block, a pcc too narrow for it) the
      dispatcher retires exactly one instruction on the [`Legacy]
      stepper and tries a block again at the next pc.

    Both are observationally identical (registers, cycles, instret,
    traps, trace events); the equivalence is pinned by the
    superblock-vs-legacy [test_interp_equiv] QCheck matrix. *)

val create : ?engine:engine -> Machine.t -> t
(** [engine] defaults to [`Superblock]. *)

val machine : t -> Machine.t

val map_segment : t -> base:int -> Isa.program -> unit
(** Map a program at [base] (4 bytes per instruction).  Overlap is a
    programming error. *)

val segment_base : t -> string -> int
(** Base address of a mapped program, by name. *)

(* The 16 merged registers live packed ({!Packed_cap}) in one flat int
   array so the hot loop never allocates; boxed [Capability.t] values
   are materialized only at this accessor boundary.  Register 0 reads
   as NULL; writes to it are discarded. *)

val get_reg : t -> int -> Capability.t
val set_reg : t -> int -> Capability.t -> unit

val read_regs : t -> Capability.t array
(** A fresh 16-element snapshot of the register file (not an alias:
    mutating the returned array does not touch the registers). *)

val clear_regs : t -> unit
(** Reset every register to NULL. *)

val get_special : t -> int -> Capability.t
val set_special : t -> int -> Capability.t -> unit
(** Direct access to special capability registers (reset/loader only;
    running code must use [Cspecialrw], which demands
    [Perm.System_registers]). *)

val instret : t -> int
(** Instructions retired since [create]. *)

val int_value : int -> Capability.t
(** An integer as a NULL-derived untagged capability. *)

val to_int : Capability.t -> int
(** Read a register value as an integer (its cursor). *)

type trap_cause = Cap_fault of Capability.violation | Software of string

type trap = { tcause : trap_cause; tpc : int }

val pp_trap : trap Fmt.t

type outcome =
  | Halted  (** executed [Halt] *)
  | Exited of Capability.t
      (** jumped to an address outside every segment; the capability is
          the (unsealed) jump target with posture applied *)
  | Trapped of trap

val run : ?fuel:int -> t -> Capability.t -> outcome
(** Jump to the capability (applying sentry semantics: data-sealed
    targets trap, sentries unseal and may switch the interrupt posture)
    and interpret until an outcome is reached.  [fuel] bounds the number
    of instructions (default 1_000_000) and exceeding it is a [Software]
    trap. *)

val block_shape : t -> int -> (int * bool) option
(** The superblock the dispatcher enters at this pc, compiled afresh:
    its length in instructions and whether it loops on itself (spins
    inside the compiled closure).  [None] outside every segment.  For
    structure tests; runs nothing. *)
