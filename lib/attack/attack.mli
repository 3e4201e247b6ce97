(** Directed attacker-model campaigns, run differentially on the
    CHERIoT machine and the MPU baseline (ROADMAP item 5).

    Where lib/fault injects *random* faults, this library runs
    *directed* attack scenarios — one per family below — twice per
    seed: once against a four-compartment CHERIoT firmware image
    (driver, attacker, victim, netd) on the full simulator, and once
    against a structurally matched task layout on {!Mpu_baseline}.  An
    oracle then classifies each run into the containment matrix the
    CompartOS / Kressel et al. comparisons use:

    - [Trapped]: the hardware stopped the attack with an architectural
      fault (a CHERI trap with a {!Forensics} crash dump, or an MPU
      region fault);
    - [Contained]: the attack ran but produced no architecturally
      observable damage outside the attacker's own compartment;
    - [Corrupted_neighbour]: memory owned by another compartment (heap
      canary, planted secret, a victim's live object) was modified;
    - [Owned]: the victim's secret reached an attacker-observable
      surface (the attacker's memory, or the network reply ring).
    - [Benign] is reachable only by negative-control runs
      ([~armed:false]), where the same scenario runs with the exploit
      payload disarmed — catching oracles that would flag their own
      instrumentation.

    Oracle soundness (see DESIGN.md): every verdict derives only from
    architecturally observable state — trap records/crash dumps, and
    memory contents read through privileged physical accessors — never
    from attacker-side bookkeeping such as success flags.

    Everything a scenario does derives from its seed, and every CHERIoT
    run boots its own machine, so outcomes (verdict, evidence, journal,
    dump fields) are byte-identical across runs and across [--jobs]
    values. *)

type family =
  | Uaf_reachback
      (** heap use-after-free: reach back through a dangling capability
          (directly, or via a stash-and-reload across the load filter)
          vs. the baseline's immediate-reuse allocator *)
  | Type_confusion
      (** compartment-interface confusion: a wrong-typed or forged
          sealed object handed to a victim service, or a direct
          dereference of a sealed capability, vs. a baseline service
          that trusts raw address handles *)
  | Frame_overflow
      (** network-stack overflow: the ping-of-death generalized into
          the {!Netsim.tlv_frame} malformed-frame family against a
          parser that trusts the claimed length *)
  | Secret_exfil
      (** stack/TLS-secret exfiltration: rummaging the shared call
          stack after the victim used it, out-of-bounds reads, and
          MPU region-rounding over-privilege *)

type model = Cheriot | Mpu

type verdict = Benign | Trapped | Contained | Corrupted_neighbour | Owned

val families : family list
val models : model list
val verdicts : verdict list

val family_name : family -> string
val family_of_name : string -> family option
val model_name : model -> string
val model_of_name : string -> model option
val verdict_name : verdict -> string

val severity : verdict -> int
(** Containment order: [Benign] 0 < [Trapped] 1 < [Contained] 2 <
    [Corrupted_neighbour] 3 < [Owned] 4.  Lower is better for the
    defender. *)

type outcome = {
  at_family : family;
  at_model : model;
  at_seed : int;
  at_armed : bool;
  at_verdict : verdict;
  at_evidence : string list;
      (** the oracle's observations, deterministic per seed *)
  at_cycles : int;  (** simulated cycles at the end of the run *)
  at_dumps : Forensics.dump list;
      (** CHERIoT flight-recorder dumps for this run (empty on [Mpu]) *)
  at_journal : string list;
      (** machine input journal — cycle-stamped frame deliveries and
          IRQ raises (empty on [Mpu], which has no input boundary) *)
  at_metrics : Agg.t;
      (** metrics snapshot of this run ([Agg.empty] on [Mpu], which has
          no flight recorder); merged in submission order for the
          fleet rollup *)
}

val run_one :
  ?armed:bool -> family:family -> model:model -> seed:int -> unit -> outcome
(** One scenario, a pure function of [(family, model, seed, armed)].
    A CHERIoT run boots a fresh machine — exactly what {!run_matrix}
    does for each cell — so a matrix cell replays bit-exactly.  [armed] defaults to [true]; [false] runs the
    negative control (the same scenario with the exploit payload
    disarmed), which must classify [Benign] on both models. *)

val run_matrix :
  ?jobs:int -> ?armed:bool -> base_seed:int -> n:int -> unit -> outcome list
(** Run every family on both models over seeds
    [base_seed .. base_seed + n - 1]: one {!run_one} task per
    [(family, model, seed)], farmed over [jobs] domains
    ({!Farm.map_list}).  Outcomes are ordered family-major, then
    model ([Cheriot] before [Mpu]), then seed — byte-identical for
    every job count. *)

val cheriot_strictly_better : outcome list -> family list
(** Families where, seed-for-seed, the CHERIoT verdict is never worse
    ({!severity}) than the MPU baseline's and strictly better for at
    least one seed. *)

val containment_failures : outcome list -> outcome list
(** The [Corrupted_neighbour] / [Owned] cells, in matrix order — every
    one carries its replayable seed and forensic evidence. *)

val render_matrix : outcome list -> string
(** The containment matrix as a fixed-width table plus the failure
    list (each line naming the seed to replay) and the
    strictly-better summary.  Deterministic; diffed byte-for-byte by
    test/golden_attack_matrix.expected and `make attack-smoke`. *)

val matrix_json : outcome list -> Json.t
(** The same data as {!render_matrix} for `bench -- attack-matrix
    --json`: per-cell verdict counts, per-failure seed + evidence +
    dump briefs, and the strictly-better family list. *)
