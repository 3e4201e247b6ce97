module Cap = Capability
module Pk = Packed_cap

(* Superblock compiler: the fast interpreter back-end.

   A superblock is a single-entry, multi-exit run of pre-decoded slots:
   from its entry (a jump target, or wherever the dispatcher lands) up
   to the next unconditional control transfer (J, Cjal, Cjalr, Halt,
   Trapif) or a conditional branch back to the block's own entry,
   inclusive.  Any other conditional branch is a mid-block exit: taken,
   it leaves the block at its target; not taken, it falls into the next
   closure.  On first execution the run is compiled into a single fused
   OCaml closure chain — one closure per instruction, each tail-calling
   the next — so the per-step dispatch, segment-range and PCC-bounds
   checks disappear from the hot path: the dispatcher in [Interp]
   validates the whole block's preconditions once at entry (for the
   full length, whichever exit is taken) and either runs the fused
   closure or side-exits, retiring one instruction on the legacy
   stepper (the executable spec) before it tries a block again.  The
   switcher's stack-zeroing loops (Cgetaddr; Beq out; Csc; Csc;
   Cincaddrimm; J back) are each one such block that spins on itself,
   and under deferral their back-edge retires every further full trip
   it can prove exit-free and fault-free in one step ([bulk_zero]), so
   a call pays per zeroed range, not per 16 zeroed bytes.

   Register file: the packed capability file ([Packed_cap]) — each
   register is four untagged ints (meta, base, top, cursor) in one flat
   [int array], so the steady-state arm bodies (ALU, branches, cached
   loads/stores, in-place derivations) perform zero minor-heap
   allocation and no GC write barriers.  Boxed [Cap.t] values appear
   only at boundaries: the threaded pcc, [Machine] memory authority on
   cache misses, Cjalr targets/links, special registers — all converted
   through the exact [pack]/[unpack] bijection.

   Equivalence contract (every rule here exists to keep registers,
   cycles, instret, trap cause + PC and the Obs event stream bit-
   identical to the legacy engine):

   - Per-run state (pcc, pending deferred cycles) is threaded through
     the closure chain as ARGUMENTS, never stored in [ctx].  A tick can
     suspend the whole run via the kernel's preemption effect and
     re-enter the interpreter for another thread; argument threading
     keeps each run's state in its own captured continuation.  The
     packed file itself is shared across interleaved runs exactly as
     the physical register file would be — the switcher saves and
     restores it around every context switch.

   - Deferred tick batching ([acc] >= 0) is only entered when the whole
     block's worst-case cost fits strictly below the machine's event
     horizon ([Machine.defer_window]) and no instruction it can retire
     is due an [Obs.Instr_sample] (the dispatcher's sample window, the
     same with or without a sink): then every elided tick would have
     taken the fast path (no listener, timer or IRQ delivery), nothing
     can observe the clock mid-block, and one batched tick at the
     terminator is exact.  A negative [acc] means "not deferring":
     every charge ticks immediately, which is the legacy behaviour
     instruction for instruction (and the only mode in which
     preemption, tracing samples or fault-injection listeners can fire
     mid-block).  A run that stops deferring mid-block encodes its
     remaining self-loop allowance in that negative value
     ([undeferred]), since a preempting run may then reuse
     [ctx.sspins].

   - Every exit hands back its pending batch in [sret_acc] and the
     number of instructions the trip retired in [sret_n] — the block's
     length at its final instruction, fewer at a mid-block exit — so
     the dispatcher charges fuel and counts self-loop trips exactly.

   - Every raise out of a compiled closure flushes pending cycles first,
     so a trapping block leaves the clock exactly where the legacy
     engine would.

   - Anything with an observer flushes before it runs and disables
     deferral after: MMIO device access (devices read the clock and
     raise IRQs) and a Csc of a tagged value (the tag-set hook settles
     the revoker against the live clock).  A Csc of an untagged value
     stays in the batch: it runs [Machine.store_cap]'s tick and checks
     on the packed slots ([Memory.store_untagged_packed]) and at most
     clears a tag, which fires no hook.  A tag clear commutes with the
     lazily settled revoker sweep (a sweep step only ever clears tags),
     and the cached horizon, computed from the next tagged granule the
     sweep will reach, can only become stale-early — the sweep finds
     fewer tags, never more — which [Machine.defer_window] treats as
     safe.

   - A bulk zeroing step stands for whole trips the per-trip chain
     would have run deferred: it takes only trips that [back] would
     admit, whose exit branch falls through and whose stores pass, and
     applies exactly their registers, memory, instret, cycles and
     spin-allowance effects; the trip after it runs on the chain (see
     [bulk_zero] and DESIGN.md).

   - The memoized load-filter caches (one per Lw/Sw slot) are valid iff
     the authorising capability is VALUE-unchanged (the four packed
     slots compare equal to the fill-time snapshot — the packed file
     has no stable physical identity to compare, and value equality is
     the stronger fact anyway: every check in the chain is a pure
     function of the capability's value) and [Memory.filter_epoch] is
     unchanged; the epoch bumps on every revocation-bit edit,
     load-filter toggle and snapshot restore, so a hit implies the full
     capability + alignment + filter check chain would succeed with the
     same outcome as at fill time.  The fill-time snapshot initialises
     with top = min_int, which no constructible capability carries
     (bounds are non-negative), so an empty cache matches nothing — in
     particular not a NULL register, whose authority must still fail
     the full check. *)

type dslot = { d_ins : Isa.instr; d_target : int (* -1 = no label operand *) }

(* One slot per word, label operands resolved to absolute addresses.
   [Isa.assemble] already verified that every referenced label exists,
   so resolution is total. *)
let decode prog ~base =
  let resolve l = base + (4 * Isa.label_index prog l) in
  Array.init (Isa.length prog) (fun i ->
      let ins = Isa.instr_at prog i in
      let tgt =
        match ins with
        | Isa.Beq (_, _, l)
        | Isa.Bne (_, _, l)
        | Isa.Bltu (_, _, l)
        | Isa.Bgeu (_, _, l)
        | Isa.J l
        | Isa.Cjal (_, l)
        | Isa.Auipcc (_, l) ->
            resolve l
        | _ -> -1
      in
      { d_ins = ins; d_target = tgt })

type trap_cause = Cap_fault of Cap.violation | Software of string

type trap = { tcause : trap_cause; tpc : int }

exception Trap_exn of trap

(* Shared execution state: the packed register file and counters both
   engines read and write in place.  [sjump] carries a Cjalr target
   from the terminator closure to the dispatcher, [sret_acc] the
   pending deferred-cycle batch that a block exit hands back instead of
   flushing, and [sret_n] how many instructions that trip retired (each
   written and read back-to-back with no tick in between, so a
   preempting run cannot clobber them).  Carrying
   the batch across blocks lets a tight loop make many trips on a
   single flush; the dispatcher re-validates [Machine.defer_window]
   against the carried batch plus the next block's worst case before
   every entry, so the eventual flush still lands strictly below the
   event horizon. *)
type ctx = {
  sm : Machine.t;
  smem : Memory.t;
  spk : int array;
  sspec : Cap.t array;
  mutable sinstret : int;
  mutable sjump : Cap.t;
  mutable sret_acc : int;
  mutable sret_n : int;
  mutable sspins : int;
}

let make_ctx machine =
  {
    sm = machine;
    smem = Machine.mem machine;
    spk = Pk.make 16;
    sspec = Array.make 3 Cap.null;
    sinstret = 0;
    sjump = Cap.null;
    sret_acc = -1;
    sret_n = 0;
    sspins = 0;
  }

(* Block exits, encoded as ints so the hot path never allocates: a
   non-negative value is the next pc (fall-through or branch target);
   [x_halt] is Halt; [x_jump] is a Cjalr whose unsealed target is in
   [ctx.sjump]. *)
let x_halt = -1
let x_jump = -2

type block = {
  b_len : int;  (* instructions in the block *)
  b_maxcost : int;  (* worst-case cycles: the defer_window precondition *)
  b_self : bool;  (* terminator's taken target is the block's own entry *)
  b_run : Cap.t -> int -> int;  (* pcc -> acc -> exit *)
}

let trap pc cause = raise (Trap_exn { tcause = cause; tpc = pc })
let cap_result pc = function Ok c -> c | Error v -> trap pc (Cap_fault v)

(* Sentry semantics shared by Cjalr and the external entry point: unseal
   sentries, apply interrupt-posture changes, and compute the backward
   sentry kind that restores the previous posture. *)
let apply_jump_target machine pc target =
  let module O = Cap.Otype in
  if not (Cap.tag target) then trap pc (Cap_fault Cap.Tag_violation);
  let prev = Machine.irq_enabled machine in
  let unsealed =
    match Cap.otype target with
    | O.Unsealed -> target
    | O.Data _ -> trap pc (Cap_fault Cap.Seal_violation)
    | O.Sentry k ->
        (match k with
        | O.Call_inherit -> ()
        | O.Call_disable | O.Return_disable -> Machine.set_irq_enabled machine false
        | O.Call_enable | O.Return_enable -> Machine.set_irq_enabled machine true);
        cap_result pc (Cap.unseal_sentry target)
  in
  if not (Cap.has_perm Perm.Execute unsealed) then
    trap pc (Cap_fault (Cap.Permit_violation Perm.Execute));
  let back_kind = if prev then O.Return_enable else O.Return_disable in
  (unsealed, back_kind)

(* acc discipline helpers.  [flushx] settles pending deferred cycles;
   the batch is below the horizon by the block precondition, so the tick
   takes the fast path and nothing fires inside it. *)
let[@inline] flushx m acc = if acc > 0 then Machine.tick m acc

let[@inline] charge m acc n =
  if acc >= 0 then acc + n
  else begin
    Machine.tick m n;
    acc
  end

(* Retire one instruction: charge Cost.instr, bump instret, and emit the
   periodic trace sample.  Tick-before-increment mirrors the legacy
   order exactly — a preemption inside the tick can retire other
   instructions, and the sample boundary must see the post-preemption
   count.  Under deferral no preemption is possible, so the inverted
   order is unobservable there. *)
let[@inline] retire ctx acc =
  if acc >= 0 then begin
    (* Deferred: the dispatcher admitted this run only inside the sample
       window, so no instret it retires is due a sample — skip the
       check. *)
    ctx.sinstret <- ctx.sinstret + 1;
    acc + Cost.instr
  end
  else begin
    Machine.tick ctx.sm Cost.instr;
    let n = ctx.sinstret + 1 in
    ctx.sinstret <- n;
    if n land Obs.sample_mask = 0 && Machine.tracing ctx.sm then
      Machine.emit ctx.sm (Obs.Instr_sample { instret = n });
    acc
  end

(* Stop deferring for the rest of the run, after flushing and before
   an access the clock must be live for.  Any negative [acc] means "not
   deferring"; the one built here also carries the spin allowance left
   at this moment, [-1 - ctx.sspins], read while the run is still
   atomic (the flush tick is below the horizon).  After the
   next real tick another run may reuse [ctx.sspins], and no later trip
   can spin (that needs [acc >= 0]), so this is the count the
   dispatcher must charge a self-loop's fuel by. *)
let[@inline] undeferred ctx acc = if acc >= 0 then -1 - ctx.sspins else acc

(* Hot-path packed accessors.  Unsafe indexing is sound because every
   slot array comes from [decode] of an [Isa.program], and
   [Isa.assemble], that type's only constructor, rejects register
   operands outside 0..15 and special-register indices outside 0..2.
   Register 0 reads all-zero slots (NULL) and the write guard discards
   stores to it. *)
let[@inline] ucur pk r = Array.unsafe_get pk ((r lsl 2) + 3)

let[@inline] uint pk rd v =
  if rd <> 0 then begin
    let o = rd lsl 2 in
    Array.unsafe_set pk o 0;
    Array.unsafe_set pk (o + 1) 0;
    Array.unsafe_set pk (o + 2) 0;
    Array.unsafe_set pk (o + 3) v
  end

let[@inline] ucopy pk rd rs =
  if rd <> 0 then begin
    let os = rs lsl 2 and od = rd lsl 2 in
    Array.unsafe_set pk od (Array.unsafe_get pk os);
    Array.unsafe_set pk (od + 1) (Array.unsafe_get pk (os + 1));
    Array.unsafe_set pk (od + 2) (Array.unsafe_get pk (os + 2));
    Array.unsafe_set pk (od + 3) (Array.unsafe_get pk (os + 3))
  end

(* Flush-then-raise: a trap must leave the clock where the legacy engine
   would, so pending deferred cycles are settled before the raise. *)
let trapfx m acc pc cause =
  flushx m acc;
  raise (Trap_exn { tcause = cause; tpc = pc })

let capfx m acc pc = function
  | Ok c -> c
  | Error v -> trapfx m acc pc (Cap_fault v)

(* Packed-derivation result check: non-zero codes decode to the exact
   boxed violation and trap with pending cycles flushed. *)
let[@inline] pkfx m acc pc code =
  if code <> 0 then trapfx m acc pc (Cap_fault (Pk.violation code))

(* Instructions that end a block: unconditional control flow, and a
   conditional branch back to the block's own entry (the back-edge of a
   tight loop, which spins inside the closure).  Any other conditional
   branch is a mid-block exit: taken, it leaves the block; not taken, it
   continues the chain. *)
let ends_block entry slot =
  match slot.d_ins with
  | Isa.J _ | Isa.Cjal _ | Isa.Cjalr _ | Isa.Halt | Isa.Trapif _ -> true
  | Isa.Beq _ | Isa.Bne _ | Isa.Bltu _ | Isa.Bgeu _ -> slot.d_target = entry
  | _ -> false

(* Leave the block: hand back the pending batch and the number of
   instructions this trip retired, then the exit code.  Both writes sit
   beside the return with no tick in between, so the dispatcher reads
   back exactly this trip's values. *)
let[@inline] leave ctx acc nr x =
  ctx.sret_acc <- acc;
  ctx.sret_n <- nr;
  x

(* A loop back-edge: re-enter the chain head for another trip while the
   dispatcher's spin allowance lasts and the batch plus one more
   worst-case trip stays under the horizon; otherwise leave with the
   full block retired. *)
let[@inline] back ctx head ~mc ~len pcc acc tgt =
  if acc >= 0 && ctx.sspins > 0 && Machine.defer_window ctx.sm (acc + mc) then begin
    ctx.sspins <- ctx.sspins - 1;
    !head pcc acc
  end
  else leave ctx acc len tgt

(* Bulk zeroing trips.  A self-looping block of the shape

     entry: Cgetaddr r, p
            Beq r, e, out
            Csc zero, 0(p) ... Csc zero, 8(k-1)(p)
            Cincaddrimm p, p, 8k
            J entry

   with r, p, e distinct (both switcher stack-zeroing loops, k = 2)
   stores an untagged zero over k granules per trip and changes no
   register but r's and p's cursors.  [zero_idiom] recognises it and
   returns (r, p, e, 8k).  r = 0 or p = 0 would make the trip's effect
   on them a no-op or a fault, so both are excluded. *)
let zero_idiom dec ~entry ~idx ~last =
  let ins j = (Array.unsafe_get dec j).d_ins in
  let k = last - idx - 3 in
  if k < 1 then None
  else
    match (ins idx, ins (idx + 1), ins (last - 1), ins last) with
    | Isa.Cgetaddr (r, p), Isa.Beq (r', e, _), Isa.Cincaddrimm (p', p'', step), Isa.J _
      when r' = r && p' = p && p'' = p
           && step = Memory.granule_size * k
           && dec.(last).d_target = entry
           && r <> 0 && p <> 0 && r <> p && e <> r && e <> p
           && List.for_all
                (fun j -> ins (idx + 2 + j) = Isa.Csc (0, Memory.granule_size * j, p))
                (List.init k Fun.id) ->
        Some (r, p, e, step)
    | _ -> None

(* At a zero idiom's back-edge, under deferral, retire in one step the
   largest number [n] of further full trips that the per-trip path
   would also have run deferred, without a fault and without taking
   the exit:
   - [back] admits trip i iff [sspins] covers it and acc + i*mc fits
     [Machine.defer_window] (a trip costs exactly its worst case [mc]:
     it has no Lw, Sw or MMIO access), so n <= sspins and
     acc + n*mc <= [Machine.defer_budget];
   - trip i's Beq compares p0 + (i-1)*stride with e's cursor, which no
     trip writes, so the exit stays untaken on trips 1..n iff
     n <= (e - p0) / stride whenever that distance is a non-negative
     multiple of the stride;
   - the stores' loop-invariant checks — tag, seal, Store, Mem_cap,
     granule alignment, the load filter on p's base — were just passed
     by the trip ending here, on the same p meta and base, the same
     cursor modulo 8 and the same revocation bits (only a tick edits
     them, and none runs under deferral), so they pass on every later
     trip; the bounds and SRAM-range tests are monotone in the address,
     and the lower ones held a stride below p0, so only the last
     store's upper tests bound n.
   The effect is one [Memory.zero_priv] (the same bytes, tags and tag
   count as n*k untagged zero stores), r = the last trip's cursor, p's
   cursor + n*stride, [len*n] instructions and [mc*n] cycles.  The exit
   trip, a faulting trip, and the trip [back] refuses for fuel or the
   horizon are left to the closure chain. *)
let bulk_zero ctx ~r ~p ~e ~stride ~len ~mc acc =
  let pk = ctx.spk and mem = ctx.smem in
  let op = p lsl 2 in
  let p0 = Array.unsafe_get pk (op + 3) in
  let top = min (Array.unsafe_get pk (op + 2)) (Memory.base mem + Memory.size mem) in
  let n = min ctx.sspins ((Machine.defer_budget ctx.sm - acc) / mc) in
  let n = min n ((top - p0) / stride) in
  let d = ucur pk e - p0 in
  let n = if d >= 0 && d mod stride = 0 then min n (d / stride) else n in
  if n > 0 then begin
    let bytes = n * stride in
    Memory.zero_priv mem ~addr:p0 ~len:bytes;
    uint pk r (p0 + bytes - stride);
    Array.unsafe_set pk (op + 3) (p0 + bytes);
    ctx.sinstret <- ctx.sinstret + (len * n);
    ctx.sspins <- ctx.sspins - n;
    acc + (mc * n)
  end
  else acc

(* Worst-case cycle cost of one instruction, for the defer_window
   precondition (mem_cap = mmio = 3 dominates mem_word). *)
let instr_maxcost = function
  | Isa.Lw _ | Isa.Sw _ | Isa.Clc _ | Isa.Csc _ -> Cost.instr + Cost.mem_cap
  | _ -> Cost.instr

let compile ctx dec ~base ~idx =
  let m = ctx.sm and mem = ctx.smem and pk = ctx.spk in
  let n = Array.length dec in
  let entry = base + (4 * idx) in
  let stop =
    let rec f j = if j >= n then n else if ends_block entry dec.(j) then j else f (j + 1) in
    f idx
  in
  let last = if stop >= n then n - 1 else stop in
  let len = last - idx + 1 in
  let maxcost = ref 0 in
  for j = idx to last do
    maxcost := !maxcost + instr_maxcost dec.(j).d_ins
  done;
  let mc = !maxcost in
  (* Self-loop support: when the block's final instruction jumps back to
     its own entry, it re-enters the chain head directly (knot tied
     through [head]) for up to [ctx.sspins] extra trips, each trip
     re-checking the event horizon against the accumulated batch.
     Deferred execution is atomic — every tick inside it is below the
     horizon, so it takes the fast path and cannot run effects — which
     is what makes the [sspins] counter sound: nothing can preempt
     mid-spin, and the dispatcher caps [sspins] to the sample window, so
     no spin crosses an [Obs.Instr_sample].  A trip that
     leaves early through a mid-block exit reports its own length in
     [sret_n]; every completed trip retired exactly [len]. *)
  let head = ref (fun (_ : Cap.t) (_ : int) -> x_halt) in
  let self = ref false in
  let idiom = zero_idiom dec ~entry ~idx ~last in
  let rec build j : Cap.t -> int -> int =
    if j > last then
      (* No terminator before the segment end: fall off; the dispatcher
         re-checks segment and bounds at the returned pc, exactly as the
         legacy stepper would on its next step. *)
      let fall = base + (4 * j) in
      fun _pcc acc -> leave ctx acc len fall
    else begin
      let slot = Array.unsafe_get dec j in
      let pc = base + (4 * j) in
      let nr = j - idx + 1 in
      match slot.d_ins with
      (* --- straight-line instructions: call the continuation --- *)
      | Isa.Li (rd, v) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd v;
            k pcc acc
      | Isa.Mv (rd, rs) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            ucopy pk rd rs;
            k pcc acc
      | Isa.Addi (rd, rs, v) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk rs + v);
            k pcc acc
      | Isa.Add (rd, a, b) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk a + ucur pk b);
            k pcc acc
      | Isa.Sub (rd, a, b) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk a - ucur pk b);
            k pcc acc
      | Isa.Andi (rd, rs, v) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk rs land v);
            k pcc acc
      | Isa.Lw (rd, imm, rs) ->
          let os = rs lsl 2 in
          (* Fill-time value snapshot of the authorising register plus
             the filter epoch and raw word offset; c_t = min_int marks
             the cache empty (no constructible top is negative). *)
          let c_m = ref 0 and c_b = ref 0 and c_t = ref min_int
          and c_c = ref 0 in
          let c_ep = ref (-1) and c_off = ref 0 in
          let k = build (j + 1) in
          fun pcc acc ->
            let am = Array.unsafe_get pk os
            and ab = Array.unsafe_get pk (os + 1)
            and at = Array.unsafe_get pk (os + 2)
            and ac = Array.unsafe_get pk (os + 3) in
            let hit = at = !c_t && ac = !c_c && am = !c_m && ab = !c_b in
            if acc >= 0 && hit && Memory.filter_epoch mem = !c_ep then begin
              (* Deferred cache hit: same capability value => the same
                 address, and same filter epoch => the full check chain
                 has the same (passing) outcome as at fill time; go
                 straight to the raw word at the cached offset, with
                 retire and charge fused into one batched add. *)
              ctx.sinstret <- ctx.sinstret + 1;
              uint pk rd (Memory.load32_off mem !c_off);
              k pcc (acc + (Cost.instr + Cost.mem_word))
            end
            else begin
              let acc = retire ctx acc in
              if hit then begin
                (* Cached authority: [Machine.load]'s pre-tick capability
                   check passed at fill time for this same capability
                   value, so it passes now.  Charge the memory cost
                   first — a real tick here can run a listener or deliver
                   an interrupt that edits revocation bits — then re-run
                   the post-tick filter check exactly where the checked
                   path runs it. *)
                let acc = charge m acc Cost.mem_word in
                if Memory.filter_epoch mem = !c_ep then begin
                  uint pk rd (Memory.load32_off mem !c_off);
                  k pcc acc
                end
                else begin
                  let auth = Pk.unpack pk rs in
                  let addr = ac + imm in
                  (try
                     Memory.check_aligned_filtered mem ~auth ~addr ~size:4
                       Memory.Read
                   with e ->
                     flushx m acc;
                     raise e);
                  c_ep := Memory.filter_epoch mem;
                  uint pk rd (Memory.load32_off mem !c_off);
                  k pcc acc
                end
              end
              else begin
                let auth = Pk.unpack pk rs in
                let addr = ac + imm in
                if Machine.in_sram m addr then begin
                  let v =
                    try Machine.load m ~auth ~addr ~size:4
                    with e ->
                      flushx m acc;
                      raise e
                  in
                  c_m := am;
                  c_b := ab;
                  c_t := at;
                  c_c := ac;
                  c_ep := Memory.filter_epoch mem;
                  c_off := Memory.word_offset mem addr;
                  uint pk rd v;
                  k pcc acc
                end
                else begin
                  (* MMIO (or unmapped): the device observes the clock and
                     may raise IRQs — flush first, stop deferring after. *)
                  flushx m acc;
                  let acc = undeferred ctx acc in
                  let v = Machine.load m ~auth ~addr ~size:4 in
                  uint pk rd v;
                  k pcc acc
                end
              end
            end
      | Isa.Sw (rs2, imm, rs1) ->
          let os = rs1 lsl 2 in
          let c_m = ref 0 and c_b = ref 0 and c_t = ref min_int
          and c_c = ref 0 in
          let c_ep = ref (-1) and c_off = ref 0 in
          let k = build (j + 1) in
          fun pcc acc ->
            let am = Array.unsafe_get pk os
            and ab = Array.unsafe_get pk (os + 1)
            and at = Array.unsafe_get pk (os + 2)
            and ac = Array.unsafe_get pk (os + 3) in
            let hit = at = !c_t && ac = !c_c && am = !c_m && ab = !c_b in
            if acc >= 0 && hit && Memory.filter_epoch mem = !c_ep then begin
              ctx.sinstret <- ctx.sinstret + 1;
              Memory.store32_off mem !c_off (ucur pk rs2);
              k pcc (acc + (Cost.instr + Cost.mem_word))
            end
            else begin
              let acc = retire ctx acc in
              if hit then begin
                (* Same post-tick re-validation as the Lw path: charge,
                   then re-check the filter epoch the tick may have
                   moved. *)
                let acc = charge m acc Cost.mem_word in
                if Memory.filter_epoch mem = !c_ep then begin
                  Memory.store32_off mem !c_off (ucur pk rs2);
                  k pcc acc
                end
                else begin
                  let auth = Pk.unpack pk rs1 in
                  let addr = ac + imm in
                  (try
                     Memory.check_aligned_filtered mem ~auth ~addr ~size:4
                       Memory.Write
                   with e ->
                     flushx m acc;
                     raise e);
                  c_ep := Memory.filter_epoch mem;
                  Memory.store32_off mem !c_off (ucur pk rs2);
                  k pcc acc
                end
              end
              else begin
                let auth = Pk.unpack pk rs1 in
                let addr = ac + imm in
                if Machine.in_sram m addr then begin
                  (try Machine.store m ~auth ~addr ~size:4 (ucur pk rs2)
                   with e ->
                     flushx m acc;
                     raise e);
                  c_m := am;
                  c_b := ab;
                  c_t := at;
                  c_c := ac;
                  c_ep := Memory.filter_epoch mem;
                  c_off := Memory.word_offset mem addr;
                  k pcc acc
                end
                else begin
                  flushx m acc;
                  let acc = undeferred ctx acc in
                  Machine.store m ~auth ~addr ~size:4 (ucur pk rs2);
                  k pcc acc
                end
              end
            end
      | Isa.Clc (rd, imm, rs) ->
          let os = rs lsl 2 in
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            (* The authority is read before the memory tick, as the
               boxed path unpacks it before [Machine.load_cap] ticks. *)
            let am = Array.unsafe_get pk os
            and ab = Array.unsafe_get pk (os + 1)
            and at = Array.unsafe_get pk (os + 2)
            and ac = Array.unsafe_get pk (os + 3) in
            let acc = charge m acc Cost.mem_cap in
            let v =
              try Memory.load_cap_packed mem ~am ~ab ~at ~addr:(ac + imm)
              with e ->
                flushx m acc;
                raise e
            in
            Pk.pack pk rd v;
            k pcc acc
      | Isa.Csc (rs2, imm, rs1) ->
          let oa = rs1 lsl 2 and ov = rs2 lsl 2 in
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            let vm = Array.unsafe_get pk ov in
            if Pk.m_tag vm then begin
              (* A tag appears: the tag-set hook settles the revoker
                 against the live clock, so flush first and stop
                 deferring after. *)
              flushx m acc;
              let acc = undeferred ctx acc in
              let auth = Pk.unpack pk rs1 in
              Machine.store_cap m ~auth ~addr:(Cap.address auth + imm)
                (Pk.unpack pk rs2);
              k pcc acc
            end
            else begin
              (* Untagged value: [Machine.store_cap]'s tick and checks on
                 the packed slots, read before the tick like the boxed
                 path's operands.  Clearing a tag fires no hook, so the
                 store stays inside the deferred batch. *)
              let am = Array.unsafe_get pk oa
              and ab = Array.unsafe_get pk (oa + 1)
              and at = Array.unsafe_get pk (oa + 2)
              and ac = Array.unsafe_get pk (oa + 3)
              and vb = Array.unsafe_get pk (ov + 1)
              and vt = Array.unsafe_get pk (ov + 2)
              and vc = Array.unsafe_get pk (ov + 3) in
              let acc = charge m acc Cost.mem_cap in
              (try
                 Memory.store_untagged_packed mem ~am ~ab ~at ~addr:(ac + imm)
                   ~vm ~vb ~vt ~vc
               with e ->
                 flushx m acc;
                 raise e);
              k pcc acc
            end
      | Isa.Cincaddr (rd, a, b) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.incr_addr pk ~dst:rd ~src:a (ucur pk b));
            k pcc acc
      | Isa.Cincaddrimm (rd, a, v) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.incr_addr pk ~dst:rd ~src:a v);
            k pcc acc
      | Isa.Csetaddr (rd, a, b) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_addr pk ~dst:rd ~src:a (ucur pk b));
            k pcc acc
      | Isa.Csetbounds (rd, a, b) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_bounds pk ~dst:rd ~src:a (ucur pk b));
            k pcc acc
      | Isa.Csetboundsimm (rd, a, v) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.set_bounds pk ~dst:rd ~src:a v);
            k pcc acc
      | Isa.Candperm (rd, a, mask) ->
          let k = build (j + 1) in
          let pset = Perm.Set.of_bits mask in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.and_perms pk ~dst:rd ~src:a pset);
            k pcc acc
      | Isa.Cgetaddr (rd, a) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (ucur pk a);
            k pcc acc
      | Isa.Cgetbase (rd, a) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.base pk a);
            k pcc acc
      | Isa.Cgetlen (rd, a) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.length pk a);
            k pcc acc
      | Isa.Cgettag (rd, a) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.tag_bit pk a);
            k pcc acc
      | Isa.Cgettype (rd, a) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            (* The packed otype code IS the architectural CGetType
               encoding. *)
            uint pk rd (Pk.otype_code pk a);
            k pcc acc
      | Isa.Cgetperm (rd, a) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            uint pk rd (Pk.perm_bits pk a);
            k pcc acc
      | Isa.Cseal (rd, a, key) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.seal pk ~dst:rd ~src:a ~key);
            k pcc acc
      | Isa.Cunseal (rd, a, key) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.unseal pk ~dst:rd ~src:a ~key);
            k pcc acc
      | Isa.Csealentry (rd, a, kind) ->
          let k = build (j + 1) in
          let code = Cap.sentry_code kind in
          fun pcc acc ->
            let acc = retire ctx acc in
            pkfx m acc pc (Pk.seal_entry pk ~dst:rd ~src:a code);
            k pcc acc
      | Isa.Auipcc (rd, _) ->
          let k = build (j + 1) in
          let tgt = slot.d_target in
          fun pcc acc ->
            let acc = retire ctx acc in
            Pk.pack pk rd (capfx m acc pc (Cap.with_address pcc tgt));
            k pcc acc
      | Isa.Cspecialrw (rd, sidx, rs) ->
          let k = build (j + 1) in
          let spec = ctx.sspec in
          fun pcc acc ->
            let acc = retire ctx acc in
            if not (Cap.has_perm Perm.System_registers pcc) then
              trapfx m acc pc
                (Cap_fault (Cap.Permit_violation Perm.System_registers));
            let old = Array.unsafe_get spec sidx in
            if rs <> 0 then Array.unsafe_set spec sidx (Pk.unpack pk rs);
            Pk.pack pk rd old;
            k pcc acc
      | Isa.Ccleartag (rd, a) ->
          let k = build (j + 1) in
          fun pcc acc ->
            let acc = retire ctx acc in
            Pk.clear_tag pk ~dst:rd ~src:a;
            k pcc acc
      (* --- control flow: mid-block exits and terminators --- *)
      | Isa.Beq (a, b, _) | Isa.Bne (a, b, _) | Isa.Bltu (a, b, _)
      | Isa.Bgeu (a, b, _) ->
          let tpc = slot.d_target and fpc = pc + 4 in
          (* One closure per opcode, so the hot path compares two ints
             directly. *)
          if tpc = entry then begin
            (* Loop back-edge: always the block's last instruction. *)
            self := true;
            match slot.d_ins with
            | Isa.Beq _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a = ucur pk b then back ctx head ~mc ~len pcc acc tpc
                  else leave ctx acc nr fpc
            | Isa.Bne _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a <> ucur pk b then back ctx head ~mc ~len pcc acc tpc
                  else leave ctx acc nr fpc
            | Isa.Bltu _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a < ucur pk b then back ctx head ~mc ~len pcc acc tpc
                  else leave ctx acc nr fpc
            | _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a >= ucur pk b then back ctx head ~mc ~len pcc acc tpc
                  else leave ctx acc nr fpc
          end
          else begin
            let k = build (j + 1) in
            match slot.d_ins with
            | Isa.Beq _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a = ucur pk b then leave ctx acc nr tpc
                  else k pcc acc
            | Isa.Bne _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a <> ucur pk b then leave ctx acc nr tpc
                  else k pcc acc
            | Isa.Bltu _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a < ucur pk b then leave ctx acc nr tpc
                  else k pcc acc
            | _ ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  if ucur pk a >= ucur pk b then leave ctx acc nr tpc
                  else k pcc acc
          end
      | Isa.J _ ->
          let tgt = slot.d_target in
          if tgt = entry then begin
            self := true;
            match idiom with
            | Some (r, p, e, stride) ->
                fun pcc acc ->
                  let acc = retire ctx acc in
                  let acc =
                    if acc >= 0 then bulk_zero ctx ~r ~p ~e ~stride ~len ~mc acc
                    else acc
                  in
                  back ctx head ~mc ~len pcc acc tgt
            | None -> fun pcc acc -> back ctx head ~mc ~len pcc (retire ctx acc) tgt
          end
          else fun _pcc acc -> leave ctx (retire ctx acc) nr tgt
      | Isa.Cjal (rd, _) ->
          let tgt = slot.d_target in
          fun pcc acc ->
            let acc = retire ctx acc in
            if rd <> 0 then begin
              let kind =
                if Machine.irq_enabled m then Cap.Otype.Return_enable
                else Cap.Otype.Return_disable
              in
              Pk.pack pk rd
                (Cap.exn (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) kind))
            end;
            leave ctx acc nr tgt
      | Isa.Cjalr (rd, rs) ->
          fun pcc acc ->
            let acc = retire ctx acc in
            flushx m acc;
            let target = Pk.unpack pk rs in
            let unsealed, back_kind = apply_jump_target m pc target in
            if rd <> 0 then
              Pk.pack pk rd
                (Cap.exn
                   (Cap.seal_entry (Cap.with_address_exn pcc (pc + 4)) back_kind));
            ctx.sjump <- unsealed;
            leave ctx (-1) nr x_jump
      | Isa.Halt ->
          fun _pcc acc ->
            flushx m (retire ctx acc);
            leave ctx (-1) nr x_halt
      | Isa.Trapif cause ->
          fun _pcc acc ->
            let acc = retire ctx acc in
            flushx m acc;
            trap pc (Software cause)
    end
  in
  let f = build idx in
  head := f;
  { b_len = len; b_maxcost = mc; b_self = !self; b_run = f }
