(* Equivalence lockdown for the interpreter back-ends: on randomized
   programs, the superblock-compiled engine must agree with the legacy
   per-step fetch/decode stepper, the executable spec, on everything
   observable — final registers, instructions retired, simulated cycles,
   outcome (including trap cause and faulting PC) and the emitted trace
   event stream.  The golden-cycles files pin the real workloads; this
   suite explores the weird corners (bound-edge branches, traps
   mid-loop, fuel exhaustion, sentry jumps) the workloads never reach,
   plus the corners specific to superblock compilation: an IRQ firing
   mid-block, a fault injected mid-block by external hardware, fuel
   running out inside a block and a pcc cut short of a block's end (both
   side-exit into the legacy stepper for one instruction, then re-enter
   compiled dispatch), filter-epoch invalidation between two executions
   of the same warm compiled block, and multi-exit blocks — a self-loop
   that leaves through a mid-block branch, with fuel running out after
   that branch.  Every program runs twice per engine: traced (the Obs
   event stream is compared, [Instr_sample] cycle stamps included) and
   untraced, both on the same deferred-batching path, and the final
   SRAM bytes and tags are compared too.  Runs that start just below a
   sample boundary pin the dispatcher's sample window: a deferred run
   must never retire an instruction that is due a sample. *)

module Cap = Capability

let code_base = 0x4000_0000

(* ------------------------------------------------------------------ *)
(* Random program generation                                          *)
(* ------------------------------------------------------------------ *)

(* Registers 1..5 are scratch integers, 6 is a data capability over
   SRAM, 7 a deliberately narrow data capability, 8 a sentry back to the
   code segment, 9 a data-sealed capability, 10 an authority whose base
   granule is revoked (the load filter refuses it), 11 a stack-like
   capability (no Global, Store_local), 13 a load-only one without
   Load_global/Load_mutable (loads through it attenuate), 14 a data one
   without Mem_cap, 12 a data one straddling the top of SRAM (random
   programs never use it; the zero-idiom generator does).  SRAM starts with tagged capabilities in its first
   granules.  Branch targets come from a fixed label pool placed at
   random positions, so [Isa.assemble] always validates. *)

let n_labels = 4

let gen_instr rng labels =
  let reg () = 1 + Random.State.int rng 5 in
  let label () = List.nth labels (Random.State.int rng (List.length labels)) in
  let small () = Random.State.int rng 64 - 8 in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let cap_off () =
    (8 * Random.State.int rng 16) + if Random.State.int rng 8 = 0 then 4 else 0
  in
  let cap_auth () = pick [| 6; 6; 6; 7; 8; 9; 10; 11; 13; 14 |] in
  match Random.State.int rng 112 with
  | n when n < 10 -> Isa.Li (reg (), Random.State.int rng 1000)
  | n when n < 18 -> Isa.Addi (reg (), reg (), small ())
  | n when n < 24 -> Isa.Add (reg (), reg (), reg ())
  | n when n < 28 -> Isa.Sub (reg (), reg (), reg ())
  | n when n < 32 -> Isa.Andi (reg (), reg (), Random.State.int rng 255)
  | n when n < 36 -> Isa.Mv (reg (), reg ())
  | n when n < 44 -> Isa.Beq (reg (), reg (), label ())
  | n when n < 50 -> Isa.Bne (reg (), reg (), label ())
  | n when n < 54 -> Isa.Bltu (reg (), reg (), label ())
  | n when n < 58 -> Isa.Bgeu (reg (), reg (), label ())
  | n when n < 62 -> Isa.J (label ())
  | n when n < 68 ->
      (* mostly in-bounds loads/stores through r6; r7 is narrow, so the
         same offsets exercise the capability-fault path *)
      let auth = if Random.State.int rng 4 = 0 then 7 else 6 in
      Isa.Lw (reg (), 4 * Random.State.int rng 40, auth)
  | n when n < 74 ->
      let auth = if Random.State.int rng 4 = 0 then 7 else 6 in
      Isa.Sw (reg (), 4 * Random.State.int rng 40, auth)
  | n when n < 78 -> Isa.Cincaddrimm (reg (), 6, small ())
  | n when n < 81 -> Isa.Csetboundsimm (reg (), 6, Random.State.int rng 128)
  | n when n < 84 -> Isa.Cgetaddr (reg (), 6)
  | n when n < 86 -> Isa.Cgetlen (reg (), 7)
  | n when n < 88 -> Isa.Cgettag (reg (), reg ())
  | n when n < 90 -> Isa.Cgetperm (reg (), 6)
  | n when n < 92 ->
      (* sealed sources make sealed untagged values for Csc to store *)
      Isa.Ccleartag (reg (), pick [| reg (); 8; 9 |])
  | n when n < 94 -> Isa.Cjal (reg (), label ())
  | n when n < 96 -> Isa.Auipcc (reg (), label ())
  | n when n < 97 -> Isa.Cjalr (reg (), 8)
  | n when n < 98 -> Isa.Trapif "generated"
  | n when n < 100 -> Isa.Halt
  | n when n < 107 ->
      (* untagged sources (r0, an integer, a cleared tag) take the
         packed store path, tagged ones the boxed path; authorities
         are wide, narrow, sealed, filter-revoked, stack-like, load-only
         or without Mem_cap, at granule offsets with an occasional
         misalignment *)
      Isa.Csc (pick [| 0; 0; reg (); reg (); 6; 9; 11 |], cap_off (), cap_auth ())
  | _ -> Isa.Clc (reg (), cap_off (), cap_auth ())

let gen_program rng =
  let len = 8 + Random.State.int rng 32 in
  let labels = List.init n_labels (fun i -> Printf.sprintf "L%d" i) in
  (* Each label lands at a random instruction index. *)
  let label_at = Array.make len [] in
  List.iter
    (fun l ->
      let i = Random.State.int rng len in
      label_at.(i) <- l :: label_at.(i))
    labels;
  let items = ref [] in
  for i = len - 1 downto 0 do
    items := Isa.I (gen_instr rng labels) :: !items;
    List.iter (fun l -> items := Isa.L l :: !items) label_at.(i)
  done;
  (* Halt backstop so straight-line fall-through off the end (a legal
     Bounds trap) isn't the only way out. *)
  let prog = Isa.assemble ~name:"equiv" (!items @ [ Isa.I Isa.Halt ]) in
  (* About a quarter of programs enter under a pcc whose top is cut at a
     random instruction boundary inside the program: blocks reaching past
     the cut side-exit into the legacy stepper one instruction at a
     time, while blocks below it still run compiled. *)
  let cut =
    if Random.State.int rng 4 = 0 then Some (1 + Random.State.int rng len)
    else None
  in
  (prog, cut)

(* ------------------------------------------------------------------ *)
(* One run under any engine                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  s_outcome : string;
  s_instret : int;
  s_cycles : int;
  s_regs : string list;
  s_events : string list;
  s_mem : string list;  (** digest of the first KiB of SRAM, then its tags *)
}

let outcome_to_string = function
  | Interp.Halted -> "halted"
  | Interp.Exited c -> "exited " ^ Cap.to_string c
  | Interp.Trapped tr -> Fmt.str "%a" Interp.pp_trap tr

let mem_view machine =
  let mem = Machine.mem machine in
  let sram = Machine.sram_base machine in
  let bytes =
    String.init 1024 (fun i ->
        Char.chr (Memory.load_priv mem ~addr:(sram + i) ~size:1))
  in
  let tags = ref [] in
  Memory.iter_caps mem (fun ~addr c ->
      tags := Printf.sprintf "%x=%s" addr (Cap.to_string c) :: !tags);
  Digest.to_hex (Digest.string bytes)
  :: string_of_int (Memory.tagged_granule_count mem)
  :: List.rev !tags

let view machine obs interp outcome =
  {
    s_outcome = outcome_to_string outcome;
    s_instret = Interp.instret interp;
    s_cycles = Machine.cycles machine;
    s_regs = Array.to_list (Array.map Cap.to_string (Interp.read_regs interp));
    s_events =
      (match obs with
      | Some o -> List.map (Fmt.str "%a" Obs.pp_event) (Obs.events o)
      | None -> []);
    s_mem = mem_view machine;
  }

(* A traced machine records the Obs stream; an untraced one has no sink.
   Both take the same engine path: deferral depends on the sample
   window, never on whether a sink is attached. *)
let traced_machine traced =
  let machine = Machine.create () in
  let obs = if traced then Some (Obs.create ()) else None in
  Machine.set_trace machine obs;
  (machine, obs)

(* The data registers (r6, r7, r9-r14) and the initial SRAM
   image described above [gen_instr]. *)
let setup_data machine interp =
  let sram = Machine.sram_base machine in
  let mem = Machine.mem machine in
  let rw = Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write in
  let stack =
    Cap.make_root ~base:(sram + 256) ~top:(sram + 512) ~perms:Perm.Set.stack
  in
  let key =
    Cap.with_address_unsealed
      (Cap.make_sealing_root ~first:Cap.Otype.data_first
         ~last:Cap.Otype.data_last)
      Cap.Otype.data_first
  in
  Interp.set_reg interp 6 rw;
  Interp.set_reg interp 7
    @@ Cap.make_root ~base:(sram + 64) ~top:(sram + 96) ~perms:Perm.Set.read_write;
  Interp.set_reg interp 9
    @@ Cap.exn (Cap.seal ~key (Cap.with_address_unsealed rw (sram + 128)));
  Interp.set_reg interp 10
    @@ Cap.make_root ~base:(sram + 512) ~top:(sram + 640) ~perms:Perm.Set.read_write;
  Interp.set_reg interp 11 stack;
  Interp.set_reg interp 13
    @@ Cap.make_root ~base:sram ~top:(sram + 256)
         ~perms:(Perm.Set.of_list [ Perm.Load; Perm.Mem_cap ]);
  Interp.set_reg interp 14
    @@ Cap.make_root ~base:sram ~top:(sram + 256)
         ~perms:(Perm.Set.of_list [ Perm.Load; Perm.Store; Perm.Global ]);
  let sram_top = sram + Machine.sram_size machine in
  Interp.set_reg interp 12
    @@ Cap.make_root ~base:(sram_top - 256) ~top:(sram_top + 256)
         ~perms:Perm.Set.read_write;
  Memory.set_revoked mem ~addr:(sram + 512) ~len:8;
  for g = 0 to 15 do
    Memory.store_cap_priv mem ~addr:(sram + (8 * g))
      (if g land 1 = 0 then rw else stack)
  done

(* Retire exactly [n] instructions on a two-instruction spin mapped
   beside the program (it runs out of fuel), so the next run starts at
   instret [n] on the same interpreter. *)
let warm_up interp n =
  let base = code_base + 0x1_0000 in
  let prog =
    Isa.assemble ~name:"warm"
      [ Isa.L "spin"; Isa.I (Isa.Addi (1, 1, 1)); Isa.I (Isa.J "spin") ]
  in
  Interp.map_segment interp ~base prog;
  let pcc =
    Cap.make_root ~base ~top:(base + Isa.code_bytes prog) ~perms:Perm.Set.executable
  in
  ignore (Interp.run ~fuel:n interp (Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit)));
  assert (Interp.instret interp = n)

(* Run [prog] from its entry sentry (also left in r8) on a fresh
   machine, handing the machine to [setup] first so a corner can arm
   its own perturbation; [setup]'s result reads back side observations
   after the run.  [cut] narrows the pcc to the first [cut]
   instructions; [warm] retires that many instructions first
   ([warm_up]). *)
let run_rig ~traced ~engine ?(fuel = 100_000) ?cut ?warm prog setup =
  let machine, obs = traced_machine traced in
  let interp = Interp.create ~engine machine in
  Interp.map_segment interp ~base:code_base prog;
  Option.iter (warm_up interp) warm;
  setup_data machine interp;
  let extra = setup machine in
  let words = Option.value cut ~default:(Isa.length prog) in
  let pcc =
    Cap.make_root ~base:code_base ~top:(code_base + (4 * words))
      ~perms:Perm.Set.executable
  in
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  Interp.set_reg interp 8 @@ entry;
  let outcome = Interp.run ~fuel interp entry in
  (view machine obs interp outcome, extra ())

let no_setup _ () = []

let diff_views what oracle fast =
  let same l = String.concat "; " l in
  if fast.s_outcome <> oracle.s_outcome then
    QCheck.Test.fail_reportf "%s outcome: %s vs %s" what fast.s_outcome
      oracle.s_outcome;
  if fast.s_instret <> oracle.s_instret then
    QCheck.Test.fail_reportf "%s instret: %d vs %d" what fast.s_instret
      oracle.s_instret;
  if fast.s_cycles <> oracle.s_cycles then
    QCheck.Test.fail_reportf "%s cycles: %d vs %d" what fast.s_cycles
      oracle.s_cycles;
  if fast.s_regs <> oracle.s_regs then
    QCheck.Test.fail_reportf "%s registers:@.%s@.vs@.%s" what
      (same fast.s_regs) (same oracle.s_regs);
  if fast.s_events <> oracle.s_events then
    QCheck.Test.fail_reportf "%s trace events:@.%s@.vs@.%s" what
      (same fast.s_events) (same oracle.s_events);
  if fast.s_mem <> oracle.s_mem then
    QCheck.Test.fail_reportf "%s memory:@.%s@.vs@.%s" what (same fast.s_mem)
      (same oracle.s_mem)

let mode_name traced = if traced then "traced" else "untraced"

let check_equiv ?(fuel = 2_000) (prog, cut) =
  List.iter
    (fun traced ->
      let oracle, _ = run_rig ~traced ~engine:`Legacy ~fuel ?cut prog no_setup in
      diff_views ("superblock " ^ mode_name traced) oracle
        (fst (run_rig ~traced ~engine:`Superblock ~fuel ?cut prog no_setup)))
    [ true; false ];
  true

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let seed_gen = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 0x3fffffff)

let prop_random_programs =
  QCheck.Test.make ~name:"superblock == legacy on random programs" ~count:300
    seed_gen
    (fun s ->
      let rng = Random.State.make [| s; 0x5eed |] in
      check_equiv (gen_program rng))

let prop_fuel_exhaustion =
  QCheck.Test.make ~name:"both engines agree at every fuel level"
    ~count:100
    (QCheck.pair seed_gen QCheck.(int_range 1 60))
    (fun (s, fuel) ->
      let rng = Random.State.make [| s; 0xf0e1 |] in
      check_equiv ~fuel (gen_program rng))

(* Hand-built corners the generator only rarely hits. *)

let test_bounds_fall_through () =
  (* Straight-line code running off the end of its segment must trap
     Bounds at the first address past it, identically in all engines. *)
  let prog =
    Isa.assemble ~name:"fall" [ Isa.I (Isa.Li (1, 1)); Isa.I (Isa.Li (2, 2)) ]
  in
  ignore (check_equiv (prog, None))

let test_narrow_pcc () =
  (* A pcc narrower than the segment: the fast paths' in-segment check
     passes but the pcc bounds check must still fire, with the same
     violation the legacy path reports.  For the superblock engine the
     whole-block bounds precondition fails, forcing the side-exit. *)
  let prog =
    Isa.assemble ~name:"narrow"
      [
        Isa.I (Isa.Li (1, 1));
        Isa.I (Isa.Li (2, 2));
        Isa.I (Isa.Li (3, 3));
        Isa.I Isa.Halt;
      ]
  in
  let run engine =
    let machine = Machine.create () in
    let interp = Interp.create ~engine machine in
    Interp.map_segment interp ~base:code_base prog;
    let pcc =
      Cap.make_root ~base:code_base ~top:(code_base + 8)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    ( outcome_to_string (Interp.run ~fuel:100 interp entry),
      Interp.instret interp,
      Machine.cycles machine )
  in
  Alcotest.(check (triple string int int))
    "narrow pcc agrees" (run `Legacy) (run `Superblock)

let test_jump_out_exits () =
  (* Cjalr to an address outside every segment leaves the interpreter
     (the kernel's native-trampoline convention). *)
  let prog =
    Isa.assemble ~name:"exit" [ Isa.I (Isa.Cjalr (1, 8)); Isa.I Isa.Halt ]
  in
  let run engine =
    let machine = Machine.create () in
    let interp = Interp.create ~engine machine in
    Interp.map_segment interp ~base:code_base prog;
    let sram = Machine.sram_base machine in
    let away =
      Cap.make_root ~base:sram ~top:(sram + 64) ~perms:Perm.Set.executable
    in
    Interp.set_reg interp 8
      @@ Cap.exn (Cap.seal_entry away Cap.Otype.Call_inherit);
    let pcc =
      Cap.make_root ~base:code_base
        ~top:(code_base + Isa.code_bytes prog)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    (outcome_to_string (Interp.run ~fuel:100 interp entry),
     Interp.instret interp)
  in
  Alcotest.(check (pair string int))
    "exit agrees" (run `Legacy) (run `Superblock)

(* ------------------------------------------------------------------ *)
(* Superblock-specific corners: the tight loop is one compiled block   *)
(* (Addi; Sw; Lw; Bne), the shape the deferred batching and self-loop  *)
(* spinning optimize hardest, perturbed by exactly the events those    *)
(* optimizations must not distort.                                     *)
(* ------------------------------------------------------------------ *)

let loop_prog trips =
  Isa.assemble ~name:"tight"
    [
      Isa.I (Isa.Li (4, 0));
      Isa.I (Isa.Li (5, trips));
      Isa.L "loop";
      Isa.I (Isa.Addi (4, 4, 1));
      Isa.I (Isa.Sw (4, 0, 6));
      Isa.I (Isa.Lw (7, 0, 6));
      Isa.I (Isa.Bne (4, 5, "loop"));
      Isa.I Isa.Halt;
    ]

(* The superblock engine against the legacy oracle, traced and
   untraced; returns the traced oracle's view.  [warm] starts the traced
   runs at that instret ([warm_up]), so their sample boundaries fall
   elsewhere in the run. *)
let check_matrix name ?fuel ?cut ?warm prog setup =
  let oracles =
    List.map
      (fun traced ->
        let warm = if traced then warm else None in
        let oracle, oracle_extra =
          run_rig ~traced ~engine:`Legacy ?fuel ?cut ?warm prog setup
        in
        let got, extra =
          run_rig ~traced ~engine:`Superblock ?fuel ?cut ?warm prog setup
        in
        let what = Printf.sprintf "%s: %s" name (mode_name traced) in
        diff_views what oracle got;
        Alcotest.(check (list (pair int int)))
          (what ^ " side observations")
          oracle_extra extra;
        oracle)
      [ true; false ]
  in
  List.hd oracles

let check_loop_matrix name ?fuel ~trips setup =
  check_matrix name ?fuel (loop_prog trips) setup

let test_irq_mid_block () =
  (* A timer deadline landing mid-trip: the event horizon must stop the
     deferred batch (and the self-loop spin) short of the deadline so
     delivery happens at exactly the cycle the per-instruction oracle
     delivers at. *)
  let oracle =
    check_loop_matrix "irq mid-block" ~trips:200 (fun machine ->
        let delivered = ref [] in
        Machine.set_irq_enabled machine true;
        Machine.set_deliver_hook machine
          (Some
             (fun n -> delivered := (n, Machine.cycles machine) :: !delivered));
        (* 8 cycles per trip: cycle 501 is mid-trip, mid-block. *)
        Machine.set_timer machine (Some 501);
        fun () -> List.rev !delivered)
  in
  Alcotest.(check string) "loop still halts" "halted" oracle.s_outcome

let test_fault_mid_block () =
  (* External hardware revokes r6's base granule at an exact cycle: the
     wakeup shortens the horizon, the block runs non-deferred through
     the listener, the epoch bump invalidates the warm inline caches,
     and the very next Lw/Sw through r6 must take the slow path and
     trap at the same instruction in every engine. *)
  let oracle =
    check_loop_matrix "fault mid-block" ~trips:200 (fun machine ->
        let mem = Machine.mem machine in
        let sram = Machine.sram_base machine in
        let h = Machine.add_tick_listener machine (fun _ ->
            Memory.set_revoked mem ~addr:sram ~len:8) in
        Machine.set_listener_wakeup machine h ~at:501;
        fun () -> [])
  in
  Alcotest.(check bool) "revocation mid-loop trapped" true
    (oracle.s_outcome <> "halted");
  Alcotest.(check bool) "trapped before the loop finished" true
    (oracle.s_instret < (200 * 4) + 3)

let test_fuel_inside_block () =
  (* Fuel that runs out inside the compiled block: the dispatcher's
     budget precondition fails and the remainder runs on the exact
     per-instruction engine, trapping "out of fuel" at the same pc and
     cycle.  Sweep fuel across several block phases. *)
  for fuel = 1 to 40 do
    ignore
      (check_loop_matrix
         (Printf.sprintf "fuel %d inside block" fuel)
         ~fuel ~trips:200
         no_setup)
  done

let test_epoch_invalidation_between_runs () =
  (* Two executions of the same warm compiled block with a revocation
     edit in between: the first run warms the block cache and the
     memoized load-filter caches; the edit bumps the filter epoch; the
     second run must re-check and trap, and after clearing the bit a
     third run must succeed again — identically in every engine. *)
  let run engine =
    let machine = Machine.create () in
    let obs = Obs.create () in
    Machine.set_trace machine (Some obs);
    let interp = Interp.create ~engine machine in
    let prog = loop_prog 50 in
    Interp.map_segment interp ~base:code_base prog;
    let sram = Machine.sram_base machine in
    let mem = Machine.mem machine in
    Interp.set_reg interp 6
      @@ Cap.make_root ~base:sram ~top:(sram + 1024) ~perms:Perm.Set.read_write;
    let pcc =
      Cap.make_root ~base:code_base
        ~top:(code_base + Isa.code_bytes prog)
        ~perms:Perm.Set.executable
    in
    let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
    let go () =
      view machine (Some obs) interp (Interp.run ~fuel:10_000 interp entry)
    in
    let warm = go () in
    Memory.set_revoked mem ~addr:sram ~len:8;
    let revoked = go () in
    Memory.clear_revoked mem ~addr:sram ~len:8;
    let cleared = go () in
    (warm, revoked, cleared)
  in
  let w0, r0, c0 = run `Legacy in
  Alcotest.(check string) "warm run halts" "halted" w0.s_outcome;
  Alcotest.(check bool) "revoked run traps" true (r0.s_outcome <> "halted");
  Alcotest.(check string) "cleared run halts again" "halted" c0.s_outcome;
  let w, r, c = run `Superblock in
  diff_views "epoch warm" w0 w;
  diff_views "epoch revoked" r0 r;
  diff_views "epoch cleared" c0 c

let test_side_exit_then_compiled () =
  (* A pcc cut two instructions short of the halt.  Every block entered
     below the loop reaches past the cut, so the dispatcher side-exits
     and steps each instruction on the legacy stepper; the self-looping
     block at [loop] fits under the cut, so the same epoch then runs it
     compiled (spinning, deferred); after the loop the side-exits
     resume until the stepper traps at the cut. *)
  let prog =
    Isa.assemble ~name:"cut"
      [
        Isa.I (Isa.Li (1, 0));
        Isa.I (Isa.Li (2, 50));
        Isa.L "loop";
        Isa.I (Isa.Addi (1, 1, 1));
        Isa.I (Isa.Bne (1, 2, "loop"));
        Isa.I (Isa.Li (3, 7));
        Isa.I (Isa.Li (4, 8));
        Isa.I Isa.Halt;
      ]
  in
  let cut = 5 in
  let interp = Interp.create (Machine.create ()) in
  Interp.map_segment interp ~base:code_base prog;
  let shape i = Interp.block_shape interp (code_base + (4 * i)) in
  Alcotest.(check (option (pair int bool)))
    "entry block reaches past the cut" (Some (7, false)) (shape 0);
  Alcotest.(check (option (pair int bool)))
    "loop block fits under the cut" (Some (2, true)) (shape 2);
  List.iter
    (fun fuel ->
      let oracle =
        check_matrix
          (Printf.sprintf "side-exit then compiled loop (fuel %d)" fuel)
          ~fuel ~cut prog no_setup
      in
      if fuel = 1_000 then
        Alcotest.(check string) "traps at the cut"
          (Printf.sprintf "trap at 0x%x: bounds violation" (code_base + (4 * cut)))
          oracle.s_outcome)
    [ 1; 2; 3; 40; 101; 102; 103; 1_000 ]

(* ------------------------------------------------------------------ *)
(* Multi-exit blocks: the switcher's stack-zeroing loop shape, a self- *)
(* loop (J back to its entry) that leaves through a mid-block Beq and  *)
(* stores r0 (untagged) over tagged granules on the packed store path. *)
(* ------------------------------------------------------------------ *)

let zero_prog ?(auth = 6) bytes =
  Isa.assemble ~name:"zero"
    [
      Isa.I (Isa.Cgetaddr (1, auth));
      Isa.I (Isa.Addi (3, 1, bytes));
      Isa.I (Isa.Mv (12, auth));
      Isa.L "zero_loop";
      Isa.I (Isa.Cgetaddr (2, 12));
      Isa.I (Isa.Beq (2, 3, "zero_done"));
      Isa.I (Isa.Csc (0, 0, 12));
      Isa.I (Isa.Csc (0, 8, 12));
      Isa.I (Isa.Cincaddrimm (12, 12, 16));
      Isa.I (Isa.J "zero_loop");
      Isa.L "zero_done";
      Isa.I Isa.Halt;
    ]

let test_zero_loop_shape () =
  (* The loop compiles to one six-instruction self-looping block; the
     block entered at the program start runs through the loop's first
     trip, past the mid-block Beq, to the J. *)
  let machine = Machine.create () in
  let interp = Interp.create machine in
  Interp.map_segment interp ~base:code_base (zero_prog 64);
  let shape pc = Interp.block_shape interp pc in
  Alcotest.(check (option (pair int bool)))
    "loop block" (Some (6, true)) (shape (code_base + 12));
  Alcotest.(check (option (pair int bool)))
    "entry block" (Some (9, false)) (shape code_base)

let test_zero_loop_exits () =
  (* Leave through the mid-block exit after 0, 1 and many trips (also
     through the stack-like r11), or trap on the packed store path: the
     window overrunning r6's top, the narrow r7, the filter-revoked
     r10. *)
  List.iter
    (fun (auth, bytes) ->
      ignore
        (check_matrix
           (Printf.sprintf "zero r%d %d bytes" auth bytes)
           (zero_prog ~auth bytes)
           no_setup))
    [ (6, 0); (6, 16); (6, 128); (6, 1024); (6, 1040); (7, 64); (10, 32);
      (11, 256) ]

let test_zero_loop_fuel () =
  (* Fuel running out at every point of the run (102 instructions),
     including just after the mid-block Beq fell through — the budget
     precondition side-exits and the per-instruction engine traps at the
     same pc — and just after the final trip left through the Beq,
     which pins the exit's retired-instruction count. *)
  for fuel = 1 to 106 do
    ignore
      (check_matrix
         (Printf.sprintf "zero fuel %d" fuel)
         ~fuel (zero_prog 256)
         no_setup)
  done

let test_zero_loop_irq () =
  (* A timer deadline landing mid-spin: the horizon re-check stops the
     deferred self-loop short of it, so delivery lands on the oracle's
     cycle and the remaining trips resume afterwards. *)
  List.iter
    (fun at ->
      let oracle =
        check_matrix
          (Printf.sprintf "zero irq at %d" at)
          (zero_prog 512)
          (fun machine ->
            let delivered = ref [] in
            Machine.set_irq_enabled machine true;
            Machine.set_deliver_hook machine
              (Some
                 (fun n ->
                   delivered := (n, Machine.cycles machine) :: !delivered));
            Machine.set_timer machine (Some at);
            fun () -> List.rev !delivered)
      in
      Alcotest.(check string) "zeroing completes" "halted" oracle.s_outcome)
    [ 5; 37; 101; 250 ]

let test_run_inside_self_loop () =
  (* A self-looping block whose trip writes an MMIO register leaves
     deferred batching mid-trip (devices see the live clock), and the
     device raises an interrupt, so the next real tick delivers it — to
     a hook that runs another self-looping program on the same
     interpreter, as a preempting thread's switcher run would.  That
     nested run reuses the shared spin counter; the outer run's fuel
     accounting must not depend on it.  Fuel runs out mid-loop, so a
     miscount moves the trap (or removes it). *)
  let nested =
    Isa.assemble ~name:"nested"
      [
        Isa.I (Isa.Li (4, 0));
        Isa.I (Isa.Li (5, 500));
        Isa.L "inner";
        Isa.I (Isa.Addi (4, 4, 1));
        Isa.I (Isa.Bne (4, 5, "inner"));
        Isa.I Isa.Halt;
      ]
  in
  let outer =
    Isa.assemble ~name:"outer"
      [
        Isa.I (Isa.Li (1, 0));
        Isa.I (Isa.Li (3, 1000));
        Isa.L "loop";
        Isa.I (Isa.Addi (1, 1, 1));
        Isa.I (Isa.Sw (1, 0, 15));
        Isa.I (Isa.Bne (1, 3, "loop"));
        Isa.I Isa.Halt;
      ]
  in
  let mmio = 0x1000_0000 in
  List.iter
    (fun (traced, fuel, trigger) ->
      let run engine =
        let machine, obs = traced_machine traced in
        let interp = Interp.create ~engine machine in
        Interp.map_segment interp ~base:code_base outer;
        let nbase = code_base + 0x1000 in
        Interp.map_segment interp ~base:nbase nested;
        setup_data machine interp;
        Interp.set_reg interp 15
          (Cap.make_root ~base:mmio ~top:(mmio + 16) ~perms:Perm.Set.read_write);
        let sentry base prog =
          Cap.exn
            (Cap.seal_entry
               (Cap.make_root ~base ~top:(base + Isa.code_bytes prog)
                  ~perms:Perm.Set.executable)
               Cap.Otype.Call_inherit)
        in
        (* The device raises IRQ 5 when the loop counter reaches
           [trigger]; its delivery runs the nested program. *)
        Machine.add_device machine ~base:mmio ~size:16
          {
            Machine.Device.name = "irq-on-write";
            read = (fun ~addr:_ ~size:_ -> 0);
            write = (fun ~addr:_ ~size:_ v -> if v = trigger then Machine.raise_irq machine 5);
          };
        let inner = ref [] in
        Machine.set_irq_enabled machine true;
        Machine.set_deliver_hook machine
          (Some
             (fun _ ->
               inner :=
                 outcome_to_string
                   (Interp.run ~fuel:10_000 interp (sentry nbase nested))
                 :: !inner));
        let outcome = Interp.run ~fuel interp (sentry code_base outer) in
        (view machine obs interp outcome, !inner)
      in
      let oracle, oracle_inner = run `Legacy in
      Alcotest.(check int) "nested run happened" 1 (List.length oracle_inner);
      let got, inner = run `Superblock in
      let what =
        Printf.sprintf "nested run (fuel %d, trigger %d): %s" fuel trigger
          (mode_name traced)
      in
      diff_views what oracle got;
      Alcotest.(check (list string)) (what ^ " inner") oracle_inner inner)
    (List.concat_map
       (fun traced -> [ (traced, 200, 10); (traced, 200, 50); (traced, 5_000, 100) ])
       [ true; false ])

(* ------------------------------------------------------------------ *)
(* Sample boundary: a traced run that starts just below instret 1024   *)
(* must emit the [Instr_sample] there with the legacy cycle stamp, so  *)
(* no deferred block, self-loop spin, bulk zeroing step or [spin]      *)
(* re-entry may retire that instruction.                               *)
(* ------------------------------------------------------------------ *)

(* A loop whose back-edge is a Cjal to the block's own entry: the block
   does not spin on itself, so the dispatcher re-enters it ([spin]). *)
let cjal_loop_prog trips =
  Isa.assemble ~name:"cjal_loop"
    [
      Isa.I (Isa.Li (1, 0));
      Isa.I (Isa.Li (2, trips));
      Isa.L "loop";
      Isa.I (Isa.Addi (1, 1, 1));
      Isa.I (Isa.Beq (1, 2, "done"));
      Isa.I (Isa.Cjal (0, "loop"));
      Isa.L "done";
      Isa.I Isa.Halt;
    ]

let test_sample_boundary () =
  let interp = Interp.create (Machine.create ()) in
  Interp.map_segment interp ~base:code_base (cjal_loop_prog 1);
  Alcotest.(check (option (pair int bool)))
    "Cjal loop block does not spin on itself" (Some (3, false))
    (Interp.block_shape interp (code_base + 8));
  let sample = Printf.sprintf "instr-sample instret=%d" (Obs.sample_mask + 1) in
  List.iter
    (fun (name, prog) ->
      for warm = Obs.sample_mask - 47 to Obs.sample_mask do
        let what = Printf.sprintf "%s from instret %d" name warm in
        let oracle = check_matrix what ~warm prog no_setup in
        if not (List.exists (String.ends_with ~suffix:sample) oracle.s_events) then
          Alcotest.failf "%s: the run does not cross the sample" what
      done)
    [
      ("self-loop", loop_prog 100);
      ("bulk zeroing", zero_prog 512);
      ("Cjal loop", cjal_loop_prog 100);
    ]

(* ------------------------------------------------------------------ *)
(* Bulk zeroing trips: the zero idiom (Cgetaddr r,p; Beq r,e,out; k    *)
(* Csc zero stores; Cincaddrimm p,p,8k; J back) retires whole runs of  *)
(* trips in one step under deferral.  Generated variants must match    *)
(* the legacy stepper exactly, whatever cuts the run short.            *)
(* ------------------------------------------------------------------ *)

(* One generated idiom: k stores per trip, r/p/e drawn from scratch
   registers (e occasionally aliasing r or p, which disqualifies the
   bulk path), the authority wide, narrow, sealed, filter-revoked,
   stack-like, without Store, without Mem_cap, straddling the top of
   SRAM or untagged, a start
   offset that is sometimes below the base or misaligned, and an end
   that is reachable, past the top, or at a distance that is not a
   multiple of the stride (never equal to r: the loop runs into a
   bounds fault).  Returns the program and a description. *)
let gen_zero_idiom rng =
  let int n = Random.State.int rng n in
  let pick a = a.(int (Array.length a)) in
  let k = 1 + int 3 in
  let stride = 8 * k in
  let scratch = [| 1; 2; 3; 4; 5; 15 |] in
  let r = pick scratch in
  let rec other xs = let x = pick scratch in if List.mem x xs then other xs else x in
  let p = other [ r ] in
  let e = match int 10 with 0 -> r | 1 -> p | _ -> other [ r; p ] in
  (* 0 stands for an untagged copy of r6 *)
  let auth = pick [| 6; 6; 6; 6; 6; 7; 9; 10; 11; 12; 13; 14; 0 |] in
  let start =
    match int 10 with
    | 0 -> -8
    | 1 -> (8 * int 8) + 4
    | _ -> 8 * int (match auth with 7 -> 4 | 12 -> 32 | _ -> 40)
  in
  let trips = int 48 in
  let dist =
    (trips * stride)
    + (match int 6 with 0 -> 4 | 1 when k > 1 -> 8 | 2 -> 2048 | _ -> 0)
  in
  let setup_p =
    if auth = 0 then [ Isa.I (Isa.Ccleartag (p, 6)) ]
    else if auth = 9 then [ Isa.I (Isa.Mv (p, 9)) ]
      (* sealed: the cursor cannot move, so no start offset *)
    else [ Isa.I (Isa.Mv (p, auth)); Isa.I (Isa.Cincaddrimm (p, p, start)) ]
  in
  let setup_e =
    if e = r || e = p then []
    else [ Isa.I (Isa.Cgetaddr (e, p)); Isa.I (Isa.Addi (e, e, dist)) ]
  in
  let stores = List.init k (fun j -> Isa.I (Isa.Csc (0, 8 * j, p))) in
  let prog =
    Isa.assemble ~name:"zero_idiom"
      (setup_p @ setup_e
      @ [ Isa.L "loop"; Isa.I (Isa.Cgetaddr (r, p)); Isa.I (Isa.Beq (r, e, "done")) ]
      @ stores
      @ [ Isa.I (Isa.Cincaddrimm (p, p, stride)); Isa.I (Isa.J "loop");
          Isa.L "done"; Isa.I (Isa.Li (r, 1)); Isa.I Isa.Halt ])
  in
  let what =
    Printf.sprintf "k=%d r%d p%d e%d auth r%d start %d dist %d" k r p e auth
      start dist
  in
  (prog, what, trips * (k + 4))

(* Machine-side perturbations for one run, rebuilt identically for every
   engine from [seed]: bytes and tags over the first KiB of SRAM (so the
   zeroing is visible in both), optionally a timer deadline landing
   inside the loop (its IRQ delivered mid-spin, its horizon cutting a
   bulk run short) and a revoker sweep in flight. *)
let zero_idiom_setup seed ~span machine =
  let rng = Random.State.make [| seed; 0x2e70 |] in
  let int n = Random.State.int rng n in
  let mem = Machine.mem machine in
  let sram = Machine.sram_base machine in
  for w = 32 to 255 do
    Memory.store_priv mem ~addr:(sram + (4 * w)) ~size:4 (1 + int 0xffff)
  done;
  let cap =
    Cap.make_root ~base:(sram + 64) ~top:(sram + 96) ~perms:Perm.Set.read_write
  in
  let sram_top = sram + Machine.sram_size machine in
  for _ = 1 to int 40 do
    Memory.store_cap_priv mem ~addr:(sram + (8 * (16 + int 112))) cap;
    Memory.store_cap_priv mem ~addr:(sram_top - (8 * (1 + int 32))) cap
  done;
  let delivered = ref [] in
  if int 2 = 0 then begin
    Machine.set_irq_enabled machine true;
    Machine.set_deliver_hook machine
      (Some (fun n -> delivered := (n, Machine.cycles machine) :: !delivered));
    Machine.set_timer machine (Some (Machine.cycles machine + 1 + int (span + 40)))
  end;
  if int 3 = 0 then begin
    Memory.set_revoked mem ~addr:(sram + 64) ~len:8;
    Machine.revoker_kick machine
  end;
  fun () -> List.rev !delivered

let prop_zero_idiom =
  QCheck.Test.make ~name:"bulk zeroing trips == legacy" ~count:400 seed_gen
    (fun s ->
      let rng = Random.State.make [| s; 0x2e0 |] in
      let prog, what, trips_len = gen_zero_idiom rng in
      let span = (trips_len * 2) + 20 in
      let fuel =
        if Random.State.int rng 3 = 0 then 1 + Random.State.int rng (trips_len + 20)
        else 100_000
      in
      let warm = Random.State.int rng (Obs.sample_mask + 1) in
      ignore
        (check_matrix
           (Printf.sprintf "%s fuel %d traced from instret %d" what fuel warm)
           ~fuel ~warm prog
           (zero_idiom_setup s ~span));
      true)

let () =
  Alcotest.run "cheriot_interp_equiv"
    [
      ( "equiv",
        [
          Qcheck_seed.to_alcotest prop_random_programs;
          Qcheck_seed.to_alcotest prop_fuel_exhaustion;
          Alcotest.test_case "bounds fall-through" `Quick
            test_bounds_fall_through;
          Alcotest.test_case "narrow pcc" `Quick test_narrow_pcc;
          Alcotest.test_case "jump out exits" `Quick test_jump_out_exits;
        ] );
      ( "superblock corners",
        [
          Alcotest.test_case "IRQ mid-block" `Quick test_irq_mid_block;
          Alcotest.test_case "fault injected mid-block" `Quick
            test_fault_mid_block;
          Alcotest.test_case "fuel exhausted inside a block" `Quick
            test_fuel_inside_block;
          Alcotest.test_case "epoch invalidation between runs" `Quick
            test_epoch_invalidation_between_runs;
          Alcotest.test_case "side-exit, then a compiled block" `Quick
            test_side_exit_then_compiled;
        ] );
      ( "multi-exit blocks",
        [
          Alcotest.test_case "zero loop is one self-looping block" `Quick
            test_zero_loop_shape;
          Alcotest.test_case "zero loop exits and traps" `Quick
            test_zero_loop_exits;
          Alcotest.test_case "fuel exhausted after a mid-block branch" `Quick
            test_zero_loop_fuel;
          Alcotest.test_case "IRQ mid zero loop" `Quick test_zero_loop_irq;
          Alcotest.test_case "run nested inside a self-loop" `Quick
            test_run_inside_self_loop;
          Qcheck_seed.to_alcotest prop_zero_idiom;
        ] );
      ( "sample window",
        [
          Alcotest.test_case "traced runs across a sample boundary" `Quick
            test_sample_boundary;
        ] );
    ]
