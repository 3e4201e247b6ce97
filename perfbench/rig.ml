(* The layer rig: fixed, seed-derived probes run at the end of every
   traced run, so each traced run reports every per-layer metric
   whatever its workload.  Each probe calls one layer's public entry
   points under a span. *)

module Cap = Capability

(* The tight interpreter loop of `bench -- perf` (BENCH_core.json):
   arithmetic, a store and a load per iteration, in a machine with the
   network world attached and a timer armed.  Returns warm (ns/instr,
   minor words/instr), each the median of three re-entries. *)
let tight () =
  let machine = Machine.create () in
  ignore (Netsim.attach machine);
  Machine.set_timer machine (Some 4_000_000_000);
  let interp = Interp.create machine in
  let prog =
    Isa.assemble ~name:"spin"
      [
        Isa.I (Isa.Li (4, 0));
        Isa.I (Isa.Li (5, 500_000));
        Isa.L "loop";
        Isa.I (Isa.Addi (4, 4, 1));
        Isa.I (Isa.Sw (4, 0, 6));
        Isa.I (Isa.Lw (7, 0, 6));
        Isa.I (Isa.Bne (4, 5, "loop"));
        Isa.I Isa.Halt;
      ]
  in
  let code_base = 0x4000_0000 in
  Interp.map_segment interp ~base:code_base prog;
  let pcc =
    Cap.make_root ~base:code_base ~top:(code_base + Isa.code_bytes prog)
      ~perms:Perm.Set.executable
  in
  let sram = Machine.sram_base machine in
  Interp.set_reg interp 6
    (Cap.make_root ~base:sram ~top:(sram + Machine.sram_size machine)
       ~perms:Perm.Set.read_write);
  let entry = Cap.exn (Cap.seal_entry pcc Cap.Otype.Call_inherit) in
  let run () =
    let i0 = Interp.instret interp in
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    (match Spans.with_ "interp.run.tight" (fun () -> Interp.run ~fuel:max_int interp entry) with
    | Interp.Halted -> ()
    | _ -> failwith "tight loop did not halt");
    let dt = Clock.now_ns () - t0 in
    let n = float_of_int (Interp.instret interp - i0) in
    (float_of_int dt /. n, (Gc.minor_words () -. w0) /. n)
  in
  ignore (run ());
  let runs = List.init 3 (fun _ -> run ()) in
  (Stats.median_floats (List.map fst runs), Stats.median_floats (List.map snd runs))

(* Boot the Fig. 7 image (13 compartments) on a fresh machine with its
   devices, as Iot_scenario.run does; only System.boot is in the span. *)
let boot_fig7_image () =
  let machine = Machine.create () in
  Machine.add_device machine ~base:0x1000_0000 ~size:16 (Machine.Device.ram ~name:"led" ~size:16);
  ignore (Netsim.attach machine);
  let fw = Iot_scenario.firmware () in
  match Spans.with_ "system.boot" (fun () -> System.boot ~machine fw) with
  | Ok _ -> machine
  | Error e -> failwith ("rig: boot failed: " ^ e)

let boots = 7
let snapshots = 25

let boot_and_snapshot () =
  let machines = List.init boots (fun _ -> boot_fig7_image ()) in
  let m = List.nth machines (boots - 1) in
  for _ = 1 to snapshots do
    let h = Spans.with_ "machine.snapshot" (fun () -> Machine.snapshot m) in
    Spans.with_ "machine.restore" (fun () -> Machine.restore m h)
  done

let mix_ops = 1500

let mix ~seed =
  let ops = Mix.gen ~seed mix_ops in
  let s = Mix.boot () in
  let ps = Mix.new_alloc_stats () in
  let ok = ref true in
  Mix.on_thread s (fun ctx q ->
      Array.iter (fun op -> if not (Mix.exec s ps ctx q op) then ok := false) ops);
  if not !ok then failwith "rig: call/alloc mix returned a wrong value"

let attack ~seed =
  Array.iter (fun s -> ignore (Attackw.run_row s)) (Array.sub (Attackw.attack_seeds seed) 0 2)

(* Campaign seeds through Farm.map at jobs 1 and at min(2, cores):
   speedup, and each worker domain's busy share of the farmed wall time
   (d0 is the calling domain). *)
type farm = { speedup : float; busy : float array }

let farm ~seed =
  let seeds = Array.sub (Campaign.scenario_seeds seed) 0 6 in
  let time f =
    let t0 = Clock.now_ns () in
    let r = Spans.with_ "farm.map" f in
    (r, Clock.now_ns () - t0)
  in
  let check outs =
    if not (Array.for_all (fun o -> o.Fault_campaign.oc_violations = []) outs) then
      failwith "rig: farmed campaign scenario violated an invariant"
  in
  let outs1, t1 = time (fun () -> Farm.map ~jobs:1 (fun s -> Fault_campaign.run_scenario ~seed:s ()) seeds) in
  check outs1;
  let jobs = min 2 (Farm.default_jobs ()) in
  let self = (Domain.self () :> int) in
  let outs, tn =
    time (fun () ->
        Farm.map ~jobs
          (fun s ->
            let t0 = Clock.now_ns () in
            let o = Fault_campaign.run_scenario ~seed:s () in
            (o, (Domain.self () :> int), Clock.now_ns () - t0))
          seeds)
  in
  check (Array.map (fun (o, _, _) -> o) outs);
  let doms = ref [ self ] in
  Array.iter (fun (_, d, _) -> if not (List.mem d !doms) then doms := !doms @ [ d ]) outs;
  let busy =
    Array.init 2 (fun k ->
        match List.nth_opt !doms k with
        | None -> 0.
        | Some d ->
            let ns = Array.fold_left (fun a (_, d', t) -> if d' = d then a + t else a) 0 outs in
            float_of_int ns /. float_of_int tn)
  in
  { speedup = float_of_int t1 /. float_of_int tn; busy }

type t = { tight_ns : float; tight_words : float; farm : farm }

(* Each probe is one op under a "rig" root span. *)
let run ~seed =
  let probe f = Spans.with_ "rig" f in
  let tight_ns, tight_words = probe tight in
  probe boot_and_snapshot;
  probe (fun () -> mix ~seed);
  probe (fun () -> attack ~seed);
  { tight_ns; tight_words; farm = probe (fun () -> farm ~seed) }
