(* iot_fig7: the paper-scale Fig. 7 IoT run (Iot_scenario.run
   ~fast:false) — netstack, TLS-lite, MQTT, the JS VM, IRQ delivery,
   futex sleeps and the idle-skipping tick path, ~23k switcher round
   trips per run.  The scenario is fixed, so the seed selects nothing. *)

let run_op counts ring mode =
  let m = Machine.create () in
  if Work.attaches_obs mode then begin
    Obs.clear ring;
    Machine.set_trace m (Some ring)
  end;
  let r = Spans.with_ "iot_scenario.run" (fun () -> Iot_scenario.run ~machine:m ()) in
  let cycles = Machine.cycles m in
  let instr = if mode = Work.Count then Work.count_obs counts ring else -1 in
  if mode = Work.Count then begin
    Work.bump counts "interp.instr" instr;
    Work.bump counts "fig7.blinks" r.Iot_scenario.blinks;
    Work.bump counts "fig7.reboots" r.Iot_scenario.reboots;
    List.iter
      (fun (label, c) -> Work.bump counts ("obs.cycles." ^ label) c)
      (Obs.attribute ~total_cycles:cycles (Obs.events ring))
  end;
  {
    Work.ok = r.Iot_scenario.reboots = 1 && r.Iot_scenario.blinks > 0;
    key = 0;
    label = "run";
    instr;
    totals =
      [
        ("cycles", cycles);
        ("reboots", r.Iot_scenario.reboots);
        ("blinks", r.Iot_scenario.blinks);
        ("load_samples", List.length r.Iot_scenario.samples);
      ];
  }

let start ~seed:_ body =
  ignore (Iot_scenario.run ~fast:true ());
  let counts = Hashtbl.create 32 in
  body
    {
      Work.pass_len = 1;
      sinkable = true;
      repeatable = true;
      run_op = run_op counts (Obs.create ~capacity:(1 lsl 20) ());
      end_pass = (fun () -> true);
      finish = (fun () -> true);
      counts;
    }

let workload = { Work.name = "iot_fig7"; start }
