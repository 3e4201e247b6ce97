(* fault_campaign: seeded Fault_campaign.run_scenario calls, one
   scenario at a time, each from a fresh boot (the default campaign
   path) — tick listeners and the slow tick path, fault injection,
   error-handler unwinding, micro-reboots and System.boot. *)

let scenarios = 160

(* Scenario seeds drawn from the workload seed; distinct, in 1..99999. *)
let scenario_seeds seed =
  let st = Random.State.make [| seed; 0x63616d70 |] in
  let rec draw acc n =
    if n = 0 then List.rev acc
    else
      let s = 1 + Random.State.int st 99_999 in
      if List.mem s acc then draw acc n else draw (s :: acc) (n - 1)
  in
  Array.of_list (draw [] scenarios)

let run_scenario counts ring seeds i mode =
  let seed = seeds.(i) in
  let trace =
    if Work.attaches_obs mode then begin
      Obs.clear ring;
      Some ring
    end
    else None
  in
  let o =
    Spans.with_ "fault_campaign.run_scenario" (fun () ->
        Fault_campaign.run_scenario ?trace ~seed ())
  in
  let open Fault_campaign in
  let instr = if mode = Work.Count then Work.count_obs counts ring else -1 in
  if mode = Work.Count then begin
    Work.bump counts "interp.instr" instr;
    Work.bump counts "fault.faults" o.oc_faults;
    Work.bump counts "fault.reboots" o.oc_reboots;
    Work.bump counts "fault.svc_ok" o.oc_svc_ok;
    Work.bump counts "fault.svc_err" o.oc_svc_err;
    Work.bump counts "fault.scenarios" 1
  end;
  {
    Work.ok = o.oc_violations = [] && o.oc_probe_ok;
    key = i;
    label = "scenario";
    instr;
    totals =
      [
        ("cycles", o.oc_cycles);
        ("faults", o.oc_faults);
        ("reboots", o.oc_reboots);
        ("svc_ok", o.oc_svc_ok);
        ("svc_err", o.oc_svc_err);
        ("dumps", List.length o.oc_dumps);
      ];
  }

let start ~seed body =
  let seeds = scenario_seeds seed in
  ignore (Fault_campaign.run_scenario ~seed:seeds.(0) ());
  let counts = Hashtbl.create 32 in
  let next = ref 0 in
  let ring = Obs.create ~capacity:(1 lsl 18) () in
  body
    {
      Work.pass_len = scenarios;
      sinkable = true;
      repeatable = true;
      run_op =
        (fun mode ->
          let i = !next in
          next := (i + 1) mod scenarios;
          run_scenario counts ring seeds i mode);
      end_pass = (fun () -> true);
      finish = (fun () -> true);
      counts;
    }

let workload = { Work.name = "fault_campaign"; start }
