(* attack_matrix: Attack.run_one over every family x model for a seeded
   range of attack seeds.  An op is one seed's row: the four families,
   each on CHERIoT (boot, snapshot, restore, attack) and on the MPU
   baseline, so the fixed per-cell costs dominate. *)

let seeds_per_pass = 12

let attack_seeds seed =
  let st = Random.State.make [| seed; 0x61746b |] in
  Array.init seeds_per_pass (fun _ -> 1 + Random.State.int st 99_999)

let family_key f = String.map (fun c -> if c = '-' then '_' else c) (Attack.family_name f)

let cell_span = function
  | Attack.Cheriot -> "attack.run_one.cheriot"
  | Attack.Mpu -> "attack.run_one.mpu"

(* One seed's row, in family-major, CHERIoT-first order. *)
let run_row seed =
  List.concat_map
    (fun family ->
      List.map
        (fun model ->
          Spans.with_ (cell_span model) (fun () -> Attack.run_one ~family ~model ~seed ()))
        Attack.models)
    Attack.families

let start ~seed body =
  let seeds = attack_seeds seed in
  ignore (run_row seeds.(0));
  let counts = Hashtbl.create 32 in
  let next = ref 0 in
  let pass = ref [] in
  let run_op mode =
    let i = !next in
    next := (i + 1) mod seeds_per_pass;
    let row = run_row seeds.(i) in
    pass := row @ !pass;
    let open Attack in
    if mode = Work.Count then
      List.iter
        (fun o ->
          Work.bump counts "obs.calls"
            (List.fold_left (fun a c -> a + c.Agg.ac_calls) 0 o.at_metrics.Agg.ag_comps);
          Work.bump counts
            (Printf.sprintf "attack.verdicts.%s.%s" (family_key o.at_family)
               (model_name o.at_model))
            (severity o.at_verdict))
        row;
    {
      Work.ok =
        containment_failures (List.filter (fun o -> o.at_model = Cheriot) row) = [];
      key = i;
      label = "row";
      instr = -1;
      totals =
        ("cycles", List.fold_left (fun a o -> a + o.at_cycles) 0 row)
        :: List.map
             (fun o ->
               ( Printf.sprintf "sev.%s.%s" (family_key o.at_family) (model_name o.at_model),
                 severity o.at_verdict ))
             row;
      }
  in
  (* A pass holds every family on both models over the same seeds, so
     CHERIoT must come out strictly better on all four families. *)
  let end_pass () =
    let better = Attack.cheriot_strictly_better !pass in
    pass := [];
    List.length better = List.length Attack.families
  in
  (* Attack.run_one builds its own machines, and its CHERIoT image
     always carries an Obs ring and a flight recorder, so the benchmark
     has no sink to attach or leave off: no [Obs] mode here. *)
  body
    {
      Work.pass_len = seeds_per_pass;
      sinkable = false;
      repeatable = true;
      run_op;
      end_pass;
      finish = (fun () -> true);
      counts;
    }

let workload = { Work.name = "attack_matrix"; start }
