(* perfbench: workload-level host-cost benchmark of the simulator.

     perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Workloads: iot_fig7, call_alloc_mix, fault_campaign, attack_matrix
   (see README.md).  The last stdout line is one JSON object
   {correct, attempted, failed, metrics}: the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1.  The lines before it
   name every metric with its unit and sample count.  Exit code 1 when
   any output fails its check or a simulated fingerprint disagrees. *)

let workloads = [ Fig7.workload; Mix.workload; Campaign.workload; Attackw.workload ]
let setup_reps = 9

let usage () =
  prerr_endline
    "usage: perfbench --workload <iot_fig7|call_alloc_mix|fault_campaign|attack_matrix> \
     --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let args () =
  let tbl = Hashtbl.create 4 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let int k =
    match Option.bind (Hashtbl.find_opt tbl k) int_of_string_opt with
    | Some v -> v
    | None -> usage ()
  in
  let w =
    match Hashtbl.find_opt tbl "workload" with
    | Some n -> (
        match List.find_opt (fun w -> w.Work.name = n) workloads with
        | Some w -> w
        | None -> usage ())
    | None -> usage ()
  in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (w, int "seed", seconds, trace = 1)

let out_dir () =
  let d = Option.value ~default:".bench_build/perfbench" (Sys.getenv_opt "PERFBENCH_OUT") in
  let rec mk d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mk d;
  d

let read_file f = In_channel.with_open_bin f In_channel.input_all

let write_file f s =
  let tmp = f ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> output_string oc s);
  Sys.rename tmp f

(* ------------------------------------------------------------------ *)
(* Per-run accumulators                                               *)
(* ------------------------------------------------------------------ *)

type acc = {
  mutable op_ns : int;
  mutable ops : int;
  mutable cycles : int;
  mutable instr : int;  (** over ops whose instructions are known *)
  mutable instr_ns : int;
  mutable minor : float;  (** over ops whose instructions are known *)
  mutable all_minor : float;
  mutable promoted : float;
  mutable majors : int;
}

let new_acc () =
  {
    op_ns = 0;
    ops = 0;
    cycles = 0;
    instr = 0;
    instr_ns = 0;
    minor = 0.;
    all_minor = 0.;
    promoted = 0.;
    majors = 0;
  }

(* The main loop's state: failures, the first pass's per-input totals
   (the fingerprint) and instruction counts read in Obs mode. *)
type run = {
  name : string;  (** the workload's: the root frame of its ops' spans *)
  inst : Work.instance;
  first : (string * int) list option array;
  instr_by_key : int array;
  mutable done_ops : int;
  mutable failed : int;
  mutable pass_failed : int;  (** individual failures in the current pass *)
  mutable mismatches : string list;
}

let record_outcome r (o : Work.outcome) =
  if not o.ok then r.pass_failed <- r.pass_failed + 1;
  (match r.first.(o.key) with
  | None when r.done_ops < r.inst.pass_len -> r.first.(o.key) <- Some o.totals
  | Some t when r.inst.repeatable && t <> o.totals ->
      r.pass_failed <- r.pass_failed + 1;
      r.mismatches <- Printf.sprintf "input %d changed its simulated totals" o.key :: r.mismatches
  | _ -> ());
  if o.instr >= 0 && r.instr_by_key.(o.key) < 0 && r.inst.repeatable then
    r.instr_by_key.(o.key) <- o.instr;
  r.done_ops <- r.done_ops + 1;
  if r.done_ops mod r.inst.pass_len = 0 then begin
    r.failed <- r.failed + (if r.inst.end_pass () then r.pass_failed else r.inst.pass_len);
    r.pass_failed <- 0
  end

(* Run one op in [mode], timing it and feeding [acc]; returns the
   outcome and the op's duration in ns of CPU time. *)
let timed_op r acc mode =
  Spans.enabled := mode <> Work.Plain;
  Spans.sink := Work.attaches_obs mode;
  let g0 = Gc.quick_stat () in
  let t0 = Clock.cpu_ns () in
  let o = Spans.with_ r.name (fun () -> r.inst.Work.run_op mode) in
  let dt = Clock.cpu_ns () - t0 in
  let g1 = Gc.quick_stat () in
  Spans.enabled := false;
  Spans.sink := false;
  record_outcome r o;
  acc.ops <- acc.ops + 1;
  acc.op_ns <- acc.op_ns + dt;
  acc.cycles <- acc.cycles + Work.total o "cycles";
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  acc.all_minor <- acc.all_minor +. minor;
  acc.promoted <- acc.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  acc.majors <- acc.majors + (g1.Gc.major_collections - g0.Gc.major_collections);
  let instr = if o.instr >= 0 then o.instr else r.instr_by_key.(o.key) in
  if instr > 0 then begin
    acc.instr <- acc.instr + instr;
    acc.instr_ns <- acc.instr_ns + dt;
    acc.minor <- acc.minor +. minor
  end;
  (o, dt)

let us ns = ns /. 1e3
let sim_s cycles = float_of_int cycles /. float_of_int (Machine.clock_mhz * 1_000_000)

(* End-to-end samples of an untraced run.  Ops are grouped into windows
   of [window_ns] op time; rates are medians over windows, so a burst
   of host noise moves one window, not the result.  The reference
   kernel (refk.ml) is timed after every window and every set-up, and
   every time is reported in reference-host units: the window's op
   times and rates are scaled by [Refk.ref_ns] over the kernel time
   measured right after it, so a drift of the host's speed within a
   run is followed window by window. *)
let window_ns = 250_000_000

(* Op latencies in one unit: raw CPU ns, or scaled to the reference
   host. *)
type view = {
  lat : Stats.t;  (** all ops *)
  by_label : (string, Stats.t) Hashtbl.t;  (** by op kind *)
}

type e2e = {
  raw : view;
  scaled : view;
  kernel : Stats.t;  (** reference kernel times, host ns *)
  mutable w_ns : int;  (** the open window *)
  mutable w_cycles : int;
  mutable w_ops : int;
  mutable w_first : int;  (** index of its first op in [raw.lat] *)
  mutable windows : (float * float * float) list;
      (** per window: ops/s and host s per simulated s in CPU time, and
          the window's scale to reference-host time *)
}

let new_view () = { lat = Stats.create (); by_label = Hashtbl.create 8 }

let new_e2e () =
  {
    raw = new_view ();
    scaled = new_view ();
    kernel = Stats.create ();
    w_ns = 0;
    w_cycles = 0;
    w_ops = 0;
    w_first = 0;
    windows = [];
  }

let label_stats v l =
  match Hashtbl.find_opt v.by_label l with
  | Some s -> s
  | None ->
      let s = Stats.create () in
      Hashtbl.replace v.by_label l s;
      s

let sample_kernel e =
  let k = Refk.measure () in
  Stats.add e.kernel k;
  k

(* The raw samples of [src] from index [first] on, scaled by [f], into
   [dst]. *)
let scale_into dst src first f =
  for i = first to Stats.length src - 1 do
    Stats.add dst (int_of_float (float_of_int (Stats.get src i) *. f))
  done

let close_window e =
  if e.w_ops > 0 then begin
    let f = float_of_int Refk.ref_ns /. float_of_int (sample_kernel e) in
    scale_into e.scaled.lat e.raw.lat e.w_first f;
    (* Each kind's samples up to the last window are already scaled. *)
    Hashtbl.iter
      (fun l raw ->
        let dst = label_stats e.scaled l in
        scale_into dst raw (Stats.length dst) f)
      e.raw.by_label;
    e.w_first <- Stats.length e.raw.lat;
    let s = float_of_int e.w_ns /. 1e9 in
    e.windows <- (float_of_int e.w_ops /. s, s /. sim_s e.w_cycles, f) :: e.windows;
    e.w_ns <- 0;
    e.w_cycles <- 0;
    e.w_ops <- 0
  end

let untraced_op r acc e =
  let o, dt = timed_op r acc Work.Plain in
  Stats.add e.raw.lat dt;
  Stats.add (label_stats e.raw o.Work.label) dt;
  e.w_ns <- e.w_ns + dt;
  e.w_cycles <- e.w_cycles + Work.total o "cycles";
  e.w_ops <- e.w_ops + 1;
  if e.w_ns >= window_ns then close_window e

(* Ops until [seconds] have passed, always ending on a pass boundary so
   every op is covered by its pass check. *)
let loop r ~seconds step =
  let t_end = Clock.now_ns () + (seconds * 1_000_000_000) in
  let n = ref 0 in
  while r.done_ops mod r.inst.pass_len <> 0 || !n = 0 || Clock.now_ns () < t_end do
    step !n;
    incr n
  done

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                       *)
(* ------------------------------------------------------------------ *)

(* Summed first-pass totals plus a digest of every input's totals. *)
let fingerprint name seed r =
  let totals = Array.map (fun t -> Option.value ~default:[] t) r.first in
  let keys = List.map fst (Array.fold_left (fun a t -> if t = [] then a else t) [] totals) in
  let sum k = Array.fold_left (fun a t -> a + Option.value ~default:0 (List.assoc_opt k t)) 0 totals in
  let detail =
    String.concat ";"
      (Array.to_list
         (Array.map
            (fun t -> String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) t))
            totals))
  in
  Printf.sprintf "%s seed=%d inputs=%d %s digest=%s" name seed r.inst.pass_len
    (String.concat " " (List.map (fun k -> Printf.sprintf "%s=%d" k (sum k)) keys))
    (Digest.to_hex (Digest.string detail))

(* Compare [fp] with the committed fingerprint of [key] in the golden
   file, which records the default and the held-out seed.  Other seeds
   rely on the within-run pass-repeat check.  Returns the
   disagreements; a missing golden file is one. *)
let golden = "perfbench/fingerprints.golden"

let check_fingerprint ~key fp =
  if not (Sys.file_exists golden) then [ golden ^ " is missing" ]
  else
    List.filter_map
      (fun l ->
        match String.index_opt l ' ' with
        | Some i when String.sub l 0 i = key ->
            let v = String.sub l (i + 1) (String.length l - i - 1) in
            if v = fp then None else Some (Printf.sprintf "golden fingerprint differs: %s" v)
        | _ -> None)
      (String.split_on_char '\n' (read_file golden))

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let metric_line name v unit n =
  Printf.printf "metric %-36s %16.6f %-6s n=%d\n" name v unit n

let json_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        let v = if Float.is_finite v then v else 0. in
        let num = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.15g" v in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name num unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed (String.concat ", " m)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The end-to-end metrics of an untraced run, in reference-host time
   when [scaled], else in raw CPU time; each workload's own headline
   numbers are printed alongside.  A host twice as fast as the
   reference has scale 2: it measures half the time. *)
let e2e_metrics name ~scaled ~setup ~heap_mb e =
  let v = if scaled then e.scaled else e.raw in
  let scale f = if scaled then f else 1. in
  let ops_per_s = Stats.median_floats (List.map (fun (r, _, f) -> r /. scale f) e.windows) in
  let host_per_sim = Stats.median_floats (List.map (fun (_, h, f) -> h *. scale f) e.windows) in
  let nwin = List.length e.windows in
  let lat = Stats.sorted v.lat in
  let lbl l = Stats.sorted (label_stats v l) in
  let pct_us b p = us (Stats.pct_sorted b p) in
  let pct_ms b p = Stats.pct_sorted b p /. 1e6 in
  let metrics =
    [
      ("setup_s", Stats.median_floats setup, "s", setup_reps);
      ("ops_per_s", ops_per_s, "1/s", nwin);
      ("op_us.p50", pct_us lat 50., "us", Array.length lat);
      ("op_us.p90", pct_us lat 90., "us", Array.length lat);
      ("host_s_per_sim_s", host_per_sim, "s/s", nwin);
      ("heap_peak_mb", heap_mb, "MB", 1);
    ]
  in
  let own =
    match name with
    | "iot_fig7" ->
        let runs = lbl "run" in
        [
          ("fig7.host_s_per_sim_s", host_per_sim, "s/s", nwin);
          ("fig7.run_s.p50", pct_ms runs 50. /. 1e3, "s", Array.length runs);
        ]
    | "call_alloc_mix" ->
        let calls =
          let s = Stats.create () in
          List.iter
            (fun n -> Array.iter (Stats.add s) (lbl ("call." ^ Mix.entry_of n)))
            Mix.needs;
          Stats.sorted s
        in
        let pairs = lbl "pair" in
        [
          ("call.rtt_us.p50", pct_us calls 50., "us", Array.length calls);
          ("call.rtt_us.p99", pct_us calls 99., "us", Array.length calls);
          ("alloc.pair_us.p50", pct_us pairs 50., "us", Array.length pairs);
          ("alloc.pair_us.p99", pct_us pairs 99., "us", Array.length pairs);
        ]
        @ List.map
            (fun n ->
              let c = "call." ^ Mix.entry_of n in
              let b = lbl c in
              (c ^ ".rtt_us.p50", pct_us b 50., "us", Array.length b))
            Mix.needs
    | "fault_campaign" ->
        let sc = lbl "scenario" in
        [
          ("campaign.scenarios_per_s", ops_per_s, "1/s", nwin);
          ("campaign.scenario_ms.p50", pct_ms sc 50., "ms", Array.length sc);
          ("campaign.scenario_ms.p90", pct_ms sc 90., "ms", Array.length sc);
        ]
    | "attack_matrix" ->
        let rows = lbl "row" in
        let cells = List.length Attack.families * List.length Attack.models in
        [
          ("attack.cells_per_s", ops_per_s *. float_of_int cells, "1/s", nwin);
          ("attack.row_ms.p50", pct_ms rows 50., "ms", Array.length rows);
        ]
    | _ -> []
  in
  (metrics, own)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced run                                  *)
(* ------------------------------------------------------------------ *)

(* The compartments Obs.attribute charges in the Fig. 7 run: the
   obs.cycles.<label> names of BENCHMARK.json.  The report prints every
   label attribute returns; a label missing here is noted. *)
let cycle_labels =
  [ "allocator"; "app"; "boot"; "dns"; "firewall"; "idle"; "io"; "kernel"; "mqtt"; "netapi";
    "pool"; "sched"; "sntp"; "switcher"; "tcpip"; "tls" ]

let families =
  List.concat_map
    (fun f ->
      List.map
        (fun m -> Printf.sprintf "attack.verdicts.%s.%s" (Attackw.family_key f) (Attack.model_name m))
        Attack.models)
    Attack.families

let mean s = if Stats.length s = 0 then 0. else float_of_int (Stats.sum s) /. float_of_int (Stats.length s)

(* Tracing overhead of mode [a] over mode [b]: per input, the mean op
   time in each mode; summed over the inputs both modes ran, so each
   mode is compared on the same inputs. *)
type by_key = { tot : int array array; cnt : int array array }

let overhead k a b =
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i ca ->
      let cb = k.cnt.(b).(i) in
      if ca > 0 && cb > 0 then begin
        num := !num +. (float_of_int k.tot.(a).(i) /. float_of_int ca);
        den := !den +. (float_of_int k.tot.(b).(i) /. float_of_int cb)
      end)
    k.cnt.(a);
  if !den = 0. then 0. else (!num /. !den) -. 1.

(* Per-layer metrics as (name, value, unit, samples).  Span-derived
   figures come from spans of an untraced simulator only (the
   workload's Spans-mode ops and the rig); [plain] holds the untraced
   ops. *)
let layer_metrics name ~counts ~plain ~by_key ~kernel (rig : Rig.t) =
  let c k = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts k)) in
  let div a b = if b = 0. then 0. else a /. b in
  let l = Mix.layer in
  let calls = Stats.create () in
  List.iter
    (fun n ->
      let d = Spans.durations ("kernel.call1." ^ Mix.entry_of n) in
      Array.iter (Stats.add calls) (Stats.sorted d))
    Mix.needs;
  let ncalls = Stats.length calls in
  let span name = Spans.durations name in
  let p50 name = Stats.pct (span name) 50. in
  let nspan name = Stats.length (span name) in
  let scen = c "fault.scenarios" in
  let count k = (k, c k, "count", 1) in
  let exact = Stats.length kernel in
  [
    ("machine.sim_cycles", c "machine.sim_cycles", "count", 1);
    ("machine.host_ns_per_sim_cycle", div (float_of_int plain.op_ns) (float_of_int plain.cycles), "ns", plain.ops);
    ("interp.instr", c "interp.instr", "count", 1);
    ("interp.ns_per_instr", div (float_of_int plain.instr_ns) (float_of_int plain.instr), "ns", plain.ops);
    ("interp.minor_words_per_instr", div plain.minor (float_of_int plain.instr), "words", plain.ops);
    ("interp.instr_per_call", mean l.Mix.call_instr, "count", Stats.length l.Mix.call_instr);
    ( "interp.ns_per_instr.call_path",
      div (float_of_int (Stats.sum calls)) (float_of_int (Stats.sum l.Mix.call_instr)),
      "ns",
      ncalls );
    ("interp.tight_ns_per_instr", rig.Rig.tight_ns, "ns", nspan "interp.run.tight");
    ("interp.tight_minor_words_per_instr", rig.Rig.tight_words, "words", nspan "interp.run.tight");
    ("switcher.call_leg_us.p50", us (Stats.pct l.Mix.call_leg 50.), "us", Stats.length l.Mix.call_leg);
    ("switcher.return_leg_us.p50", us (Stats.pct l.Mix.ret_leg 50.), "us", Stats.length l.Mix.ret_leg);
    ("kernel.call_rtt_us.p50", us (Stats.pct calls 50.), "us", ncalls);
    ("kernel.minor_words_per_call", mean l.Mix.call_words, "words", Stats.length l.Mix.call_words);
    ("alloc.allocate_us.p50", us (p50 "allocator.allocate"), "us", nspan "allocator.allocate");
    ("alloc.free_us.p50", us (p50 "allocator.free"), "us", nspan "allocator.free");
    (* The allocator's entries need 128 B of stack: subtract a call to
       an entry needing the same. *)
    ( "alloc.self_us.p50",
      us (p50 "allocator.allocate" -. p50 "kernel.call1.s128"),
      "us",
      nspan "allocator.allocate" );
    ("alloc.quarantine_bytes.peak", c "alloc.quarantine_bytes.peak", "bytes", 1);
    ("alloc.revoker_stall_frac", div (c "alloc.stalls") (c "alloc.pairs"), "frac", int_of_float (c "alloc.pairs"));
    ("loader.boot_ms.p50", p50 "system.boot" /. 1e6, "ms", nspan "system.boot");
    ("machine.snapshot_ms", p50 "machine.snapshot" /. 1e6, "ms", nspan "machine.snapshot");
    ("machine.restore_ms", p50 "machine.restore" /. 1e6, "ms", nspan "machine.restore");
    ("fault.faults_per_scenario", div (c "fault.faults") scen, "count", int_of_float scen);
    ("fault.reboots_per_scenario", div (c "fault.reboots") scen, "count", int_of_float scen);
    ( "fault.svc_ok_frac",
      div (c "fault.svc_ok") (c "fault.svc_ok" +. c "fault.svc_err"),
      "frac",
      int_of_float scen );
    ( "fault.minor_words_per_scenario",
      (if name = "fault_campaign" then div plain.all_minor (float_of_int plain.ops) else 0.),
      "words",
      plain.ops );
    ("attack.cheriot_cell_ms.p50", p50 "attack.run_one.cheriot" /. 1e6, "ms", nspan "attack.run_one.cheriot");
    ("attack.mpu_cell_ms.p50", p50 "attack.run_one.mpu" /. 1e6, "ms", nspan "attack.run_one.mpu");
  ]
  @ List.map count families
  @ List.map count [ "fig7.blinks"; "fig7.reboots" ]
  @ List.map
      (fun k -> count ("obs." ^ k))
      [ "events"; "calls"; "switcher_calls"; "irqs"; "dispatches"; "futex_waits"; "idle";
        "revoker_quanta"; "allocs" ]
  @ List.map (fun k -> count ("obs.cycles." ^ k)) cycle_labels
  @ [
      ( "obs.trace_overhead_frac",
        (if Array.length by_key.cnt > 2 then overhead by_key 2 1 else 0.),
        "frac",
        if Array.length by_key.cnt > 2 then Array.fold_left ( + ) 0 by_key.cnt.(2) else 0 );
      ("trace.span_overhead_frac", overhead by_key 1 0, "frac", Array.fold_left ( + ) 0 by_key.cnt.(1));
      ("gc.minor_words_per_op", div plain.all_minor (float_of_int plain.ops), "words", plain.ops);
      ("gc.promoted_words_per_op", div plain.promoted (float_of_int plain.ops), "words", plain.ops);
      ("gc.major_collections", float_of_int plain.majors, "count", plain.ops);
      ("gc.pause_ms.total", float_of_int !Gcev.total_ns /. 1e6, "ms", 1);
      ("gc.pause_ms.max", float_of_int !Gcev.max_ns /. 1e6, "ms", 1);
      ("farm.speedup", rig.Rig.farm.Rig.speedup, "x", nspan "farm.map");
      ("farm.busy_frac.d0", rig.Rig.farm.Rig.busy.(0), "frac", nspan "farm.map");
      ("farm.busy_frac.d1", rig.Rig.farm.Rig.busy.(1), "frac", nspan "farm.map");
      ("host.ref_kernel_ms", Stats.pct kernel 50. /. 1e6, "ms", exact);
    ]

(* Obs.attribute labels of this run that the JSON's fixed list lacks:
   printed as report lines, with a note. *)
let extra_cycle_labels counts =
  Hashtbl.fold
    (fun k v acc ->
      let p = "obs.cycles." in
      let n = String.length p in
      if String.length k > n && String.sub k 0 n = p
         && not (List.mem (String.sub k n (String.length k - n)) cycle_labels)
      then (k, float_of_int v, "count", 1) :: acc
      else acc)
    counts []
  |> List.sort compare

let self_time_table () =
  print_endline "layer self time (traced ops and rig):";
  Printf.printf "  %-32s %9s %12s %12s %10s\n" "span" "count" "total_ms" "self_ms" "p50_us";
  List.iter
    (fun n ->
      let d = Spans.durations n in
      Printf.printf "  %-32s %9d %12.3f %12.3f %10.3f\n" n (Stats.length d)
        (float_of_int (Stats.sum d) /. 1e6)
        (float_of_int (Spans.self_ns n) /. 1e6)
        (us (Stats.pct d 50.)))
    (Spans.names ())

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = Refk.server_flag then Refk.serve ();
  let w, seed, seconds, traced = args () in
  let dir = out_dir () in
  let e = new_e2e () in
  let setup = ref [] and setup_raw = ref [] in
  (* Like a window, each set-up is scaled by the kernel sample taken
     right after it. *)
  let setup_done t0 =
    let dt = float_of_int (Clock.cpu_ns () - t0) /. 1e9 in
    setup_raw := dt :: !setup_raw;
    setup := (dt *. float_of_int Refk.ref_ns /. float_of_int (sample_kernel e)) :: !setup
  in
  for _ = 1 to setup_reps - 1 do
    let t0 = Clock.cpu_ns () in
    w.Work.start ~seed (fun _ -> setup_done t0)
  done;
  let result = ref None in
  let t0 = Clock.cpu_ns () in
  w.Work.start ~seed (fun inst ->
      setup_done t0;
      let n = inst.Work.pass_len in
      let r =
        {
          name = w.Work.name;
          inst;
          first = Array.make n None;
          instr_by_key = Array.make n (-1);
          done_ops = 0;
          failed = 0;
          pass_failed = 0;
          mismatches = [];
        }
      in
      let plain = new_acc () in
      let counts = Hashtbl.create 64 in
      let modes =
        if inst.Work.sinkable then [| Work.Plain; Work.Spans; Work.Obs |]
        else [| Work.Plain; Work.Spans |]
      in
      let nm = Array.length modes in
      let by_key = { tot = Array.make_matrix nm n 0; cnt = Array.make_matrix nm n 0 } in
      if not traced then begin
        loop r ~seconds (fun _ -> untraced_op r plain e);
        close_window e
      end
      else begin
        (* One fixed pass with every sink on gives the exact per-layer
           counts.  Then each op runs untraced, with spans, or with spans
           and an Obs ring, the mode turning with the input and the pass,
           so every mode sees every input. *)
        Gcev.start ();
        let fixed = new_acc () in
        for _ = 1 to n do
          ignore (timed_op r fixed Work.Count)
        done;
        Hashtbl.iter (Hashtbl.replace counts) inst.Work.counts;
        Hashtbl.replace counts "machine.sim_cycles"
          (Array.fold_left
             (fun a t -> a + Option.value ~default:0 (Option.bind t (List.assoc_opt "cycles")))
             0 r.first);
        Gcev.reset ();
        let accs = Array.init nm (fun i -> if i = 0 then plain else new_acc ()) in
        loop r ~seconds (fun _ ->
            let m = ((r.done_ops mod n) + (r.done_ops / n)) mod nm in
            (* GC pauses count for untraced ops only. *)
            Gcev.poll ();
            Gcev.counting := modes.(m) = Work.Plain;
            let o, dt = timed_op r accs.(m) modes.(m) in
            Gcev.poll ();
            Gcev.counting := false;
            by_key.tot.(m).(o.Work.key) <- by_key.tot.(m).(o.Work.key) + dt;
            by_key.cnt.(m).(o.Work.key) <- by_key.cnt.(m).(o.Work.key) + 1);
        if !Gcev.lost > 0 then Printf.printf "note: %d GC events lost; pause totals are short\n" !Gcev.lost
      end;
      let heap_mb = heap_peak_mb () in
      let finished = inst.Work.finish () in
      result := Some (r, plain, by_key, counts, finished, heap_mb));
  let r, plain, by_key, counts, finished, heap_mb = Option.get !result in
  let name = w.Work.name in
  let fp = fingerprint name seed r in
  Printf.printf "fingerprint %s\n" fp;
  let mismatches =
    r.mismatches @ check_fingerprint ~key:(Printf.sprintf "%s-%d" name seed) fp
  in
  let mismatches =
    if traced then begin
      let obs_fp =
        Hashtbl.fold (fun k v a -> Printf.sprintf "%s=%d" k v :: a) counts []
        |> List.sort compare |> String.concat " "
      in
      Printf.printf "obs-fingerprint %s-%d.obs %s\n" name seed obs_fp;
      mismatches @ check_fingerprint ~key:(Printf.sprintf "%s-%d.obs" name seed) obs_fp
    end
    else mismatches
  in
  List.iter (fun m -> Printf.printf "MISMATCH %s\n" m) mismatches;
  if not finished then print_endline "FAILED post-run check";
  let failed = r.failed + (if finished then 0 else 1) + List.length mismatches in
  let attempted = max r.done_ops failed in
  let correct = failed = 0 in
  metric_line "failed_frac" (float_of_int failed /. float_of_int attempted) "frac" attempted;
  let metrics =
    if not traced then begin
      (* Times in reference-host units (refk.ml); the raw.* lines give
         the same figures in this host's own time. *)
      let kernel = Stats.pct e.kernel 50. in
      let speed = float_of_int Refk.ref_ns /. kernel in
      let e2e, own = e2e_metrics name ~scaled:true ~setup:!setup ~heap_mb e in
      let raw, raw_own = e2e_metrics name ~scaled:false ~setup:!setup_raw ~heap_mb e in
      List.iter (fun (n, v, u, k) -> metric_line n v u k) (e2e @ own);
      List.iter (fun (n, v, u, k) -> metric_line ("raw." ^ n) v u k) (raw @ raw_own);
      metric_line "host.ref_kernel_ms" (kernel /. 1e6) "ms" (Stats.length e.kernel);
      metric_line "host.speed_vs_ref" speed "x" (Stats.length e.kernel);
      List.map (fun (n, v, u, _) -> (n, v, u)) e2e
    end
    else begin
      Spans.enabled := true;
      let rig = Rig.run ~seed in
      Spans.enabled := false;
      let m = layer_metrics name ~counts ~plain ~by_key ~kernel:e.kernel rig in
      List.iter (fun (n, v, u, k) -> metric_line n v u k) m;
      List.iter
        (fun (n, v, u, k) ->
          metric_line n v u k;
          Printf.printf "note: %s is not among BENCHMARK.json's obs.cycles names\n" n)
        (extra_cycle_labels counts);
      self_time_table ();
      let base = Filename.concat dir (Printf.sprintf "%s-%d" name seed) in
      write_file (base ^ ".spans.json") (Spans.to_json ());
      write_file (base ^ ".folded") (Spans.to_folded ());
      Printf.printf "spans: %s.spans.json  folded stacks: %s.folded\n" base base;
      List.map (fun (n, v, u, _) -> (n, v, u)) m
    end
  in
  json_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1
