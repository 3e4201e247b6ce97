(* Reprint call_alloc_mix's measured traffic tables (Mix.measured_calls,
   Mix.measured_pairs, Mix.measured_sizes) from the Obs stream of one
   paper-scale Fig. 7 run and of the fault_campaign workload's seed-1
   scenarios.

     dune build ./perfbench/derive_mix.exe && ./_build/default/perfbench/derive_mix.exe *)

(* Stack need of every callee entry: the Fig. 7 image's declarations
   (which include the allocator and scheduler), plus the campaign
   image's own compartments as lib/fault/fault_campaign.ml declares
   them (that image is not exported). *)
let need =
  let t = Hashtbl.create 64 in
  List.iter
    (fun c ->
      List.iter
        (fun e -> Hashtbl.replace t (c.Firmware.comp_name, e.Firmware.entry_name) e.Firmware.min_stack)
        c.Firmware.entries)
    (Iot_scenario.firmware ()).Firmware.compartments;
  List.iter
    (fun (k, v) -> Hashtbl.replace t k v)
    [ (("app", "main"), 1024); (("svc", "work"), 512); (("svc", "stat"), 256); (("noise", "run"), 512) ];
  fun callee entry ->
    match Hashtbl.find_opt t (callee, entry) with
    | Some n -> n
    | None -> failwith (Printf.sprintf "no stack need known for %s.%s" callee entry)

(* Per source: calls by stack need (allocator calls excluded; each
   Alloc event stands for one allocate/free pair), pairs, and sizes. *)
type tally = { calls : (int, int) Hashtbl.t; mutable pairs : int; sizes : (int, int) Hashtbl.t }

let bump t k = Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k))

let fold tally ring =
  if Obs.dropped ring > 0 then failwith "trace ring dropped events";
  List.iter
    (fun e ->
      match e.Obs.kind with
      | Obs.Call_enter { callee; entry; _ } when callee <> "allocator" ->
          bump tally.calls (need callee entry)
      | Obs.Alloc { size; _ } ->
          tally.pairs <- tally.pairs + 1;
          bump tally.sizes size
      | _ -> ())
    (Obs.events ring)

let () =
  let fresh () = { calls = Hashtbl.create 8; pairs = 0; sizes = Hashtbl.create 32 } in
  let fig = fresh () and camp = fresh () in
  let ring = Obs.create ~capacity:(1 lsl 20) () in
  let m = Machine.create () in
  Machine.set_trace m (Some ring);
  ignore (Iot_scenario.run ~machine:m ());
  fold fig ring;
  Array.iter
    (fun seed ->
      Obs.clear ring;
      ignore (Fault_campaign.run_scenario ~trace:ring ~seed ());
      fold camp ring)
    (Campaign.scenario_seeds 1);
  let get t k = Option.value ~default:0 (Hashtbl.find_opt t k) in
  let keys a b =
    List.sort_uniq compare (Hashtbl.fold (fun k _ l -> k :: l) a (Hashtbl.fold (fun k _ l -> k :: l) b []))
  in
  let row (k, a, b) = Printf.sprintf "(%d, %d, %d)" k a b in
  let table a b = List.map (fun k -> row (k, get a k, get b k)) (keys a b) |> String.concat "; " in
  Printf.printf "let measured_calls = [ %s ]\n" (table fig.calls camp.calls);
  Printf.printf "let measured_pairs = (%d, %d)\n" fig.pairs camp.pairs;
  Printf.printf "let measured_sizes = [ %s ]\n" (table fig.sizes camp.sizes)
