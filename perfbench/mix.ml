(* call_alloc_mix: a firmware image owned by the benchmark, one thread
   running a seeded closed-loop mix of compartment calls and
   allocate/free pairs whose shares and shapes are measured from the
   repo's two full-system workloads (see [measured_calls]).  No network,
   no tick listeners: the switcher, Interp.run entry/exit, the kernel's
   native call path and the allocator.  The calls only read; the pairs
   write the heap.  The rig in rig.ml runs a short pass of the same mix
   in every traced run. *)

module F = Firmware
module Cap = Capability

type kind = Call of int  (** the callee entry's stack need, bytes *) | Pair of int  (** bytes *)
type op = { kind : kind; arg : int }

let pass_len = 8192
let quota = 64 * 1024

(* The measured traffic: Obs Call_enter and Alloc events of one
   paper-scale Fig. 7 run (Iot_scenario.run) and of the 160
   Fault_campaign.run_scenario seeds of the fault_campaign workload's
   seed 1; derive_mix.exe reprints these tables.  Compartment calls,
   other than to the allocator, are grouped by the callee entry's
   declared stack need (Firmware min_stack), as
   (need, Fig. 7 calls, campaign calls); each Alloc event is one
   allocate/free pair.  Library calls emit no trace event, so no share
   can be measured for them and the mix has none. *)
let measured_calls =
  [ (64, 5481, 0); (128, 6366, 4800); (256, 5500, 160); (512, 5522, 9760); (1024, 23, 160) ]

let measured_pairs = (18, 13956)

(* Allocation sizes in bytes, as (size, Fig. 7 count, campaign count). *)
let measured_sizes =
  [
    (16, 6, 739); (24, 0, 740); (32, 0, 771); (40, 0, 734); (48, 0, 749); (56, 0, 740);
    (64, 1, 760); (72, 0, 710); (80, 0, 771); (88, 0, 800); (96, 0, 806); (104, 0, 728);
    (112, 0, 714); (120, 0, 777); (128, 0, 725); (136, 0, 703); (144, 0, 253); (152, 0, 223);
    (160, 0, 252); (168, 0, 249); (176, 0, 258); (184, 0, 255); (192, 0, 257); (200, 0, 242);
    (256, 2, 0); (512, 1, 0); (640, 4, 0); (2032, 4, 0);
  ]

let needs = List.map (fun (n, _, _) -> n) measured_calls
let entry_of need = Printf.sprintf "s%d" need

(* [n] split over [weights] in proportion, by largest remainder. *)
let apportion n weights =
  let tot = List.fold_left ( + ) 0 weights in
  let base = List.map (fun w -> n * w / tot) weights in
  let short = n - List.fold_left ( + ) 0 base in
  let by_rem =
    List.sort
      (fun (i, a) (j, b) -> if a = b then compare i j else compare b a)
      (List.mapi (fun i w -> (i, n * w mod tot)) weights)
  in
  let extra = List.filteri (fun k _ -> k < short) by_rem |> List.map fst in
  List.mapi (fun i b -> if List.mem i extra then b + 1 else b) base

(* Size at cumulative share [u] (0..1) of the pooled size counts. *)
let size_at u =
  let pooled = List.map (fun (sz, a, b) -> (sz, a + b)) measured_sizes in
  let tot = List.fold_left (fun a (_, c) -> a + c) 0 pooled in
  let target = u *. float_of_int tot in
  let rec go acc = function
    | [ (sz, _) ] -> sz
    | (sz, c) :: rest -> if target < float_of_int (acc + c) then sz else go (acc + c) rest
    | [] -> assert false
  in
  go 0 pooled

(* A pass of [n] ops holds each kind in its measured share of the
   pooled counts, exactly (stratified); allocation sizes are stratified
   over the measured size distribution.  The seed draws the order, the
   arguments and each size within its stratum, so seeds vary the inputs
   without varying the mix. *)
let gen ~seed n =
  let st = Random.State.make [| seed; 0x6d6978 |] in
  let fig_pairs, camp_pairs = measured_pairs in
  let counts =
    apportion n (List.map (fun (_, a, b) -> a + b) measured_calls @ [ fig_pairs + camp_pairs ])
  in
  let calls = List.filteri (fun i _ -> i < List.length needs) counts in
  let pairs = List.nth counts (List.length needs) in
  let kinds =
    List.concat (List.map2 (fun need c -> List.init c (fun _ -> Call need)) needs calls)
    @ List.init pairs (fun j ->
          Pair (size_at ((float_of_int j +. Random.State.float st 1.) /. float_of_int pairs)))
  in
  let ops =
    Array.of_list (List.map (fun kind -> { kind; arg = Random.State.int st 1_000_000 }) kinds)
  in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = ops.(i) in
    ops.(i) <- ops.(j);
    ops.(j) <- t
  done;
  ops

let firmware () =
  System.image ~name:"perfmix"
    ~sealed_objects:[ Allocator.alloc_capability ~name:"mix_quota" ~quota ]
    ~threads:[ F.thread ~name:"main" ~comp:"mix" ~entry:"main" ~stack_size:4096 () ]
    [
      F.compartment "mix" ~globals_size:64
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:2048 ]
        ~imports:
          (System.standard_imports
          @ List.map (fun n -> F.Call { comp = "callee"; entry = entry_of n }) needs
          @ [ F.Static_sealed { target = "mix_quota" } ]);
      F.compartment "callee" ~globals_size:32
        ~entries:(List.map (fun n -> F.entry (entry_of n) ~arity:1 ~min_stack:n) needs);
    ]

(* Per-layer samples, taken only while spans are on and the simulator
   is untraced (Spans.layer_on): each compartment call's switcher legs,
   split at the callee closure's entry and exit, and the instructions
   and minor words it costs. *)
type layer = {
  call_leg : Stats.t;
  ret_leg : Stats.t;
  call_instr : Stats.t;
  call_words : Stats.t;
}

let layer = {
  call_leg = Stats.create ();
  ret_leg = Stats.create ();
  call_instr = Stats.create ();
  call_words = Stats.create ();
}

type sys = {
  sys : System.t;
  interp : Interp.t;
  mutable enter_ns : int;
  mutable exit_ns : int;
}

let boot () =
  let machine = Machine.create () in
  let sys = Result.get_ok (System.boot ~machine (firmware ())) in
  let k = sys.System.kernel in
  let s = { sys; interp = Kernel.interp k; enter_ns = 0; exit_ns = 0 } in
  let echo need =
    let entry = entry_of need in
    Kernel.implement1 k ~comp:"callee" ~entry (fun _ args ->
        if not (Spans.layer_on ()) then args.(0)
        else begin
          s.enter_ns <- Clock.now_ns ();
          let v = Spans.with_ ("callee." ^ entry) (fun () -> args.(0)) in
          s.exit_ns <- Clock.now_ns ();
          v
        end)
  in
  List.iter echo needs;
  s

let quota_cap s ctx = System.alloc_cap_of s.sys ~comp:"mix" ~import:"mix_quota" ctx

(* Running allocator observations: completed pairs, and how many of
   them saw a revocation pass complete during the allocation. *)
type alloc_stats = { mutable pairs : int; mutable stalls : int }

let new_alloc_stats () = { pairs = 0; stalls = 0 }

let exec s ps ctx q op =
  let m = s.sys.System.machine in
  match op.kind with
  | Call need ->
      let entry = entry_of need in
      let timed = Spans.layer_on () in
      let i0 = Interp.instret s.interp in
      let w0 = if timed then Gc.minor_words () else 0. in
      let t0 = Clock.now_ns () in
      let r =
        Spans.with_ ("kernel.call1." ^ entry) (fun () ->
            Kernel.call1 ctx ~import:("callee." ^ entry) [ Interp.int_value op.arg ])
      in
      let t1 = Clock.now_ns () in
      if timed then begin
        Stats.add layer.call_leg (s.enter_ns - t0);
        Stats.add layer.ret_leg (t1 - s.exit_ns);
        Stats.add layer.call_instr (Interp.instret s.interp - i0);
        Stats.add layer.call_words (int_of_float (Gc.minor_words () -. w0))
      end;
      (match r with Ok v -> Interp.to_int v = op.arg | Error _ -> false)
  | Pair size -> (
      let e0 = Machine.revoker_epoch m in
      match Spans.with_ "allocator.allocate" (fun () -> Allocator.allocate ctx ~alloc_cap:q size) with
      | Error _ -> false
      | Ok c ->
          if Machine.revoker_epoch m <> e0 then ps.stalls <- ps.stalls + 1;
          ps.pairs <- ps.pairs + 1;
          let fits = Cap.tag c && Cap.length c >= size in
          Machine.store m ~auth:c ~addr:(Cap.base c) ~size:4 op.arg;
          let back = Machine.load m ~auth:c ~addr:(Cap.base c) ~size:4 in
          let freed = Spans.with_ "allocator.free" (fun () -> Allocator.free ctx ~alloc_cap:q c) in
          fits && back = op.arg && freed = Ok ())

(* Boot the mix image and run [f ctx q] on its thread; [f] returns when
   the run is over. *)
let on_thread s f =
  Kernel.implement1 s.sys.System.kernel ~comp:"mix" ~entry:"main" (fun ctx _ ->
      f ctx (quota_cap s ctx);
      Cap.null);
  System.run s.sys

let warmup = 256

let start ~seed body =
  let ops = gen ~seed pass_len in
  let s = boot () in
  let counts = Hashtbl.create 32 in
  let ps = new_alloc_stats () in
  let next = ref 0 in
  on_thread s (fun ctx q ->
      for i = 0 to warmup - 1 do
        ignore (exec s ps ctx q ops.(i))
      done;
      let m = s.sys.System.machine in
      let ring = Obs.create ~capacity:(1 lsl 16) () in
      let run_op mode =
        let i = !next in
        next := (i + 1) mod pass_len;
        if Work.attaches_obs mode then begin
          Obs.clear ring;
          Machine.set_trace m (Some ring)
        end;
        let c0 = Machine.cycles m and i0 = Interp.instret s.interp in
        let p0 = ps.pairs and s0 = ps.stalls in
        let ok = exec s ps ctx q ops.(i) in
        let cycles = Machine.cycles m - c0 and instr = Interp.instret s.interp - i0 in
        Machine.set_trace m None;
        if mode = Work.Count then begin
          ignore (Work.count_obs counts ring);
          Work.bump counts "interp.instr" instr;
          Work.bump counts "alloc.pairs" (ps.pairs - p0);
          Work.bump counts "alloc.stalls" (ps.stalls - s0);
          let peak = "alloc.quarantine_bytes.peak" in
          Hashtbl.replace counts peak
            (max (Allocator.quarantined_bytes s.sys.System.alloc)
               (Option.value ~default:0 (Hashtbl.find_opt counts peak)))
        end;
        let label = match ops.(i).kind with Call n -> "call." ^ entry_of n | Pair _ -> "pair" in
        {
          Work.ok;
          key = i;
          label;
          instr;
          totals = [ ("cycles", cycles); ("instr", instr) ];
        }
      in
      let finish () =
        Allocator.check_integrity s.sys.System.alloc = Ok ()
        && Kernel.check_sanity s.sys.System.kernel = Ok ()
      in
      body
        {
          Work.pass_len;
          sinkable = true;
          repeatable = false;
          run_op;
          end_pass = (fun () -> true);
          finish;
          counts;
        })

let workload = { Work.name = "call_alloc_mix"; start }
