(* Assembly-level security invariants of the switcher (§3.1.2): what a
   callee receives in its registers, what the caller gets back, stack
   zeroing, and trusted-stack exhaustion. *)

module Cap = Capability
module F = Firmware

let iv = Interp.int_value
let ti = Interp.to_int

let firmware () =
  F.create ~name:"switcher-test"
    ~threads:
      [
        F.thread ~name:"main" ~comp:"caller" ~entry:"main" ~stack_size:2048
          ~trusted_stack_frames:4 ();
      ]
    [
      F.compartment "caller" ~globals_size:32
        ~entries:[ F.entry "main" ~arity:0 ~min_stack:256 ]
        ~imports:
          [
            F.Call { comp = "callee"; entry = "probe" };
            F.Call { comp = "callee"; entry = "scribble" };
            F.Call { comp = "recurse"; entry = "deep" };
          ];
      F.compartment "callee" ~globals_size:48
        ~entries:
          [
            F.entry "probe" ~arity:2 ~min_stack:256;
            F.entry "scribble" ~arity:0 ~min_stack:256;
          ];
      F.compartment "recurse" ~globals_size:16
        ~entries:[ F.entry "deep" ~arity:1 ~min_stack:64 ]
        ~imports:[ F.Call { comp = "recurse"; entry = "deep" } ];
    ]

let boot main =
  let machine = Machine.create () in
  let k = Result.get_ok (Kernel.boot ~machine (firmware ())) in
  let failure = ref None in
  Kernel.implement1 k ~comp:"caller" ~entry:"main" (fun ctx _ ->
      (try main k ctx with e -> failure := Some e);
      Cap.null);
  Kernel.implement1 k ~comp:"recurse" ~entry:"deep" (fun ctx args ->
      let n = ti args.(0) in
      if n <= 0 then iv 0
      else
        match Kernel.call1 ctx ~import:"recurse.deep" [ iv (n - 1) ] with
        | Ok v -> iv (ti v + 1)
        | Error Kernel.Trusted_stack_exhausted -> iv (-100)
        | Error _ -> iv (-1));
  (k, fun () -> (Kernel.run k; match !failure with Some e -> raise e | None -> ()))

let test_callee_register_state () =
  (* At entry, the callee must see: its args, its own cgp, a truncated
     stack with cursor at the top, a return sentry — and nothing else
     (no trusted stack, no switcher key, no caller state). *)
  let checked = ref false in
  let k, run = boot (fun k ctx ->
      Kernel.implement1 k ~comp:"callee" ~entry:"probe" (fun cctx args ->
          let regs = Interp.read_regs (Kernel.interp k) in
          (* Arguments delivered. *)
          Alcotest.(check int) "arg0" 11 (ti args.(0));
          Alcotest.(check int) "arg1" 22 (ti args.(1));
          (* Non-argument argument registers cleared. *)
          for i = 2 to 5 do
            Alcotest.(check bool)
              (Printf.sprintf "ca%d cleared" i)
              false
              (Cap.tag regs.(Isa.ca0 + i))
          done;
          (* Scratch/saved registers scrubbed: no switcher state leaks. *)
          List.iter
            (fun (name, r) ->
              Alcotest.(check bool) (name ^ " scrubbed") false (Cap.tag regs.(r)))
            [ ("ct0", Isa.ct0); ("ct1", Isa.ct1); ("ct3", Isa.ct3);
              ("cs0", Isa.cs0); ("cs1", Isa.cs1) ];
          (* The stack is truncated to the callee window. *)
          let callee_csp = cctx.Kernel.csp in
          let caller_csp = ctx.Kernel.csp in
          Alcotest.(check bool) "callee stack within caller's" true
            (Cap.base callee_csp >= Cap.base caller_csp
            && Cap.top callee_csp <= Cap.address caller_csp);
          Alcotest.(check int) "cursor at top" (Cap.top callee_csp)
            (Cap.address callee_csp);
          Alcotest.(check bool) "stack is non-global" false
            (Cap.has_perm Perm.Global callee_csp);
          (* The callee's globals belong to the callee. *)
          let l = Loader.find_comp (Kernel.loader k) "callee" in
          Alcotest.(check int) "cgp base" l.Loader.lc_globals_base
            (Cap.base cctx.Kernel.cgp);
          (* The return register holds an interrupt-disabling sentry into
             the switcher. *)
          (match Cap.otype regs.(Isa.ra) with
          | Cap.Otype.Sentry Cap.Otype.Call_disable -> ()
          | _ -> Alcotest.fail "ra is not a switcher return sentry");
          checked := true;
          iv 0);
      ignore (Kernel.call1 ctx ~import:"callee.probe" [ iv 11; iv 22 ]))
  in
  run ();
  ignore k;
  Alcotest.(check bool) "probe ran" true !checked

let test_caller_register_state_after_return () =
  (* After the return path, only ca0/ca1 may carry callee data. *)
  let k, run = boot (fun k ctx ->
      Kernel.implement k ~comp:"callee" ~entry:"probe" (fun _ _ -> (iv 7, iv 8));
      match Kernel.call ctx ~import:"callee.probe" [ iv 0; iv 0 ] with
      | Ok (r0, r1) ->
          Alcotest.(check int) "ret0" 7 (ti r0);
          Alcotest.(check int) "ret1" 8 (ti r1);
          let regs = Interp.read_regs (Kernel.interp ctx.Kernel.kernel) in
          List.iter
            (fun (name, r) ->
              Alcotest.(check bool) (name ^ " cleared on return") false
                (Cap.tag regs.(r)))
            [ ("ca2", Isa.ca2); ("ca3", Isa.ca3); ("ca4", Isa.ca4); ("ca5", Isa.ca5);
              ("ct0", Isa.ct0); ("ct1", Isa.ct1); ("ct3", Isa.ct3);
              ("cs0", Isa.cs0); ("cs1", Isa.cs1) ]
      | Error e -> Alcotest.failf "call failed: %a" Kernel.pp_call_error e)
  in
  run ();
  ignore k

let test_stack_window_zeroed_between_calls () =
  (* A callee writes secrets into its stack window; the next call into
     the same window must observe zeros (caller-leak and callee-leak
     prevention, §5.3.2). *)
  let second_run_values = ref [] in
  let pass = ref 0 in
  let k, run = boot (fun k ctx ->
      Kernel.implement1 k ~comp:"callee" ~entry:"scribble" (fun cctx _ ->
          let m = Kernel.machine k in
          let top = Cap.address cctx.Kernel.csp in
          incr pass;
          if !pass = 1 then
            (* Fill our window with a pattern. *)
            for i = 1 to 32 do
              Machine.store m ~auth:cctx.Kernel.csp ~addr:(top - (4 * i)) ~size:4
                0xdeadbeef
            done
          else
            for i = 1 to 32 do
              second_run_values :=
                Machine.load m ~auth:cctx.Kernel.csp ~addr:(top - (4 * i)) ~size:4
                :: !second_run_values
            done;
          iv 0);
      ignore (Kernel.call1 ctx ~import:"callee.scribble" []);
      ignore (Kernel.call1 ctx ~import:"callee.scribble" []))
  in
  run ();
  ignore k;
  Alcotest.(check int) "two passes" 2 !pass;
  Alcotest.(check bool) "window zeroed" true
    (List.for_all (fun v -> v = 0) !second_run_values);
  Alcotest.(check int) "words checked" 32 (List.length !second_run_values)

let test_trusted_stack_exhaustion () =
  (* 4 trusted frames; the root call takes one, so deep recursion must
     hit Trusted_stack_exhausted and unwind cleanly. *)
  let result = ref 0 in
  let _k, run = boot (fun _k ctx ->
      match Kernel.call1 ctx ~import:"recurse.deep" [ iv 10 ] with
      | Ok v -> result := ti v
      | Error e -> Alcotest.failf "root call failed: %a" Kernel.pp_call_error e)
  in
  run ();
  (* The deepest frame reports -100; each level above adds 1. *)
  Alcotest.(check bool)
    (Printf.sprintf "exhaustion surfaced (got %d)" !result)
    true (!result < 0)

let test_switcher_is_small () =
  (* §5.1.1: the TCB assembly stays small and auditable. *)
  Alcotest.(check bool) "switcher under 200 instructions" true
    (Switcher.instruction_count < 200);
  Alcotest.(check bool) "switcher over 80 instructions" true
    (Switcher.instruction_count > 80)

let test_sealed_export_not_directly_usable () =
  (* The import-table entry for a compartment call is sealed: a caller
     cannot read the callee's export table through it. *)
  let _k, run = boot (fun k ctx ->
      let l = Loader.find_comp (Kernel.loader k) "caller" in
      let slot = Loader.import_slot l "callee.probe" in
      let sealed =
        Machine.load_cap (Kernel.machine k) ~auth:l.Loader.lc_import_cap
          ~addr:(Loader.import_slot_addr l slot)
      in
      Alcotest.(check bool) "sealed" true (Cap.is_sealed sealed);
      match
        Machine.load (Kernel.machine k) ~auth:sealed ~addr:(Cap.base sealed) ~size:4
      with
      | _ -> Alcotest.fail "read through sealed export capability"
      | exception Memory.Fault _ -> ();
      ignore ctx)
  in
  run ()

let test_zeroing_loops_are_single_blocks () =
  (* Stack zeroing dominates the call cost; the superblock compiler must
     keep each zeroing loop (Cgetaddr; Beq out; Csc; Csc; Cincaddrimm;
     J back) one self-looping block so it spins under deferred tick
     batching.  A compiler change that splits either loop fails here. *)
  let interp = Interp.create (Machine.create ()) in
  Switcher.install interp;
  List.iter
    (fun label ->
      let pc =
        Abi.switcher_code_base + (4 * Isa.label_index Switcher.program label)
      in
      Alcotest.(check (option (pair int bool)))
        (label ^ " is one 6-instruction self-looping block")
        (Some (6, true))
        (Interp.block_shape interp pc))
    [ "zero_call_loop"; "zero_ret_loop" ]

let suite =
  [
    Alcotest.test_case "callee register state" `Quick test_callee_register_state;
    Alcotest.test_case "caller registers after return" `Quick
      test_caller_register_state_after_return;
    Alcotest.test_case "stack window zeroed" `Quick test_stack_window_zeroed_between_calls;
    Alcotest.test_case "trusted stack exhaustion" `Quick test_trusted_stack_exhaustion;
    Alcotest.test_case "switcher is small" `Quick test_switcher_is_small;
    Alcotest.test_case "sealed exports opaque" `Quick test_sealed_export_not_directly_usable;
    Alcotest.test_case "zeroing loops are single blocks" `Quick
      test_zeroing_loops_are_single_blocks;
  ]

let () = Alcotest.run "cheriot_switcher" [ ("switcher", suite) ]
