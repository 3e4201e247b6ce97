(* Tests for the machine composition: clock, MMIO, timer, revoker. *)

module Cap = Capability

let mk () = Machine.create ~sram_size:(64 * 1024) ()

let rw m =
  Cap.make_root ~base:(Machine.sram_base m)
    ~top:(Machine.sram_base m + Machine.sram_size m)
    ~perms:Perm.Set.read_write

let test_tick_advances () =
  let m = mk () in
  Machine.tick m 100;
  Alcotest.(check int) "cycles" 100 (Machine.cycles m)

let test_access_charges_cycles () =
  let m = mk () in
  let auth = rw m in
  let c0 = Machine.cycles m in
  ignore (Machine.load m ~auth ~addr:(Machine.sram_base m) ~size:4);
  Alcotest.(check bool) "load charged" true (Machine.cycles m > c0)

let test_mmio_device () =
  let m = mk () in
  let dev = Machine.Device.ram ~name:"led" ~size:16 in
  Machine.add_device m ~base:0x1000_0000 ~size:16 dev;
  let auth =
    Cap.make_root ~base:0x1000_0000 ~top:0x1000_0010 ~perms:Perm.Set.read_write
  in
  Machine.store m ~auth ~addr:0x1000_0004 ~size:4 0x42;
  Alcotest.(check int) "device readback" 0x42
    (Machine.load m ~auth ~addr:0x1000_0004 ~size:4);
  (* A capability for SRAM must not reach the device. *)
  (match Machine.load m ~auth:(rw m) ~addr:0x1000_0004 ~size:4 with
  | _ -> Alcotest.fail "expected bounds fault"
  | exception Memory.Fault _ -> ());
  Alcotest.(check bool) "region listed" true
    (List.exists (fun (n, _, _) -> n = "led") (Machine.device_regions m))

let test_unmapped_address_faults () =
  let m = mk () in
  let auth = Cap.make_root ~base:0 ~top:0x4000_0000 ~perms:Perm.Set.read_write in
  match Machine.load m ~auth ~addr:0x0900_0000 ~size:4 with
  | _ -> Alcotest.fail "expected fault"
  | exception Memory.Fault { cause = Cap.Bounds_violation; _ } -> ()

let test_timer_irq () =
  let m = mk () in
  let fired = ref [] in
  Machine.set_deliver_hook m (Some (fun irq -> fired := irq :: !fired));
  Machine.set_timer m (Some 50);
  Machine.tick m 10;
  Alcotest.(check (list int)) "not yet" [] !fired;
  Machine.tick m 100;
  Alcotest.(check (list int)) "timer fired" [ Machine.timer_irq ] !fired

let test_irq_disabled_defers () =
  let m = mk () in
  let fired = ref 0 in
  Machine.set_deliver_hook m (Some (fun _ -> incr fired));
  Machine.set_irq_enabled m false;
  Machine.raise_irq m Machine.timer_irq;
  Machine.tick m 10;
  Alcotest.(check int) "deferred" 0 !fired;
  Machine.set_irq_enabled m true;
  Machine.tick m 1;
  Alcotest.(check int) "delivered on enable+tick" 1 !fired

let test_revoker_sweep_completes () =
  let m = mk () in
  let auth = rw m in
  let base = Machine.sram_base m in
  (* Plant a dangling cap, mark its target revoked, run the revoker. *)
  let obj = Cap.exn (Cap.set_bounds (Cap.with_address_exn auth (base + 1024)) ~length:32) in
  Memory.store_cap_priv (Machine.mem m) ~addr:(base + 512) obj;
  Memory.set_revoked (Machine.mem m) ~addr:(base + 1024) ~len:32;
  Alcotest.(check int) "epoch 0" 0 (Machine.revoker_epoch m);
  Machine.revoker_kick m;
  Alcotest.(check bool) "busy" true (Machine.revoker_busy m);
  Machine.run_revoker_to_completion m;
  Alcotest.(check int) "epoch 1" 1 (Machine.revoker_epoch m);
  Alcotest.(check bool) "irq pending" true (Machine.pending m Machine.revoker_irq);
  let c = Memory.load_cap_priv (Machine.mem m) ~addr:(base + 512) in
  Alcotest.(check bool) "cap swept" false (Cap.tag c)

let test_revoker_sweep_duration () =
  (* A sweep should take granules * rate cycles, matching the paper's
     ~1.5 ms per MiB figure when scaled. *)
  let m = mk () in
  Machine.set_revoker_rate m ~cycles_per_granule:3;
  Machine.revoker_kick m;
  let t0 = Machine.cycles m in
  Machine.run_revoker_to_completion m;
  let dt = Machine.cycles m - t0 in
  let expected = Memory.granule_count (Machine.mem m) * 3 in
  Alcotest.(check bool)
    (Printf.sprintf "sweep %d cycles ~ %d" dt expected)
    true
    (abs (dt - expected) < 200)

(* Periodic hardware re-arms itself: each call parks the listener, and
   the listener sets its next wakeup from inside the call. *)
let test_listener_self_rearm () =
  let m = mk () in
  let fired = ref [] in
  let h = ref None in
  let l =
    Machine.add_tick_listener m (fun c ->
        fired := c :: !fired;
        Machine.set_listener_wakeup m (Option.get !h) ~at:(c + 10))
  in
  h := Some l;
  Machine.set_listener_wakeup m l ~at:10;
  Machine.tick m 5;
  Alcotest.(check (list int)) "before due" [] !fired;
  Machine.tick m 5;
  Alcotest.(check (list int)) "fires at wakeup" [ 10 ] !fired;
  (* One big tick past several wakeups: listeners run at tick
     granularity, so this is a single call at the current cycle. *)
  Machine.tick m 25;
  Alcotest.(check (list int)) "one call per tick" [ 35; 10 ] !fired

let test_listener_remove () =
  let m = mk () in
  let calls = ref 0 in
  let h = ref None in
  let l =
    Machine.add_tick_listener m (fun c ->
        incr calls;
        Machine.set_listener_wakeup m (Option.get !h) ~at:(c + 1))
  in
  h := Some l;
  Machine.set_listener_wakeup m l ~at:1;
  Machine.tick m 1;
  Machine.tick m 1;
  Machine.remove_tick_listener m l;
  Machine.set_listener_wakeup m l ~at:3;
  Machine.tick m 1;
  Machine.tick m 1;
  Alcotest.(check int) "stopped after remove" 2 !calls

let test_listener_parked_wakeup () =
  let m = mk () in
  let fired = ref [] in
  let h = Machine.add_tick_listener m (fun c -> fired := c :: !fired) in
  Machine.tick m 50;
  Alcotest.(check (list int)) "parked" [] !fired;
  Machine.set_listener_wakeup m h ~at:80;
  Machine.tick m 10;
  Alcotest.(check (list int)) "still early" [] !fired;
  Machine.tick m 30;
  Alcotest.(check (list int)) "woken once" [ 90 ] !fired;
  Machine.tick m 100;
  Alcotest.(check (list int)) "parked again" [ 90 ] !fired

let test_seconds_conversion () =
  Alcotest.(check bool) "33 MHz" true
    (abs_float (Machine.seconds_of_cycles 33_000_000 -. 1.0) < 1e-9)

(* Horizon safety: the cached event horizon, with its bitmap scan
   bounded by the window that can still lower it, must never let a fast
   tick skip an observable event.  Two machines get the same random
   tag layout on both sides of the sweep frontier (capabilities whose
   bases are revoked, so the sweep clears them, and live ones), the
   same revocation edits, tagged stores and tag clears mid-sweep, timer
   deadlines and listener wakeups, and the same random ticks; one of
   them requests attention before every tick, so every tick it takes is
   a slow tick that settles the sweep.  After every step the tag
   bitmaps, revocation epochs and busy flags must agree, and so must
   the cycles at which IRQs (the revoker's included) were delivered and
   the listener fired. *)
let prop_horizon_safe =
  QCheck.Test.make ~name:"bounded horizon scan == slow tick every tick"
    ~count:300 QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let int n = Random.State.int rng n in
      let size = 4096 in
      let granules = size / Memory.granule_size in
      let rate = 1 + int 6 in
      let machine attention =
        let m = Machine.create ~sram_size:size () in
        Machine.set_revoker_rate m ~cycles_per_granule:rate;
        let log = ref [] in
        Machine.set_deliver_hook m
          (Some (fun n -> log := (n, Machine.cycles m) :: !log));
        let l =
          Machine.add_tick_listener m (fun c -> log := (-1, c) :: !log)
        in
        (m, attention, log, l)
      in
      let pair = [ machine false; machine true ] in
      let each f = List.iter (fun (m, att, _, l) -> f m att l) pair in
      let m0, _, _, _ = List.hd pair in
      let base = Machine.sram_base m0 in
      let auth =
        Cap.make_root ~base ~top:(base + size) ~perms:Perm.Set.read_write
      in
      let cap_to g =
        Cap.exn
          (Cap.set_bounds (Cap.with_address_exn auth (base + (8 * g)))
             ~length:8)
      in
      let store () =
        let at = int granules and target = int granules in
        each (fun m _ _ ->
            Memory.store_cap_priv (Machine.mem m) ~addr:(base + (8 * at))
              (cap_to target))
      in
      let revoke () =
        let g = int granules in
        let len = 8 * (1 + int (min 16 (granules - g))) in
        let set = int 3 > 0 in
        each (fun m _ _ ->
            let mem = Machine.mem m in
            if set then Memory.set_revoked mem ~addr:(base + (8 * g)) ~len
            else Memory.clear_revoked mem ~addr:(base + (8 * g)) ~len)
      in
      for _ = 1 to 1 + int 8 do
        revoke ()
      done;
      for _ = 1 to int 200 do
        store ()
      done;
      each (fun m _ _ -> Machine.revoker_kick m);
      let probe what =
        let view (m, _, log, _) =
          let tags = ref [] in
          Memory.iter_caps (Machine.mem m) (fun ~addr _ -> tags := addr :: !tags);
          ( Machine.cycles m,
            Machine.revoker_epoch m,
            Machine.revoker_busy m,
            !tags,
            !log )
        in
        match List.map view pair with
        | [ fast; slow ] when fast <> slow ->
            let c, e, _, t, l = fast and c', e', _, t', l' = slow in
            QCheck.Test.fail_reportf
              "after %s (seed %d, rate %d): cycles %d/%d epoch %d/%d, %d/%d \
               tags, %d/%d events"
              what seed rate c c' e e' (List.length t) (List.length t')
              (List.length l) (List.length l')
        | _ -> ()
      in
      for _ = 1 to 200 do
        (match int 12 with
        | 0 -> store (); probe "store"
        | 1 -> revoke (); probe "revocation edit"
        | 2 ->
            let at = int granules in
            each (fun m _ _ ->
                ignore (Memory.clear_tag_at (Machine.mem m) (base + (8 * at))));
            probe "tag clear"
        | 3 ->
            let d = 1 + int (rate * 40) in
            each (fun m _ _ -> Machine.set_timer m (Some (Machine.cycles m + d)));
            probe "timer"
        | 4 ->
            let d = 1 + int (rate * 40) in
            each (fun m _ l ->
                Machine.set_listener_wakeup m l ~at:(Machine.cycles m + d));
            probe "listener wakeup"
        | 5 ->
            each (fun m _ _ -> if not (Machine.revoker_busy m) then Machine.revoker_kick m);
            probe "kick"
        | _ ->
            let n = if int 8 = 0 then 1 + int (rate * 200) else 1 + int (rate * 2) in
            each (fun m att _ ->
                if att then Machine.request_attention m;
                Machine.tick m n);
            probe (Printf.sprintf "tick %d" n));
      done;
      true)

let suite =
  [
    Alcotest.test_case "tick advances" `Quick test_tick_advances;
    Alcotest.test_case "access charges" `Quick test_access_charges_cycles;
    Alcotest.test_case "mmio device" `Quick test_mmio_device;
    Alcotest.test_case "unmapped faults" `Quick test_unmapped_address_faults;
    Alcotest.test_case "timer irq" `Quick test_timer_irq;
    Alcotest.test_case "irq disabled defers" `Quick test_irq_disabled_defers;
    Alcotest.test_case "revoker completes" `Quick test_revoker_sweep_completes;
    Alcotest.test_case "revoker duration" `Quick test_revoker_sweep_duration;
    Alcotest.test_case "listener self re-arm" `Quick test_listener_self_rearm;
    Alcotest.test_case "listener remove" `Quick test_listener_remove;
    Alcotest.test_case "listener parked wakeup" `Quick test_listener_parked_wakeup;
    Alcotest.test_case "seconds conversion" `Quick test_seconds_conversion;
    Qcheck_seed.to_alcotest prop_horizon_safe;
  ]

let () = Alcotest.run "cheriot_machine" [ ("machine", suite) ]
