(* Property-based tests of the capability algebra (§2.1): every
   derivation chain is monotone — bounds only narrow, permissions only
   shrink, and no sequence of operations (including a seal/unseal
   round-trip or a load-time attenuation) ever regains authority. *)

module Cap = Capability

let root =
  Cap.make_root ~base:0x2000_0000 ~top:0x2000_4000 ~perms:Perm.Set.universe

(* A derivation step, driven by generator-supplied integers that are
   folded into (mostly) legal parameters; illegal ones exercise the
   refusal paths and leave the chain where it was. *)
type op =
  | Narrow of int * int  (** move cursor, then set_bounds *)
  | Mask of int  (** and_perms with this bitmask *)
  | Move of int  (** reposition the cursor *)

let pp_op = function
  | Narrow (a, b) -> Printf.sprintf "N(%d,%d)" a b
  | Mask m -> Printf.sprintf "M(0x%x)" m
  | Move a -> Printf.sprintf "V(%d)" a

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 30)
      (frequency
         [
           (3, map2 (fun a b -> Narrow (a, b)) nat nat);
           (2, map (fun m -> Mask m) (int_bound 0xfff));
           (2, map (fun a -> Move a) nat);
         ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map pp_op ops))
    gen_ops

let apply c = function
  | Narrow (a, b) -> (
      let len = Cap.length c in
      let off = if len = 0 then 0 else a mod (len + 1) in
      match Cap.with_address c (Cap.base c + off) with
      | Error _ -> c
      | Ok c' -> (
          let room = Cap.top c' - Cap.address c' in
          let l = if room <= 0 then 0 else b mod (room + 1) in
          match Cap.set_bounds c' ~length:l with Error _ -> c' | Ok r -> r))
  | Mask m -> (
      match Cap.and_perms c (Perm.Set.of_bits m) with
      | Error _ -> c
      | Ok r -> r)
  | Move a -> (
      let len = Cap.length c in
      let off = if len = 0 then 0 else a mod len in
      match Cap.with_address c (Cap.base c + off) with Error _ -> c | Ok r -> r)

let narrower ~than:c c' =
  Cap.base c' >= Cap.base c
  && Cap.top c' <= Cap.top c
  && Perm.Set.subset (Cap.perms c') (Cap.perms c)

let prop_chain_monotone =
  QCheck.Test.make ~name:"derivation chains never widen bounds or perms"
    ~count:500 arb_ops (fun ops ->
      let rec go c = function
        | [] -> true
        | op :: rest ->
            let c' = apply c op in
            narrower ~than:c c' && narrower ~than:root c' && go c' rest
      in
      go root ops)

let prop_set_bounds_exact =
  QCheck.Test.make ~name:"set_bounds is exact and contained or refuses"
    ~count:500
    QCheck.(pair (int_bound 0x7fff) (int_bound 0x7fff))
    (fun (a, b) ->
      match Cap.with_address root (0x2000_0000 + a) with
      | Error _ -> a >= 0x4000 (* only an out-of-bounds cursor may refuse *)
      | Ok c -> (
          match Cap.set_bounds c ~length:b with
          | Error _ -> Cap.address c + b > Cap.top c
          | Ok r ->
              Cap.base r = Cap.address c
              && Cap.top r = Cap.address c + b
              && Cap.top r <= Cap.top root))

let prop_and_perms_is_intersection =
  QCheck.Test.make ~name:"and_perms computes exact intersections" ~count:500
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (m1, m2) ->
      let s1 = Perm.Set.of_bits m1 and s2 = Perm.Set.of_bits m2 in
      match Cap.and_perms root s1 with
      | Error _ -> false
      | Ok c1 -> (
          match Cap.and_perms c1 s2 with
          | Error _ -> false
          | Ok c2 -> Perm.Set.equal (Cap.perms c2) (Perm.Set.inter s1 s2)))

let prop_attenuate_loaded_monotone =
  QCheck.Test.make
    ~name:"load-time attenuation only removes permissions" ~count:500
    QCheck.(pair (int_bound 0xffff) (int_bound 0xffff))
    (fun (am, lm) ->
      let auth = Cap.exn (Cap.and_perms root (Perm.Set.of_bits am)) in
      let loaded = Cap.exn (Cap.and_perms root (Perm.Set.of_bits lm)) in
      let att = Cap.attenuate_loaded ~auth loaded in
      Perm.Set.subset (Cap.perms att) (Cap.perms loaded)
      && (Perm.Set.mem Perm.Load_mutable (Cap.perms auth)
         || not (Perm.Set.mem Perm.Store (Cap.perms att)))
      && (Perm.Set.mem Perm.Load_global (Cap.perms auth)
         || not (Perm.Set.mem Perm.Global (Cap.perms att))))

let prop_seal_roundtrip_preserves =
  QCheck.Test.make
    ~name:"seal/unseal round-trips without gaining authority" ~count:500
    QCheck.(pair (int_bound 100) (int_bound 0xffff))
    (fun (ot_seed, m) ->
      let key_root =
        Cap.make_sealing_root ~first:Cap.Otype.data_first
          ~last:Cap.Otype.data_last
      in
      let ot =
        Cap.Otype.data_first
        + (ot_seed mod (Cap.Otype.data_last - Cap.Otype.data_first + 1))
      in
      let key = Cap.exn (Cap.with_address key_root ot) in
      let c = Cap.exn (Cap.and_perms root (Perm.Set.of_bits m)) in
      match Cap.seal ~key c with
      | Error _ -> false
      | Ok s -> (
          Cap.is_sealed s
          &&
          match Cap.unseal ~key s with
          | Error _ -> false
          | Ok u ->
              Cap.base u = Cap.base c
              && Cap.top u = Cap.top c
              && Perm.Set.equal (Cap.perms u) (Cap.perms c)
              && not (Cap.is_sealed u)))

(* ---- packed representation ({!Packed_cap}) ------------------------ *)

(* The interpreter's hot loop works on the flat packed encoding; these
   properties pin the two contracts DESIGN.md states: pack/unpack is an
   exact bijection, and every in-place derivation helper agrees with
   the boxed [Capability] operation it mirrors — same success results,
   same violations, including when dst aliases src. *)

module Pk = Packed_cap

let sentries =
  [
    Cap.Otype.Call_inherit;
    Cap.Otype.Call_disable;
    Cap.Otype.Call_enable;
    Cap.Otype.Return_disable;
    Cap.Otype.Return_enable;
  ]

(* Build a capability from five generator seeds, covering the
   representation's corners: tagged and untagged, unsealed / sentry /
   data-sealed, zero-length, empty and full permission sets, cursor
   out of bounds (legal for unsealed capabilities). *)
let build_cap (base_s, len_s, perm_s, cur_s, shape) =
  let base = 0x2000_0000 + (base_s land 0xfff) * 4 in
  let len = if shape mod 5 = 0 then 0 else len_s land 0xfff in
  let perms =
    match perm_s mod 7 with
    | 0 -> Perm.Set.universe
    | 1 -> Perm.Set.of_bits 0
    | _ -> Perm.Set.of_bits (perm_s land 0xfff)
  in
  let root = Cap.make_root ~base ~top:(base + len) ~perms in
  let c = Cap.with_address_unsealed root (base + (cur_s mod (len + 17)) - 8) in
  match shape mod 4 with
  | 0 -> c
  | 1 -> Cap.clear_tag c
  | 2 -> (
      (* sentry: needs Execute and an in-bounds cursor; keep [c] when
         sealing refuses so refusal corners stay in the distribution *)
      match Cap.seal_entry c (List.nth sentries (len_s mod 5)) with
      | Ok s -> s
      | Error _ -> c)
  | _ -> (
      let ot =
        Cap.Otype.data_first
        + (cur_s mod (Cap.Otype.data_last - Cap.Otype.data_first + 1))
      in
      let key =
        Cap.with_address_unsealed
          (Cap.make_sealing_root ~first:Cap.Otype.data_first
             ~last:Cap.Otype.data_last)
          ot
      in
      match Cap.seal ~key c with Ok s -> s | Error _ -> c)

let arb_cap =
  QCheck.make
    ~print:(fun seeds -> Cap.to_string (build_cap seeds))
    QCheck.Gen.(
      map
        (fun (a, b, (c, d, e)) -> (a, b, c, d, e))
        (triple nat nat (triple nat nat nat)))

let prop_pack_unpack_bijection =
  QCheck.Test.make ~name:"packed: unpack (pack c) = c; register 0 is inert"
    ~count:1000 arb_cap (fun seeds ->
      let c = build_cap seeds in
      let pk = Pk.make 2 in
      Pk.pack pk 1 c;
      Cap.equal (Pk.unpack pk 1) c
      (* register 0 discards writes and always reads NULL *)
      && (Pk.pack pk 0 c;
          Cap.equal (Pk.unpack pk 0) Cap.null)
      (* the meta word round-trips through the architectural encoding *)
      && Cap.equal
           (Cap.of_meta ~meta:(Cap.meta c) ~base:(Cap.base c)
              ~top:(Cap.top c) ~cursor:(Cap.address c))
           c)

(* One in-place helper application, driven by generator seeds. *)
type pkop =
  | PIncr of int
  | PSetAddr of int  (** base-relative target *)
  | PSetBounds of int
  | PAndPerms of int
  | PClearTag
  | PSeal of int  (** key-cursor offset around the data-otype range *)
  | PUnseal of int
  | PSealEntry of int

let pp_pkop = function
  | PIncr d -> Printf.sprintf "incr %d" d
  | PSetAddr d -> Printf.sprintf "setaddr %+d" d
  | PSetBounds l -> Printf.sprintf "setbounds %d" l
  | PAndPerms m -> Printf.sprintf "andperms 0x%x" m
  | PClearTag -> "cleartag"
  | PSeal k -> Printf.sprintf "seal key+%d" k
  | PUnseal k -> Printf.sprintf "unseal key+%d" k
  | PSealEntry k -> Printf.sprintf "sealentry %d" k

let build_pkop (k, arg) =
  match k mod 8 with
  | 0 -> PIncr ((arg land 0x7ff) - 0x400)
  | 1 -> PSetAddr ((arg land 0x1fff) - 0x100)
  | 2 -> PSetBounds ((arg land 0x1fff) - 8)
  | 3 -> PAndPerms (arg land 0xffff)
  | 4 -> PClearTag
  | 5 -> PSeal (arg mod 11)
  | 6 -> PUnseal (arg mod 11)
  | _ -> PSealEntry (arg mod 5)

(* A key whose cursor lands in (and just outside) the data-otype range,
   so both the success path and the otype/bounds refusals are hit. *)
let seal_key off =
  Cap.with_address_unsealed
    (Cap.make_sealing_root ~first:Cap.Otype.data_first
       ~last:Cap.Otype.data_last)
    (Cap.Otype.data_first + off - 1)

let arb_pk_case =
  QCheck.make
    ~print:(fun (seeds, opseed, alias) ->
      Printf.sprintf "%s; %s; dst%s=src" (Cap.to_string (build_cap seeds))
        (pp_pkop (build_pkop opseed))
        (if alias then "" else "<>"))
    QCheck.Gen.(
      triple
        (map
           (fun (a, b, (c, d, e)) -> (a, b, c, d, e))
           (triple nat nat (triple nat nat nat)))
        (pair nat nat) bool)

let prop_packed_derivation_equiv =
  QCheck.Test.make
    ~name:"packed: every in-place helper agrees with the boxed operation"
    ~count:2000 arb_pk_case (fun (seeds, opseed, alias) ->
      let c = build_cap seeds in
      let op = build_pkop opseed in
      let pk = Pk.make 4 in
      Pk.pack pk 1 c;
      let src = 1 in
      let dst = if alias then 1 else 2 in
      (* (packed result code, what the boxed algebra says) *)
      let code, boxed =
        match op with
        | PIncr d -> (Pk.incr_addr pk ~dst ~src d, Cap.incr_address c d)
        | PSetAddr d -> (Pk.set_addr pk ~dst ~src (Cap.base c + d),
                         Cap.with_address c (Cap.base c + d))
        | PSetBounds l -> (Pk.set_bounds pk ~dst ~src l,
                           Cap.set_bounds c ~length:l)
        | PAndPerms m ->
            let s = Perm.Set.of_bits m in
            (Pk.and_perms pk ~dst ~src s, Cap.and_perms c s)
        | PClearTag ->
            Pk.clear_tag pk ~dst ~src;
            (Pk.ok, Ok (Cap.clear_tag c))
        | PSeal off ->
            let key = seal_key off in
            Pk.pack pk 3 key;
            (Pk.seal pk ~dst ~src ~key:3, Cap.seal ~key c)
        | PUnseal off ->
            let key = seal_key off in
            Pk.pack pk 3 key;
            (Pk.unseal pk ~dst ~src ~key:3, Cap.unseal ~key c)
        | PSealEntry k ->
            let kind = List.nth sentries k in
            ( Pk.seal_entry pk ~dst ~src (Cap.sentry_code kind),
              Cap.seal_entry c kind )
      in
      match boxed with
      | Ok r ->
          code = Pk.ok
          && Cap.equal (Pk.unpack pk dst) r
          (* a non-aliased source is left untouched *)
          && (alias || Cap.equal (Pk.unpack pk src) c)
      | Error v ->
          code <> Pk.ok
          && Pk.violation code = v
          (* on refusal the register file is unchanged (the interpreter
             traps before any write) *)
          && Cap.equal (Pk.unpack pk src) c)

(* The superblock engine's packed untagged store against the boxed
   [Memory.store_cap] it replaces.  Authority and value come from the
   same corner-covering generator (the value with its tag cleared, so
   unsealed, sentry- and data-sealed raw encodings all occur); memory
   starts with tagged granules around the target, sometimes a revoked
   authority base and sometimes the load filter off.  Both sides must
   raise the same fault or leave byte-identical memory, tags and tag
   count; a successful store must also write the architectural raw
   encoding (cursor, length, otype with sentries folded to 1). *)
let mem_base = 0x2000_0000
let mem_size = 16 * 1024

let arb_store_case =
  let seeds5 =
    QCheck.Gen.(
      map
        (fun (a, b, (c, d, e)) -> (a, b, c, d, e))
        (triple nat nat (triple nat nat nat)))
  in
  QCheck.make
    ~print:(fun (a, v, (imm, env)) ->
      Printf.sprintf "auth %s; value %s; imm %d; env %d"
        (Cap.to_string (build_cap a))
        (Cap.to_string (Cap.clear_tag (build_cap v)))
        imm env)
    QCheck.Gen.(
      triple seeds5 seeds5
        (pair
           (* granule offsets around the cursor, sometimes misaligned *)
           (map
              (fun k -> (8 * ((k mod 8) - 2)) + if k mod 9 = 0 then 4 else 0)
              nat)
           nat))

let prop_packed_untagged_store_equiv =
  QCheck.Test.make
    ~name:"packed untagged store == boxed Memory.store_cap" ~count:2000
    arb_store_case (fun (aseeds, vseeds, (imm, env)) ->
      let auth =
        if env mod 3 = 0 then build_cap aseeds
        else
          (* a plausible store authority, so most cases reach the write *)
          let a, b, c, _, _ = aseeds in
          let base = mem_base + (8 * (a mod 2048)) - 64 in
          let perms =
            match c mod 4 with
            | 0 -> Perm.Set.stack
            | 1 -> Perm.Set.universe
            | 2 -> Perm.Set.remove Perm.Mem_cap Perm.Set.read_write
            | _ -> Perm.Set.read_write
          in
          Cap.with_address_unsealed
            (Cap.make_root ~base ~top:(base + 64 + (8 * (b mod 64))) ~perms)
            (base + 16 + (8 * (c mod 8)))
      in
      let v = Cap.clear_tag (build_cap vseeds) in
      let addr = Cap.address auth + imm in
      let mk () =
        let m = Memory.create ~base:mem_base ~size:mem_size in
        let filler =
          Cap.make_root ~base:mem_base ~top:(mem_base + 64)
            ~perms:Perm.Set.read_write
        in
        (* tagged granules around the target (when it is in SRAM) *)
        let g0 = (addr - mem_base) / 8 in
        for g = g0 - 2 to g0 + 2 do
          if g >= 0 && g < mem_size / 8 then
            Memory.store_cap_priv m ~addr:(mem_base + (8 * g)) filler
        done;
        if env land 3 = 1 && Memory.contains m (Cap.base auth) then
          Memory.set_revoked m ~addr:(Cap.base auth land lnot 7) ~len:8;
        if env land 12 = 12 then Memory.set_load_filter m false;
        m
      in
      let observe m f =
        match f m with
        | () ->
            let tags = ref [] in
            Memory.iter_caps m (fun ~addr c -> tags := (addr, c) :: !tags);
            let bytes =
              String.init mem_size (fun i ->
                  Char.chr (Memory.load_priv m ~addr:(mem_base + i) ~size:1))
            in
            Ok (bytes, !tags, Memory.tagged_granule_count m)
        | exception Memory.Fault f -> Error f
      in
      let boxed = observe (mk ()) (fun m -> Memory.store_cap ~auth m ~addr v) in
      let pk = Pk.make 3 in
      Pk.pack pk 1 auth;
      Pk.pack pk 2 v;
      let packed =
        observe (mk ()) (fun m ->
            Memory.store_untagged_packed m ~am:(Pk.meta pk 1) ~ab:(Pk.base pk 1)
              ~at:(Pk.top pk 1) ~addr ~vm:(Pk.meta pk 2) ~vb:(Pk.base pk 2)
              ~vt:(Pk.top pk 2) ~vc:(Pk.cursor pk 2))
      in
      match (boxed, packed) with
      | Error a, Error b ->
          a.Memory.cause = b.Memory.cause
          && a.Memory.addr = b.Memory.addr
          && a.Memory.access = b.Memory.access
      | Ok (bytes, tags, n), Ok (bytes', tags', n') ->
          let half i =
            Char.code bytes.[addr - mem_base + i]
            lor (Char.code bytes.[addr - mem_base + i + 1] lsl 8)
          in
          let otype =
            match Cap.otype v with
            | Cap.Otype.Unsealed -> 0
            | Cap.Otype.Sentry _ -> 1
            | Cap.Otype.Data d -> d
          in
          String.equal bytes bytes'
          && List.equal
               (fun (a, c) (a', c') -> a = a' && Cap.equal c c')
               tags tags'
          && n = n'
          && half 0 = Cap.address v land 0xffff
          && half 2 = (Cap.address v lsr 16) land 0xffff
          && half 4 = Cap.length v land 0xffff
          && half 6 = otype
      | _ -> false)

let suite =
  List.map Qcheck_seed.to_alcotest
    [
      prop_chain_monotone;
      prop_set_bounds_exact;
      prop_and_perms_is_intersection;
      prop_attenuate_loaded_monotone;
      prop_seal_roundtrip_preserves;
      prop_pack_unpack_bijection;
      prop_packed_derivation_equiv;
      prop_packed_untagged_store_equiv;
    ]

let () = Alcotest.run "cheriot_cap_props" [ ("capability-algebra", suite) ]
