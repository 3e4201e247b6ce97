module Cap = Capability
module Pk = Packed_cap

type access = Read | Write | Exec

let pp_access ppf a =
  Fmt.string ppf (match a with Read -> "read" | Write -> "write" | Exec -> "exec")

type fault = { cause : Cap.violation; addr : int; access : access }

exception Fault of fault

let fault_to_string f =
  Fmt.str "%a fault at 0x%x: %a" pp_access f.access f.addr Cap.pp_violation
    f.cause

let granule_size = 8

type t = {
  base : int;
  size : int;
  data : Bytes.t;
  caps : Cap.t option array;
  tagged : Bytes.t;  (** bitmap mirror of [caps]: bit g set iff caps.(g) <> None *)
  mutable tagged_count : int;
  revoked : Bytes.t;
  mutable revoked_count : int;
  mutable load_filter : bool;
  mutable filter_epoch : int;
      (** bumped whenever the outcome of a load-filter check may change:
          revocation-bit edits, [set_load_filter], snapshot restore.
          Monotone — never restored — so caches keyed on it cannot be
          fooled by a rewind. *)
  mutable tag_set_hook : unit -> unit;
}

let create ~base ~size =
  assert (base mod granule_size = 0 && size mod granule_size = 0 && size > 0);
  let granules = size / granule_size in
  {
    base;
    size;
    data = Bytes.make size '\000';
    caps = Array.make granules None;
    tagged = Bytes.make ((granules + 7) / 8) '\000';
    tagged_count = 0;
    revoked = Bytes.make ((granules + 7) / 8) '\000';
    revoked_count = 0;
    load_filter = true;
    filter_epoch = 0;
    tag_set_hook = ignore;
  }

let base m = m.base
let size m = m.size
let contains m addr = addr >= m.base && addr < m.base + m.size
let set_load_filter m b =
  m.load_filter <- b;
  m.filter_epoch <- m.filter_epoch + 1

let filter_epoch m = m.filter_epoch
let load_filter_enabled m = m.load_filter
let granule_count m = m.size / granule_size
let set_tag_set_hook m f = m.tag_set_hook <- f

let fault cause addr access = raise (Fault { cause; addr; access })

let granule_of m addr = (addr - m.base) / granule_size

let check_range m ~addr ~size:sz access =
  if addr < m.base || addr + sz > m.base + m.size then
    fault Cap.Bounds_violation addr access

(* Tag bitmap maintenance.  Every write to [caps] goes through these two
   so the bitmap and the count never drift from the array — including
   under injected tag-clears and bit-flips. *)

let cap_clear m g =
  match Array.unsafe_get m.caps g with
  | None -> ()
  | Some _ ->
      m.caps.(g) <- None;
      let i = g lsr 3 in
      Bytes.unsafe_set m.tagged i
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get m.tagged i) land lnot (1 lsl (g land 7)) land 0xff));
      m.tagged_count <- m.tagged_count - 1

let cap_put m g c =
  (* The hook (the machine's revoker) must observe memory *before* the
     new tag appears: an in-flight sweep settles up to the present cycle
     first, so the new capability cannot be credited to sweep steps that
     already elapsed. *)
  m.tag_set_hook ();
  (match Array.unsafe_get m.caps g with
  | Some _ -> ()
  | None ->
      let i = g lsr 3 in
      Bytes.unsafe_set m.tagged i
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get m.tagged i) lor (1 lsl (g land 7))));
      m.tagged_count <- m.tagged_count + 1);
  m.caps.(g) <- Some c

(* Clear all tags in granules [g0..g1], skipping over untagged runs a
   bitmap byte at a time. *)
let cap_clear_range m g0 g1 =
  let g = ref g0 in
  while !g <= g1 do
    let i = !g lsr 3 in
    if Char.code (Bytes.unsafe_get m.tagged i) = 0 then
      (* whole bitmap byte clear: skip to the next byte boundary *)
      g := (i + 1) lsl 3
    else begin
      cap_clear m !g;
      incr g
    end
  done

(* The tag bitmap read a 64-bit word at a time, without boxing: only
   compared against zero, so host byte order does not matter. *)
external unsafe_get64 : bytes -> int -> int64 = "%caml_bytes_get64u"

(* Index of the lowest set bit of a non-zero bitmap byte. *)
let lowest_bit b =
  let rec go j = if b land (1 lsl j) <> 0 then j else go (j + 1) in
  go 0

(* First tagged granule in [from, min limit granule_count), else
   [limit].  Never reads a bitmap byte past the one holding granule
   [stop - 1], so the cost is the distance scanned, not the distance to
   the next tag. *)
let next_tagged m ~from ~limit =
  let stop = min limit (granule_count m) in
  let from = max from 0 in
  if from >= stop then limit
  else begin
    let tb = m.tagged in
    let bend = ((stop - 1) lsr 3) + 1 in
    let i0 = from lsr 3 in
    let b0 = Char.code (Bytes.unsafe_get tb i0) land (0xff lsl (from land 7)) in
    let found =
      if b0 <> 0 then (i0 lsl 3) lor lowest_bit b0
      else begin
        let i = ref (i0 + 1) in
        while !i + 8 <= bend && unsafe_get64 tb !i = 0L do
          i := !i + 8
        done;
        while !i < bend && Bytes.unsafe_get tb !i = '\000' do
          incr i
        done;
        if !i < bend then (!i lsl 3) lor lowest_bit (Char.code (Bytes.unsafe_get tb !i))
        else stop
      end
    in
    if found < stop then found else limit
  end

(* Revocation bitmap *)

let rev_get m g =
  Char.code (Bytes.get m.revoked (g lsr 3)) land (1 lsl (g land 7)) <> 0

let rev_set m g v =
  let i = g lsr 3 in
  let mask = 1 lsl (g land 7) in
  let b = Char.code (Bytes.get m.revoked i) in
  if v then begin
    if b land mask = 0 then begin
      Bytes.set m.revoked i (Char.chr ((b lor mask) land 0xff));
      m.revoked_count <- m.revoked_count + 1;
      m.filter_epoch <- m.filter_epoch + 1
    end
  end
  else if b land mask <> 0 then begin
    Bytes.set m.revoked i (Char.chr (b land lnot mask land 0xff));
    m.revoked_count <- m.revoked_count - 1;
    m.filter_epoch <- m.filter_epoch + 1
  end

let set_revoked m ~addr ~len =
  check_range m ~addr ~size:len Write;
  for g = granule_of m addr to granule_of m (addr + len - 1) do
    rev_set m g true
  done

let clear_revoked m ~addr ~len =
  check_range m ~addr ~size:len Write;
  for g = granule_of m addr to granule_of m (addr + len - 1) do
    rev_set m g false
  done

let is_revoked m addr = contains m addr && rev_get m (granule_of m addr)

let revoked_granule_count m = m.revoked_count

(* Raw (privileged) byte access: word-wide for the common sizes, with a
   byte loop for anything unusual.  Little-endian either way. *)

let load_priv m ~addr ~size:sz =
  check_range m ~addr ~size:sz Read;
  let off = addr - m.base in
  match sz with
  | 4 ->
      (* two 16-bit halves: word-wide without boxing an Int32 *)
      Bytes.get_uint16_le m.data off lor (Bytes.get_uint16_le m.data (off + 2) lsl 16)
  | 1 -> Bytes.get_uint8 m.data off
  | 2 -> Bytes.get_uint16_le m.data off
  | _ ->
      let rec go acc i =
        if i < 0 then acc
        else go ((acc lsl 8) lor Char.code (Bytes.get m.data (off + i))) (i - 1)
      in
      go 0 (sz - 1)

let clear_granule_tag m addr = cap_clear m (granule_of m addr)

let store_priv m ~addr ~size:sz v =
  check_range m ~addr ~size:sz Write;
  let off = addr - m.base in
  (match sz with
  | 4 ->
      Bytes.set_uint16_le m.data off (v land 0xffff);
      Bytes.set_uint16_le m.data (off + 2) ((v lsr 16) land 0xffff)
  | 1 -> Bytes.set_uint8 m.data off (v land 0xff)
  | 2 -> Bytes.set_uint16_le m.data off (v land 0xffff)
  | _ ->
      for i = 0 to sz - 1 do
        Bytes.set m.data (off + i) (Char.chr ((v lsr (8 * i)) land 0xff))
      done);
  (* Any data write invalidates the tag of the granule(s) touched. *)
  clear_granule_tag m addr;
  clear_granule_tag m (addr + sz - 1)

(* Unchecked word access for the superblock engine's memoized fast
   paths.  The caller has already validated the exact same access (same
   byte offset, proven by physical equality of the authorizing
   capability) through the full checked path, and re-validates staleness
   via [filter_epoch]; so these skip the range check and the size
   dispatch.  [store32_off] still clears the granule tag(s) — a data
   write always does, and the tag state is not covered by the epoch. *)

external unsafe_get16 : bytes -> int -> int = "%caml_bytes_get16u"
external unsafe_set16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"

(* The primitives load/store native-endian; [Sys.big_endian] is a
   compile-time constant, so the swap folds away on LE hosts. *)
let[@inline] swap16 v = ((v land 0xff) lsl 8) lor (v lsr 8)
let[@inline] get16_le b i =
  let v = unsafe_get16 b i in
  if Sys.big_endian then swap16 v else v

let[@inline] set16_le b i v =
  unsafe_set16 b i (if Sys.big_endian then swap16 (v land 0xffff) else v)

let[@inline] word_offset m addr = addr - m.base

let[@inline] load32_off m off =
  get16_le m.data off lor (get16_le m.data (off + 2) lsl 16)

let[@inline] store32_off m off v =
  set16_le m.data off (v land 0xffff);
  set16_le m.data (off + 2) ((v lsr 16) land 0xffff);
  let g = off lsr 3 (* / granule_size *) in
  cap_clear m g;
  let g2 = (off + 3) lsr 3 in
  if g2 <> g then cap_clear m g2

(* Lossy raw encoding of a capability: the cursor in the low word; in
   the high word the length (low half) and the otype (high half, every
   sentry kind folded to 1).  Reading a capability as data observes
   this, as on hardware.  Written field by field from ints so the packed
   store path can encode a register without boxing it. *)
let write_raw m off ~cursor ~len ~otype_code =
  (* Unchecked writes: both callers range-check the granule first. *)
  let otype = if otype_code >= 1 && otype_code <= 5 then 1 else otype_code in
  set16_le m.data off (cursor land 0xffff);
  set16_le m.data (off + 2) ((cursor lsr 16) land 0xffff);
  set16_le m.data (off + 4) (len land 0xffff);
  set16_le m.data (off + 6) (otype land 0xffff)

let store_cap_priv m ~addr c =
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Write;
  check_range m ~addr ~size:granule_size Write;
  write_raw m (addr - m.base) ~cursor:(Cap.address c) ~len:(Cap.length c)
    ~otype_code:(Cap.otype_code (Cap.otype c));
  let g = granule_of m addr in
  if Cap.tag c then cap_put m g c else cap_clear m g

let load_cap_priv m ~addr =
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Read;
  check_range m ~addr ~size:granule_size Read;
  match m.caps.(granule_of m addr) with
  | Some c -> c
  | None ->
      (* Untagged: decode the raw bytes into a null-derived value. *)
      let lo = load_priv m ~addr ~size:4 in
      Cap.clear_tag
        (match Cap.with_address Cap.null lo with Ok c -> c | Error _ -> Cap.null)

let zero_priv m ~addr ~len =
  check_range m ~addr ~size:len Write;
  Bytes.fill m.data (addr - m.base) len '\000';
  cap_clear_range m (granule_of m addr) (granule_of m (addr + len - 1))

let blit_string_priv m ~addr s =
  check_range m ~addr ~size:(String.length s) Write;
  Bytes.blit_string s 0 m.data (addr - m.base) (String.length s);
  if String.length s > 0 then
    cap_clear_range m (granule_of m addr) (granule_of m (addr + String.length s - 1))

(* Fault-injection primitives (single-event upsets).  Both are
   privileged: they model hardware-level disturbance, not an access, so
   no authorising capability is involved and no cycles are charged. *)

let flip_bit m ~addr ~bit =
  check_range m ~addr ~size:1 Write;
  let off = addr - m.base in
  let b = Char.code (Bytes.get m.data off) lxor (1 lsl (bit land 7)) in
  Bytes.set m.data off (Char.chr b);
  (* The tag covers the whole granule: corrupted bytes can no longer
     decode to the capability that was stored there. *)
  clear_granule_tag m addr

let clear_tag_at m addr =
  if not (contains m addr) then false
  else begin
    let g = granule_of m addr in
    let had = m.caps.(g) <> None in
    cap_clear m g;
    had
  end

let iter_caps m f =
  let total = granule_count m in
  let rec go g =
    let g = next_tagged m ~from:g ~limit:total in
    if g < total then begin
      (match m.caps.(g) with
      | Some c -> f ~addr:(m.base + (g * granule_size)) c
      | None -> assert false);
      go (g + 1)
    end
  in
  go 0

(* Checked access *)

(* Alignment and load-filter checks: the part of [check] beyond the
   capability check itself.  Split out so the machine's SRAM fast path
   (which has already run [Capability.check_access]) can apply it without
   re-checking the capability. *)
let check_aligned_filtered m ~auth ~addr ~size:sz access =
  if sz > 1 && addr mod sz <> 0 then fault Cap.Bounds_violation addr access;
  (* Revoked authority: the hardware guarantees accesses to freed objects
     trap as soon as free returns (§3.1.3).  The load filter catches
     capabilities reloaded from memory; register-held copies in native
     compartment code would be filtered when spilled/reloaded around the
     free() call, which we model by checking the authority's base here. *)
  if m.load_filter && contains m (Cap.base auth) && rev_get m (granule_of m (Cap.base auth))
  then fault Cap.Tag_violation addr access

let check m ~auth ~perm ~addr ~size:sz access =
  (match Cap.check_access ~perm ~addr ~size:sz auth with
  | Ok () -> ()
  | Error cause -> fault cause addr access);
  check_aligned_filtered m ~auth ~addr ~size:sz access

let load ~auth m ~addr ~size:sz =
  check m ~auth ~perm:Perm.Load ~addr ~size:sz Read;
  load_priv m ~addr ~size:sz

let store ~auth m ~addr ~size:sz v =
  check m ~auth ~perm:Perm.Store ~addr ~size:sz Write;
  store_priv m ~addr ~size:sz v

(* [load_cap] after the authority check, which reads nothing of the
   authority but its permissions. *)
let load_cap_tail m ~auth_perms ~addr =
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Read;
  let c = load_cap_priv m ~addr in
  if not (Perm.Set.mem Perm.Mem_cap auth_perms) then Cap.clear_tag c
  else
    let c = Cap.attenuate_loaded_by ~auth_perms c in
    if
      m.load_filter && Cap.tag c
      && contains m (Cap.base c)
      && rev_get m (granule_of m (Cap.base c))
    then Cap.clear_tag c
    else c

let load_cap ~auth m ~addr =
  check m ~auth ~perm:Perm.Load ~addr ~size:granule_size Read;
  load_cap_tail m ~auth_perms:(Cap.perms auth) ~addr

let store_cap ~auth m ~addr c =
  check m ~auth ~perm:Perm.Store ~addr ~size:granule_size Write;
  if addr mod granule_size <> 0 then fault Cap.Bounds_violation addr Write;
  if not (Cap.has_perm Perm.Mem_cap auth) then
    fault (Cap.Permit_violation Perm.Mem_cap) addr Write;
  if Cap.tag c && not (Cap.has_perm Perm.Global c)
     && not (Cap.has_perm Perm.Store_local auth)
  then fault (Cap.Permit_violation Perm.Store_local) addr Write;
  store_cap_priv m ~addr c

(* Packed-authority variants for the superblock engine: the authority
   arrives as its [Packed_cap] meta, base and top slots, read straight
   from the register file.  [check_cap_packed] is [check] of a granule
   access on those ints — [Capability.check_access]'s tag, seal,
   permission and bounds tests, then [check_aligned_filtered]'s
   alignment and load filter, in that order — so the boxed and packed
   paths raise the same [Fault].  [pmask] is [perm]'s meta-word bit
   ([Packed_cap.perm_mask]), precomputed so the hot path tests one
   mask. *)
let[@inline] check_cap_packed m ~am ~ab ~at ~perm ~pmask ~addr access =
  if not (Pk.m_tag am) then fault Cap.Tag_violation addr access;
  if Pk.m_sealed am then fault Cap.Seal_violation addr access;
  if am land pmask = 0 then fault (Cap.Permit_violation perm) addr access;
  if addr < ab || addr + granule_size > at then
    fault Cap.Bounds_violation addr access;
  if addr land (granule_size - 1) <> 0 then fault Cap.Bounds_violation addr access;
  if m.load_filter && contains m ab && rev_get m (granule_of m ab) then
    fault Cap.Tag_violation addr access

let load_mask = Pk.perm_mask Perm.Load
let store_mask = Pk.perm_mask Perm.Store
let mem_cap_mask = Pk.perm_mask Perm.Mem_cap

let load_cap_packed m ~am ~ab ~at ~addr =
  check_cap_packed m ~am ~ab ~at ~perm:Perm.Load ~pmask:load_mask ~addr Read;
  load_cap_tail m ~auth_perms:(Perm.Set.of_bits (Pk.m_perm_bits am)) ~addr

let store_untagged_packed m ~am ~ab ~at ~addr ~vm ~vb ~vt ~vc =
  if Pk.m_tag vm then invalid_arg "Memory.store_untagged_packed: tagged value";
  check_cap_packed m ~am ~ab ~at ~perm:Perm.Store ~pmask:store_mask ~addr Write;
  if am land mem_cap_mask = 0 then
    fault (Cap.Permit_violation Perm.Mem_cap) addr Write;
  (* [Store_local] only constrains tagged values; [store_cap_priv]'s
     alignment test already passed in [check_cap_packed]. *)
  check_range m ~addr ~size:granule_size Write;
  write_raw m (addr - m.base) ~cursor:vc ~len:(vt - vb) ~otype_code:(Pk.m_otype vm);
  cap_clear m (granule_of m addr)

let zero ~auth m ~addr ~len =
  if len > 0 then begin
    check m ~auth ~perm:Perm.Store ~addr ~size:1 Write;
    check m ~auth ~perm:Perm.Store ~addr:(addr + len - 1) ~size:1 Write;
    zero_priv m ~addr ~len
  end

(* Revoker *)

let sweep_granule m g =
  match m.caps.(g) with
  | None -> false
  | Some c ->
      if contains m (Cap.base c) && rev_get m (granule_of m (Cap.base c)) then begin
        cap_clear m g;
        true
      end
      else false

let tagged_granule_count m = m.tagged_count

(* Snapshot/restore: deep-copy every mutable component into a closure
   that writes it back in place.  Restore writes [caps] directly rather
   than through [cap_put], so the tag-set hook never observes it (a
   restore is not a store); the hook itself is left untouched — it
   belongs to whoever installed it, not to the memory image. *)

let snapshot m =
  let data = Bytes.copy m.data in
  let caps = Array.copy m.caps in
  let tagged = Bytes.copy m.tagged in
  let tagged_count = m.tagged_count in
  let revoked = Bytes.copy m.revoked in
  let revoked_count = m.revoked_count in
  let load_filter = m.load_filter in
  fun () ->
    Bytes.blit data 0 m.data 0 (Bytes.length data);
    Array.blit caps 0 m.caps 0 (Array.length caps);
    Bytes.blit tagged 0 m.tagged 0 (Bytes.length tagged);
    m.tagged_count <- tagged_count;
    Bytes.blit revoked 0 m.revoked 0 (Bytes.length revoked);
    m.revoked_count <- revoked_count;
    m.load_filter <- load_filter;
    (* Bumped, never restored: the restored bitmap may differ from what
       a warm access cache last validated against, so every cache keyed
       on the epoch must re-check after a rewind. *)
    m.filter_epoch <- m.filter_epoch + 1
