(* Growable int sample buffers and order statistics.  Samples live
   outside the OCaml heap (Bigarray), so however many a run collects,
   they do not show in the heap_peak_mb metric. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { mutable a : buf; mutable n : int }

let alloc n = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n
let create () = { a = alloc 1024; n = 0 }
let length s = s.n

let add s v =
  if s.n = Bigarray.Array1.dim s.a then begin
    let b = alloc (2 * s.n) in
    Bigarray.Array1.blit s.a (Bigarray.Array1.sub b 0 s.n);
    s.a <- b
  end;
  Bigarray.Array1.unsafe_set s.a s.n v;
  s.n <- s.n + 1

let get s i = Bigarray.Array1.get s.a i

let sum s =
  let t = ref 0 in
  for i = 0 to s.n - 1 do
    t := !t + Bigarray.Array1.get s.a i
  done;
  !t

let sorted s =
  let b = Array.init s.n (Bigarray.Array1.get s.a) in
  Array.sort compare b;
  b

(* Percentile [p] (0..100) with linear interpolation between order
   statistics; 0. for an empty buffer. *)
let pct_sorted b p =
  let n = Array.length b in
  if n = 0 then 0.
  else
    let r = p /. 100. *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i >= n - 1 then float_of_int b.(n - 1)
    else
      let f = r -. float_of_int i in
      (float_of_int b.(i) *. (1. -. f)) +. (float_of_int b.(i + 1) *. f)

let pct s p = pct_sorted (sorted s) p

let median_floats l =
  match List.sort compare l with
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
