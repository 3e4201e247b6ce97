(* Host-speed reference.  This host's speed drifts (on a shared 2-vCPU
   VM, by up to ~1.6x within a minute), and a drift moves every timing
   together.  So the untraced run times this fixed kernel after every
   window of ops and every set-up, and scales durations by
   [ref_ns / kernel time]: times read in units of a reference host on
   which the kernel takes [ref_ns].  The kernel is the OCaml parser
   from compiler-libs, which ships with the compiler, parsing a fixed
   source text: no simulator code, so a change to the simulator cannot
   move it, yet it leans on the host the way the simulator does (a
   large code footprint, indirect calls, short-lived allocation).  Of
   the kernels tried it tracked the workloads' drift most closely.

   The kernel runs in a child process of its own (this executable,
   started with [server_flag]), so the simulator's heap and GC debt
   cannot speed it up or slow it down: a change that only moves the
   workload shows in the scaled times in full.  Each sample runs on the
   CPU the benchmark was just running on: on a VM whose vCPUs run at
   different speeds, a kernel on the other vCPU would measure that one.
   Like the ops, a sample is CPU time, so a preemption during it does
   not read as a slow host. *)

let ref_ns = 10_000_000

let source =
  String.concat "\n"
    (List.init 60 (fun i ->
         Printf.sprintf
           "let f%d x y = match x with | Some (a, b) when a > %d -> (a + b) * y \
            | Some (a, _) -> a - y | None -> (fun z -> z * %d) y\n\
            type t%d = { a%d : int; b%d : string list; c%d : (int * float) option }\n\
            let g%d l = List.fold_left (fun acc v -> if v mod 3 = 0 then acc + v else acc - 1) %d l\n\
            module M%d = struct let h = [| 1; 2; 3 |] let k s = String.length s + Array.length h end"
           i i i i i i i i i i))

let run_kernel () =
  let t0 = Clock.cpu_ns () in
  ignore (Sys.opaque_identity (Parse.implementation (Lexing.from_string source)));
  Clock.cpu_ns () - t0

let server_flag = "--refk-server"

(* The child: after a warm-up, one kernel run per request line on
   stdin, which names the CPU to run on; its time in ns as one line on
   stdout.  Exits at end of input, so it also ends when the parent
   dies. *)
let serve () =
  for _ = 1 to 3 do
    ignore (run_kernel ())
  done;
  (try
     while true do
       Clock.pin_cpu (int_of_string (input_line stdin));
       print_string (string_of_int (run_kernel ()) ^ "\n");
       flush stdout
     done
   with End_of_file -> ());
  exit 0

let child = ref None

(* Started on first use; at exit the parent closes the request pipe and
   waits for the child to end. *)
let channels () =
  match !child with
  | Some c -> c
  | None ->
      let req_r, req_w = Unix.pipe ~cloexec:true () in
      let rsp_r, rsp_w = Unix.pipe ~cloexec:true () in
      let pid =
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; server_flag |]
          req_r rsp_w Unix.stderr
      in
      Unix.close req_r;
      Unix.close rsp_w;
      let oc = Unix.out_channel_of_descr req_w and ic = Unix.in_channel_of_descr rsp_r in
      at_exit (fun () ->
          close_out_noerr oc;
          ignore (Unix.waitpid [] pid);
          close_in_noerr ic);
      child := Some (ic, oc);
      (ic, oc)

(* Kernel time in ns, measured in the child. *)
let measure () =
  let ic, oc = channels () in
  output_string oc (string_of_int (Clock.current_cpu ()) ^ "\n");
  flush oc;
  int_of_string (input_line ic)
