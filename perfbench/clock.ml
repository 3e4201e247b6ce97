(* Host monotonic clock, in nanoseconds. *)
external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* CPU time of this process, in nanoseconds: every thread's user and
   system time, without time spent preempted or stolen by the host. *)
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]

(* The CPU this thread runs on (-1 where unknown), and pinning the
   calling process to one CPU (ignored for -1 or where unsupported). *)
external current_cpu : unit -> int = "perfbench_current_cpu" [@@noalloc]
external pin_cpu : int -> unit = "perfbench_pin_cpu" [@@noalloc]
