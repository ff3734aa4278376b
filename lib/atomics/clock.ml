external monotonic_ns : unit -> int = "clof_monotonic_ns" [@@noalloc]
external thread_cpu_ns : unit -> int = "clof_thread_cpu_ns" [@@noalloc]
