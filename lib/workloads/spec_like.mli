(** CPU-intensive kernels standing in for the paper's SPEC 2000
    workloads.

    Each kernel reads its data from the input stream (so DIFT sources
    fire), computes in registers and memory, and writes a checksum.
    Together they span the behaviours that drive tracing cost: tight
    arithmetic loops, data-dependent control, indexed memory traffic,
    strided shuffles, pointer chasing, and call-dense code (one
    activation per data block — the shape that exercises per-frame
    register files and the wire's call and return cuts). *)

val matmul : Workload.t
val qsort : Workload.t
val rle : Workload.t
val search : Workload.t
val hash : Workload.t
val crc : Workload.t
val sieve : Workload.t
val poly : Workload.t
val butterfly : Workload.t
val bfs : Workload.t
val treesum : Workload.t
val feistel : Workload.t

(** The kernel suite, in a stable order. *)
val all : Workload.t list

(** @raise Invalid_argument for unknown names. *)
val by_name : string -> Workload.t
