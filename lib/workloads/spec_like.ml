(** CPU-intensive kernels standing in for the paper's SPEC 2000
    workloads.

    Each kernel reads its data from the input stream (so DIFT sources
    fire), computes in registers and memory, and writes a checksum.
    Together they span the behaviours that drive tracing cost:
    tight arithmetic loops (matmul, poly, crc), data-dependent control
    (qsort, search), pointer-style indexed memory traffic (hash,
    sieve), and run-length patterns (rle). *)

open Dift_isa

let imm = Operand.imm
let reg = Operand.reg

(* Memory bases for the kernels' arrays (the global region is below
   [Memory.heap_base] = 1_000_000). *)
let base_a = 10_000
let base_b = 300_000
let base_c = 600_000

(* Read [count] words from input into memory starting at [base]. *)
let read_array b ~base ~count ~idx ~tmp ~addr =
  Builder.for_up b ~idx ~from_:(imm 0) ~below:count (fun () ->
      Builder.read b tmp;
      Builder.add b addr (imm base) (reg idx);
      Builder.store b (reg tmp) (reg addr) 0)

(* XOR-fold [count] words at [base] into [acc] and write it. *)
let write_checksum b ~base ~count ~idx ~tmp ~addr ~acc =
  Builder.movi b acc 0;
  Builder.for_up b ~idx ~from_:(imm 0) ~below:count (fun () ->
      Builder.add b addr (imm base) (reg idx);
      Builder.load b tmp (reg addr) 0;
      Builder.xor b acc (reg acc) (reg tmp));
  Builder.write b (reg acc)

(* -- matrix multiply ---------------------------------------------------- *)

let matmul =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        Builder.mul b Reg.r1 (reg Reg.r0) (reg Reg.r0);
        (* n^2 *)
        read_array b ~base:base_a ~count:(reg Reg.r1) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        read_array b ~base:base_b ~count:(reg Reg.r1) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.for_up b ~idx:Reg.r11 ~from_:(imm 0) ~below:(reg Reg.r0)
              (fun () ->
                Builder.movi b Reg.r13 0;
                Builder.for_up b ~idx:Reg.r12 ~from_:(imm 0)
                  ~below:(reg Reg.r0) (fun () ->
                    (* a = A[i*n+k] *)
                    Builder.mul b Reg.r2 (reg Reg.r10) (reg Reg.r0);
                    Builder.add b Reg.r2 (reg Reg.r2) (reg Reg.r12);
                    Builder.add b Reg.r2 (reg Reg.r2) (imm base_a);
                    Builder.load b Reg.r4 (reg Reg.r2) 0;
                    (* b = B[k*n+j] *)
                    Builder.mul b Reg.r3 (reg Reg.r12) (reg Reg.r0);
                    Builder.add b Reg.r3 (reg Reg.r3) (reg Reg.r11);
                    Builder.add b Reg.r3 (reg Reg.r3) (imm base_b);
                    Builder.load b Reg.r5 (reg Reg.r3) 0;
                    Builder.mul b Reg.r6 (reg Reg.r4) (reg Reg.r5);
                    Builder.add b Reg.r13 (reg Reg.r13) (reg Reg.r6));
                (* C[i*n+j] = sum *)
                Builder.mul b Reg.r2 (reg Reg.r10) (reg Reg.r0);
                Builder.add b Reg.r2 (reg Reg.r2) (reg Reg.r11);
                Builder.add b Reg.r2 (reg Reg.r2) (imm base_c);
                Builder.store b (reg Reg.r13) (reg Reg.r2) 0));
        write_checksum b ~base:base_c ~count:(reg Reg.r1) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3 ~acc:Reg.r14;
        Builder.halt b)
  in
  Workload.make ~name:"matmul"
    ~description:"dense n*n matrix multiply, checksum of the product"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      let n = max 2 size in
      Array.append [| n |] (Workload.random_input (2 * n * n) seed))

(* -- quicksort ----------------------------------------------------------- *)

let qsort =
  (* qsort(lo, hi) over the array at base_a; recursive. *)
  let qsort_f =
    Builder.define ~name:"qsort" ~arity:2 (fun b ->
        (* r0 = lo, r1 = hi *)
        Builder.lt b Reg.r2 (reg Reg.r0) (reg Reg.r1);
        Builder.if_nz1 b (reg Reg.r2) (fun () ->
            (* partition: pivot = a[hi] *)
            Builder.add b Reg.r3 (imm base_a) (reg Reg.r1);
            Builder.load b Reg.r4 (reg Reg.r3) 0;
            (* pivot in r4 *)
            Builder.sub b Reg.r5 (reg Reg.r0) (imm 1);
            (* i in r5 *)
            Builder.for_up b ~idx:Reg.r6 ~from_:(reg Reg.r0)
              ~below:(reg Reg.r1) (fun () ->
                Builder.add b Reg.r7 (imm base_a) (reg Reg.r6);
                Builder.load b Reg.r8 (reg Reg.r7) 0;
                Builder.le b Reg.r9 (reg Reg.r8) (reg Reg.r4);
                Builder.if_nz1 b (reg Reg.r9) (fun () ->
                    Builder.add b Reg.r5 (reg Reg.r5) (imm 1);
                    (* swap a[i], a[j] *)
                    Builder.add b Reg.r10 (imm base_a) (reg Reg.r5);
                    Builder.load b Reg.r11 (reg Reg.r10) 0;
                    Builder.store b (reg Reg.r8) (reg Reg.r10) 0;
                    Builder.store b (reg Reg.r11) (reg Reg.r7) 0));
            (* swap a[i+1], a[hi] *)
            Builder.add b Reg.r5 (reg Reg.r5) (imm 1);
            Builder.add b Reg.r10 (imm base_a) (reg Reg.r5);
            Builder.load b Reg.r11 (reg Reg.r10) 0;
            Builder.load b Reg.r12 (reg Reg.r3) 0;
            Builder.store b (reg Reg.r12) (reg Reg.r10) 0;
            Builder.store b (reg Reg.r11) (reg Reg.r3) 0;
            (* recurse: qsort(lo, p-1); qsort(p+1, hi) *)
            Builder.mov b Reg.r13 (reg Reg.r0);
            Builder.mov b Reg.r14 (reg Reg.r1);
            Builder.mov b Reg.r15 (reg Reg.r5);
            Builder.mov b Reg.r0 (reg Reg.r13);
            Builder.sub b Reg.r1 (reg Reg.r15) (imm 1);
            Builder.call b "qsort" ~ret:None;
            Builder.add b Reg.r0 (reg Reg.r15) (imm 1);
            Builder.mov b Reg.r1 (reg Reg.r14);
            Builder.call b "qsort" ~ret:None);
        Builder.ret b None)
  in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        Builder.mov b Reg.r15 (reg Reg.r0);
        read_array b ~base:base_a ~count:(reg Reg.r0) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        Builder.movi b Reg.r0 0;
        Builder.sub b Reg.r1 (reg Reg.r15) (imm 1);
        Builder.call b "qsort" ~ret:None;
        (* verify sortedness and fold a checksum *)
        Builder.movi b Reg.r14 0;
        Builder.sub b Reg.r4 (reg Reg.r15) (imm 1);
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r4)
          (fun () ->
            Builder.add b Reg.r2 (imm base_a) (reg Reg.r10);
            Builder.load b Reg.r5 (reg Reg.r2) 0;
            Builder.load b Reg.r6 (reg Reg.r2) 1;
            Builder.le b Reg.r7 (reg Reg.r5) (reg Reg.r6);
            Builder.check b (reg Reg.r7);
            Builder.add b Reg.r14 (reg Reg.r14) (reg Reg.r5));
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"qsort"
    ~description:"recursive quicksort of n random words, sortedness checked"
    ~program:(Program.make [ main; qsort_f ])
    ~input:(fun ~size ~seed ->
      let n = max 2 size in
      Array.append [| n |] (Workload.random_input n seed))

(* -- run-length encoding ------------------------------------------------- *)

let rle =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        read_array b ~base:base_a ~count:(reg Reg.r0) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        (* encode runs of equal values into (value, length) pairs at
           base_b; r5 = output cursor *)
        Builder.movi b Reg.r5 0;
        Builder.movi b Reg.r6 (-1);
        (* current value *)
        Builder.movi b Reg.r7 0;
        (* current run length *)
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.add b Reg.r2 (imm base_a) (reg Reg.r10);
            Builder.load b Reg.r3 (reg Reg.r2) 0;
            Builder.eq b Reg.r4 (reg Reg.r3) (reg Reg.r6);
            Builder.if_nz b (reg Reg.r4)
              ~then_:(fun () ->
                Builder.add b Reg.r7 (reg Reg.r7) (imm 1))
              ~else_:(fun () ->
                (* flush previous run *)
                Builder.gt b Reg.r8 (reg Reg.r7) (imm 0);
                Builder.if_nz1 b (reg Reg.r8) (fun () ->
                    Builder.add b Reg.r9 (imm base_b) (reg Reg.r5);
                    Builder.store b (reg Reg.r6) (reg Reg.r9) 0;
                    Builder.store b (reg Reg.r7) (reg Reg.r9) 1;
                    Builder.add b Reg.r5 (reg Reg.r5) (imm 2));
                Builder.mov b Reg.r6 (reg Reg.r3);
                Builder.movi b Reg.r7 1));
        (* flush the last run *)
        Builder.gt b Reg.r8 (reg Reg.r7) (imm 0);
        Builder.if_nz1 b (reg Reg.r8) (fun () ->
            Builder.add b Reg.r9 (imm base_b) (reg Reg.r5);
            Builder.store b (reg Reg.r6) (reg Reg.r9) 0;
            Builder.store b (reg Reg.r7) (reg Reg.r9) 1;
            Builder.add b Reg.r5 (reg Reg.r5) (imm 2));
        Builder.write b (reg Reg.r5);
        write_checksum b ~base:base_b ~count:(reg Reg.r5) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3 ~acc:Reg.r14;
        Builder.halt b)
  in
  Workload.make ~name:"rle"
    ~description:"run-length encoding of a small-alphabet stream"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      let n = max 4 size in
      Array.append [| n |] (Workload.random_input ~bound:4 n seed))

(* -- naive string search ------------------------------------------------- *)

let search =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* m: pattern length *)
        read_array b ~base:base_b ~count:(reg Reg.r0) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        Builder.read b Reg.r1;
        (* n: text length *)
        read_array b ~base:base_a ~count:(reg Reg.r1) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        Builder.movi b Reg.r14 0;
        (* match count *)
        Builder.sub b Reg.r4 (reg Reg.r1) (reg Reg.r0);
        Builder.add b Reg.r4 (reg Reg.r4) (imm 1);
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r4)
          (fun () ->
            Builder.movi b Reg.r5 1;
            (* matches so far *)
            Builder.for_up b ~idx:Reg.r11 ~from_:(imm 0) ~below:(reg Reg.r0)
              (fun () ->
                Builder.add b Reg.r6 (reg Reg.r10) (reg Reg.r11);
                Builder.add b Reg.r6 (reg Reg.r6) (imm base_a);
                Builder.load b Reg.r7 (reg Reg.r6) 0;
                Builder.add b Reg.r8 (imm base_b) (reg Reg.r11);
                Builder.load b Reg.r9 (reg Reg.r8) 0;
                Builder.eq b Reg.r12 (reg Reg.r7) (reg Reg.r9);
                Builder.and_ b Reg.r5 (reg Reg.r5) (reg Reg.r12));
            Builder.add b Reg.r14 (reg Reg.r14) (reg Reg.r5));
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"search"
    ~description:"naive pattern search counting matches in a random text"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      let n = max 8 size in
      let m = 3 in
      Array.concat
        [
          [| m |];
          Workload.random_input ~bound:3 m seed;
          [| n |];
          Workload.random_input ~bound:3 n (seed + 1);
        ])

(* -- open-addressing hash table ------------------------------------------ *)

let hash_table_size = 1024

let hash =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n keys *)
        Builder.movi b Reg.r14 0;
        (* collision count *)
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.read b Reg.r1;
            (* key *)
            (* slot = (key * 2654435761) mod size, cheaply *)
            Builder.mul b Reg.r2 (reg Reg.r1) (imm 2654435761);
            Builder.rem b Reg.r2 (reg Reg.r2) (imm hash_table_size);
            (* linear probing: table stores key+1 (0 = empty) *)
            let probe = Builder.fresh_label b "probe" in
            let done_ = Builder.fresh_label b "insert_done" in
            Builder.label b probe;
            Builder.add b Reg.r3 (imm base_c) (reg Reg.r2);
            Builder.load b Reg.r4 (reg Reg.r3) 0;
            Builder.eq b Reg.r5 (reg Reg.r4) (imm 0);
            Builder.if_nz1 b (reg Reg.r5) (fun () ->
                Builder.add b Reg.r6 (reg Reg.r1) (imm 1);
                Builder.store b (reg Reg.r6) (reg Reg.r3) 0;
                Builder.jmp b done_);
            (* occupied: collision, advance *)
            Builder.add b Reg.r14 (reg Reg.r14) (imm 1);
            Builder.add b Reg.r2 (reg Reg.r2) (imm 1);
            Builder.rem b Reg.r2 (reg Reg.r2) (imm hash_table_size);
            Builder.jmp b probe;
            Builder.label b done_);
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"hash"
    ~description:"open-addressing hash inserts, counting probe collisions"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      let n = max 4 (min size (hash_table_size / 2)) in
      Array.append [| n |] (Workload.random_input ~bound:1_000_000 n seed))

(* -- rolling checksum (crc-like) ------------------------------------------ *)

let crc =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        Builder.movi b Reg.r14 65521;
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.read b Reg.r1;
            Builder.shl b Reg.r2 (reg Reg.r14) (imm 1);
            Builder.shr b Reg.r3 (reg Reg.r14) (imm 15);
            Builder.xor b Reg.r4 (reg Reg.r2) (reg Reg.r3);
            Builder.xor b Reg.r4 (reg Reg.r4) (reg Reg.r1);
            Builder.and_ b Reg.r14 (reg Reg.r4) (imm 0xFFFF));
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"crc"
    ~description:"rolling 16-bit checksum over the input stream"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      let n = max 4 size in
      Array.append [| n |] (Workload.random_input ~bound:65536 n seed))

(* -- sieve of Eratosthenes ------------------------------------------------ *)

let sieve =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        (* flags at base_a, initially 0 = prime *)
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 2) ~below:(reg Reg.r0)
          (fun () ->
            Builder.add b Reg.r2 (imm base_a) (reg Reg.r10);
            Builder.load b Reg.r3 (reg Reg.r2) 0;
            Builder.if_nz b (reg Reg.r3)
              ~then_:(fun () -> Builder.nop b)
              ~else_:(fun () ->
                (* mark multiples *)
                Builder.add b Reg.r4 (reg Reg.r10) (reg Reg.r10);
                let mark = Builder.fresh_label b "mark" in
                let stop = Builder.fresh_label b "mark_done" in
                Builder.label b mark;
                Builder.lt b Reg.r5 (reg Reg.r4) (reg Reg.r0);
                Builder.br_z b (reg Reg.r5) stop;
                Builder.add b Reg.r6 (imm base_a) (reg Reg.r4);
                Builder.store b (imm 1) (reg Reg.r6) 0;
                Builder.add b Reg.r4 (reg Reg.r4) (reg Reg.r10);
                Builder.jmp b mark;
                Builder.label b stop));
        (* count primes *)
        Builder.movi b Reg.r14 0;
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 2) ~below:(reg Reg.r0)
          (fun () ->
            Builder.add b Reg.r2 (imm base_a) (reg Reg.r10);
            Builder.load b Reg.r3 (reg Reg.r2) 0;
            Builder.eq b Reg.r4 (reg Reg.r3) (imm 0);
            Builder.add b Reg.r14 (reg Reg.r14) (reg Reg.r4));
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"sieve"
    ~description:"sieve of Eratosthenes counting primes below n"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed:_ -> [| max 10 size |])

(* -- polynomial evaluation ------------------------------------------------ *)

let poly =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* degree+1 coefficient count *)
        read_array b ~base:base_b ~count:(reg Reg.r0) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        Builder.read b Reg.r1;
        (* m evaluation points *)
        Builder.movi b Reg.r14 0;
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r1)
          (fun () ->
            Builder.read b Reg.r4;
            (* x *)
            Builder.movi b Reg.r5 0;
            (* acc *)
            Builder.for_up b ~idx:Reg.r11 ~from_:(imm 0) ~below:(reg Reg.r0)
              (fun () ->
                Builder.mul b Reg.r5 (reg Reg.r5) (reg Reg.r4);
                Builder.add b Reg.r6 (imm base_b) (reg Reg.r11);
                Builder.load b Reg.r7 (reg Reg.r6) 0;
                Builder.add b Reg.r5 (reg Reg.r5) (reg Reg.r7);
                Builder.rem b Reg.r5 (reg Reg.r5) (imm 1_000_003));
            Builder.xor b Reg.r14 (reg Reg.r14) (reg Reg.r5));
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"poly"
    ~description:"Horner evaluation of a polynomial at m points (mod p)"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      let deg = 8 in
      let m = max 2 size in
      Array.concat
        [
          [| deg |];
          Workload.random_input ~bound:100 deg seed;
          [| m |];
          Workload.random_input ~bound:1000 m (seed + 1);
        ])

(* -- butterfly (FFT-style) data shuffling ---------------------------------- *)

(* log2(n) passes of butterfly combine steps over a power-of-two-sized
   array: the strided access pattern of FFT/bitonic kernels, which
   stresses O2's hot-path learning with multiple distinct hot loops. *)
let butterfly =
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* log2 n *)
        Builder.movi b Reg.r1 1;
        Builder.shl b Reg.r1 (reg Reg.r1) (reg Reg.r0);
        (* n = 1 << log2n *)
        read_array b ~base:base_a ~count:(reg Reg.r1) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        (* for each pass p: stride = 1 << p *)
        Builder.for_up b ~idx:Reg.r11 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.movi b Reg.r4 1;
            Builder.shl b Reg.r4 (reg Reg.r4) (reg Reg.r11);
            (* stride *)
            Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r1)
              (fun () ->
                (* partner = i xor stride; combine only when i < partner *)
                Builder.xor b Reg.r5 (reg Reg.r10) (reg Reg.r4);
                Builder.lt b Reg.r6 (reg Reg.r10) (reg Reg.r5);
                Builder.if_nz1 b (reg Reg.r6) (fun () ->
                    Builder.add b Reg.r7 (imm base_a) (reg Reg.r10);
                    Builder.add b Reg.r8 (imm base_a) (reg Reg.r5);
                    Builder.load b Reg.r12 (reg Reg.r7) 0;
                    Builder.load b Reg.r13 (reg Reg.r8) 0;
                    Builder.add b Reg.r14 (reg Reg.r12) (reg Reg.r13);
                    Builder.sub b Reg.r15 (reg Reg.r12) (reg Reg.r13);
                    Builder.store b (reg Reg.r14) (reg Reg.r7) 0;
                    Builder.store b (reg Reg.r15) (reg Reg.r8) 0)));
        write_checksum b ~base:base_a ~count:(reg Reg.r1) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3 ~acc:Reg.r14;
        Builder.halt b)
  in
  Workload.make ~name:"butterfly"
    ~description:"log n butterfly combine passes (FFT-style strides)"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      (* size is interpreted as log2 of the array length, clamped *)
      let log2n = max 2 (min 10 size) in
      Array.append [| log2n |]
        (Workload.random_input ~bound:1000 (1 lsl log2n) seed))

(* -- breadth-first search ---------------------------------------------------- *)

(* BFS over a random graph in adjacency-list form: data-dependent,
   pointer-chasing control flow — the opposite end of the spectrum
   from the dense loops.  Input encodes: n, then n row degrees, then
   the concatenated adjacency lists.  Output: number of reachable
   nodes and the sum of BFS levels. *)
let bfs =
  let adj_idx = 700_000 (* row start offsets *)
  and adj = 710_000 (* edges *)
  and level = 750_000 (* per-node level, -1 = unvisited *)
  and queue = 760_000 in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        (* read degrees, building row offsets; r2 = running offset *)
        Builder.movi b Reg.r2 0;
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.add b Reg.r3 (imm adj_idx) (reg Reg.r10);
            Builder.store b (reg Reg.r2) (reg Reg.r3) 0;
            Builder.read b Reg.r4;
            Builder.add b Reg.r2 (reg Reg.r2) (reg Reg.r4));
        Builder.add b Reg.r3 (imm adj_idx) (reg Reg.r0);
        Builder.store b (reg Reg.r2) (reg Reg.r3) 0;
        (* sentinel offset *)
        (* read the edges *)
        read_array b ~base:adj ~count:(reg Reg.r2) ~idx:Reg.r10 ~tmp:Reg.r3
          ~addr:Reg.r4;
        (* levels <- -1 *)
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.add b Reg.r3 (imm level) (reg Reg.r10);
            Builder.store b (imm (-1)) (reg Reg.r3) 0);
        (* BFS from node 0: r5 = head, r6 = tail *)
        Builder.movi b Reg.r5 0;
        Builder.movi b Reg.r6 0;
        Builder.store b (imm 0) (imm queue) 0;
        Builder.movi b Reg.r6 1;
        Builder.store b (imm 0) (imm level) 0;
        let loop = Builder.fresh_label b "bfs_loop" in
        let done_ = Builder.fresh_label b "bfs_done" in
        Builder.label b loop;
        Builder.lt b Reg.r7 (reg Reg.r5) (reg Reg.r6);
        Builder.br_z b (reg Reg.r7) done_;
        (* u = queue[head++] *)
        Builder.add b Reg.r8 (imm queue) (reg Reg.r5);
        Builder.load b Reg.r9 (reg Reg.r8) 0;
        Builder.add b Reg.r5 (reg Reg.r5) (imm 1);
        (* u's level *)
        Builder.add b Reg.r12 (imm level) (reg Reg.r9);
        Builder.load b Reg.r13 (reg Reg.r12) 0;
        (* scan u's adjacency row *)
        Builder.add b Reg.r14 (imm adj_idx) (reg Reg.r9);
        Builder.load b Reg.r15 (reg Reg.r14) 0;
        (* row start *)
        Builder.load b Reg.r16 (reg Reg.r14) 1;
        (* row end *)
        Builder.for_up b ~idx:Reg.r17 ~from_:(reg Reg.r15)
          ~below:(reg Reg.r16) (fun () ->
            Builder.add b Reg.r18 (imm adj) (reg Reg.r17);
            Builder.load b Reg.r19 (reg Reg.r18) 0;
            (* v *)
            Builder.add b Reg.r20 (imm level) (reg Reg.r19);
            Builder.load b Reg.r21 (reg Reg.r20) 0;
            Builder.lt b Reg.r30 (reg Reg.r21) (imm 0);
            Builder.if_nz1 b (reg Reg.r30) (fun () ->
                Builder.add b Reg.r31 (reg Reg.r13) (imm 1);
                Builder.store b (reg Reg.r31) (reg Reg.r20) 0;
                Builder.add b Reg.r31 (imm queue) (reg Reg.r6);
                Builder.store b (reg Reg.r19) (reg Reg.r31) 0;
                Builder.add b Reg.r6 (reg Reg.r6) (imm 1)));
        Builder.jmp b loop;
        Builder.label b done_;
        (* reachable count and level sum *)
        Builder.movi b Reg.r12 0;
        Builder.movi b Reg.r13 0;
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r0)
          (fun () ->
            Builder.add b Reg.r3 (imm level) (reg Reg.r10);
            Builder.load b Reg.r4 (reg Reg.r3) 0;
            Builder.ge b Reg.r7 (reg Reg.r4) (imm 0);
            Builder.add b Reg.r12 (reg Reg.r12) (reg Reg.r7);
            Builder.if_nz1 b (reg Reg.r7) (fun () ->
                Builder.add b Reg.r13 (reg Reg.r13) (reg Reg.r4)));
        Builder.write b (reg Reg.r12);
        Builder.write b (reg Reg.r13);
        Builder.halt b)
  in
  Workload.make ~name:"bfs"
    ~description:"breadth-first search over a random adjacency list"
    ~program:(Program.make [ main ])
    ~input:(fun ~size ~seed ->
      let n = max 4 size in
      let rng = Random.State.make [| seed; n; 77 |] in
      let degrees = Array.init n (fun _ -> Random.State.int rng 4) in
      let edges =
        Array.concat
          (Array.to_list
             (Array.map
                (fun d -> Array.init d (fun _ -> Random.State.int rng n))
                degrees))
      in
      Array.concat [ [| n |]; degrees; edges ])

(* -- tree-structured hash reduction -------------------------------------- *)

(* Divide-and-conquer over the input array: internal nodes split the
   segment and combine child results, leaves hash their elements in a
   tight register loop.  One activation per segment gives the
   call-dense profile of real code that the fused single-frame loops
   above lack; the VM assigns every activation a fresh register
   frame. *)
let treesum =
  let leaf = 8 in
  let tsum =
    Builder.define ~name:"treesum" ~arity:2 (fun b ->
        (* r0 = lo, r1 = hi (exclusive) *)
        Builder.sub b Reg.r2 (reg Reg.r1) (reg Reg.r0);
        Builder.le b Reg.r3 (reg Reg.r2) (imm leaf);
        Builder.if_nz b (reg Reg.r3)
          ~then_:(fun () ->
            Builder.movi b Reg.r4 0;
            Builder.for_up b ~idx:Reg.r5 ~from_:(reg Reg.r0)
              ~below:(reg Reg.r1) (fun () ->
                Builder.add b Reg.r6 (imm base_a) (reg Reg.r5);
                Builder.load b Reg.r7 (reg Reg.r6) 0;
                (* avalanche the element (two mix rounds), then fold *)
                Builder.mul b Reg.r8 (reg Reg.r7) (imm 0x9e37);
                Builder.shr b Reg.r9 (reg Reg.r8) (imm 7);
                Builder.xor b Reg.r8 (reg Reg.r8) (reg Reg.r9);
                Builder.shl b Reg.r9 (reg Reg.r8) (imm 3);
                Builder.add b Reg.r8 (reg Reg.r8) (reg Reg.r9);
                Builder.mul b Reg.r8 (reg Reg.r8) (imm 0x85eb);
                Builder.shr b Reg.r9 (reg Reg.r8) (imm 11);
                Builder.xor b Reg.r8 (reg Reg.r8) (reg Reg.r9);
                Builder.shl b Reg.r9 (reg Reg.r8) (imm 5);
                Builder.add b Reg.r8 (reg Reg.r8) (reg Reg.r9);
                Builder.xor b Reg.r4 (reg Reg.r4) (reg Reg.r8);
                Builder.add b Reg.r4 (reg Reg.r4) (reg Reg.r7));
            Builder.ret b (Some (reg Reg.r4)))
          ~else_:(fun () ->
            (* mid = lo + (hi - lo) / 2 *)
            Builder.shr b Reg.r4 (reg Reg.r2) (imm 1);
            Builder.add b Reg.r4 (reg Reg.r0) (reg Reg.r4);
            Builder.mov b Reg.r11 (reg Reg.r1);
            Builder.mov b Reg.r12 (reg Reg.r4);
            Builder.mov b Reg.r1 (reg Reg.r12);
            Builder.call b "treesum" ~ret:(Some Reg.r13);
            Builder.mov b Reg.r0 (reg Reg.r12);
            Builder.mov b Reg.r1 (reg Reg.r11);
            Builder.call b "treesum" ~ret:(Some Reg.r14);
            Builder.mul b Reg.r2 (reg Reg.r13) (imm 31);
            Builder.add b Reg.r2 (reg Reg.r2) (reg Reg.r14);
            Builder.xor b Reg.r2 (reg Reg.r2) (reg Reg.r13);
            Builder.ret b (Some (reg Reg.r2))))
  in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        Builder.mov b Reg.r15 (reg Reg.r0);
        read_array b ~base:base_a ~count:(reg Reg.r15) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        Builder.movi b Reg.r0 0;
        Builder.mov b Reg.r1 (reg Reg.r15);
        Builder.call b "treesum" ~ret:(Some Reg.r14);
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"treesum"
    ~description:
      "divide-and-conquer hash reduction, one activation per segment"
    ~program:(Program.make [ main; tsum ])
    ~input:(fun ~size ~seed ->
      let n = max 2 size in
      Array.append [| n |] (Workload.random_input n seed))

(* -- per-block Feistel mixing -------------------------------------------- *)

(* Every input word is pushed through a called round function — the
   other call-dense shape (one short-lived activation per data block,
   all of its work in registers).  The round structure is a textbook
   Feistel network, so the output depends on every bit of the input
   word and the checksum stays taint-reachable. *)
let feistel =
  let rounds = 16 in
  let mix =
    Builder.define ~name:"mix" ~arity:2 (fun b ->
        (* r0 = left half (data), r1 = right half (block index) *)
        for _ = 1 to rounds do
          Builder.shl b Reg.r2 (reg Reg.r0) (imm 4);
          Builder.add b Reg.r2 (reg Reg.r2) (reg Reg.r1);
          Builder.shr b Reg.r3 (reg Reg.r0) (imm 5);
          Builder.add b Reg.r3 (reg Reg.r3) (imm 0x7af3);
          Builder.xor b Reg.r2 (reg Reg.r2) (reg Reg.r3);
          Builder.add b Reg.r4 (reg Reg.r0) (reg Reg.r2);
          Builder.mov b Reg.r0 (reg Reg.r1);
          Builder.mov b Reg.r1 (reg Reg.r4)
        done;
        Builder.add b Reg.r0 (reg Reg.r0) (reg Reg.r1);
        Builder.ret b (Some (reg Reg.r0)))
  in
  let main =
    Builder.define ~name:"main" ~arity:0 (fun b ->
        Builder.read b Reg.r0;
        (* n *)
        Builder.mov b Reg.r15 (reg Reg.r0);
        read_array b ~base:base_a ~count:(reg Reg.r15) ~idx:Reg.r10
          ~tmp:Reg.r2 ~addr:Reg.r3;
        Builder.movi b Reg.r14 0;
        Builder.for_up b ~idx:Reg.r10 ~from_:(imm 0) ~below:(reg Reg.r15)
          (fun () ->
            Builder.add b Reg.r2 (imm base_a) (reg Reg.r10);
            Builder.load b Reg.r0 (reg Reg.r2) 0;
            Builder.mov b Reg.r1 (reg Reg.r10);
            Builder.call b "mix" ~ret:(Some Reg.r3);
            Builder.add b Reg.r2 (imm base_b) (reg Reg.r10);
            Builder.store b (reg Reg.r3) (reg Reg.r2) 0;
            Builder.xor b Reg.r14 (reg Reg.r14) (reg Reg.r3));
        Builder.write b (reg Reg.r14);
        Builder.halt b)
  in
  Workload.make ~name:"feistel"
    ~description:
      "per-block Feistel mixing, one round-function activation per word"
    ~program:(Program.make [ main; mix ])
    ~input:(fun ~size ~seed ->
      let n = max 2 size in
      Array.append [| n |] (Workload.random_input n seed))

(** The kernel suite, in a stable order. *)
let all =
  [
    matmul; qsort; rle; search; hash; crc; sieve; poly; butterfly; bfs;
    treesum; feistel;
  ]

let by_name name =
  match List.find_opt (fun w -> w.Workload.name = name) all with
  | Some w -> w
  | None -> invalid_arg (Fmt.str "Spec_like.by_name: %s" name)
