(** The programs of the three workloads, their seeded inputs and the
    host-side references each result is checked against. *)

module K = Core.Kernels
module W = Core.Workloads
module R = Core.Reference

type t = {
  name : string;
  source : string;
  memmap : Isa.Memmap.t;
  expect : string;  (** exact printed output *)
  readback : (string * int array) option;
      (** a global whose final contents a cycle run must leave behind
          (the Table I kernels print nothing) *)
}

let spf = Printf.sprintf

(* -------- Table I groups (paper sizes, chip1024) -------- *)

(* the strided update loop of [par_mem] / [ser_mem], thread by thread *)
let strided_b ~threads ~iters ~n a =
  let b = Array.make n 0 in
  for t = 0 to threads - 1 do
    let idx = ref t in
    for _ = 1 to iters do
      b.(!idx) <- a.(!idx) + 1;
      idx := !idx + 97;
      if !idx >= n then idx := !idx - n
    done
  done;
  b

let recurrence x0 ~iters =
  let x = ref x0 in
  for _ = 1 to iters do
    x := (!x * 3) + 1;
    x := !x land 65535;
    x := !x lxor (!x asr 3)
  done;
  !x

let par_mem ~seed =
  let threads = 2048 and iters = 24 and n = 65536 in
  let a = W.random_array ~seed ~n ~bound:1_000_000 in
  {
    name = "par_mem";
    source = K.par_mem ~threads ~iters ~n;
    memmap = Isa.Memmap.of_ints [ ("A", a) ];
    expect = "";
    readback = Some ("B", strided_b ~threads ~iters ~n a);
  }

let par_comp =
  let threads = 2048 and iters = 80 in
  {
    name = "par_comp";
    source = K.par_comp ~threads ~iters;
    memmap = [];
    expect = "";
    readback = Some ("B", Array.init threads (fun t -> recurrence (t + 1) ~iters));
  }

let bfs ~seed ~n ~chain =
  let g = W.random_graph ~chain ~seed ~n ~edges_per_vertex:4 () in
  let reached, total = R.bfs_summary g 0 in
  {
    name = "bfs";
    source = K.bfs ~n ~m:g.W.m ~src:0;
    memmap = W.graph_memmap g;
    expect = spf "%d %d" reached total;
    readback = None;
  }

let ser_mem ~seed =
  let iters = 4000 and n = 65536 in
  let a = W.random_array ~seed ~n ~bound:1_000_000 in
  {
    name = "ser_mem";
    source = K.ser_mem ~iters ~n;
    memmap = Isa.Memmap.of_ints [ ("A", a) ];
    expect = "";
    readback = Some ("B", strided_b ~threads:1 ~iters ~n a);
  }

let ser_comp =
  let iters = 30000 in
  {
    name = "ser_comp";
    source = K.ser_comp ~iters;
    memmap = [];
    expect = string_of_int (recurrence 1 ~iters);
    readback = None;
  }

(* [ser_comp] reads no input, so the seed cannot change it *)
let table1_parallel ~seed =
  [ par_mem ~seed:(seed * 7 + 1); par_comp; bfs ~seed:(seed * 7 + 2) ~n:4096 ~chain:16 ]

let table1_serial ~seed = [ ser_mem ~seed:(seed * 7 + 3); ser_comp ]

(* -------- the design-space sweep's programs (small, 64 TCUs) -------- *)

let connectivity ~seed ~n =
  let g = W.random_graph ~seed ~n ~edges_per_vertex:3 () in
  {
    name = "connectivity";
    source = K.connectivity ~n ~m:(Array.length g.W.edges);
    memmap = W.edgelist_memmap g;
    expect = string_of_int (R.components g);
    readback = None;
  }

let compaction ~seed ~n =
  let a = W.sparse_array ~seed ~n ~density:30 in
  {
    name = "compaction";
    source = K.compaction ~n;
    memmap = Isa.Memmap.of_ints [ ("A", a) ];
    expect = string_of_int (R.count_nonzero a);
    readback = None;
  }

let reduction name kernel ~seed ~n =
  let a = W.random_array ~seed ~n ~bound:1000 in
  {
    name;
    source = kernel ~n;
    memmap = Isa.Memmap.of_ints [ ("A", a) ];
    expect = string_of_int (R.sum a);
    readback = None;
  }

let spmv ~seed ~n ~nnz_per_row =
  let row, col, nzv = W.random_csr_matrix ~seed ~n ~nnz_per_row in
  let x = W.random_float_array ~seed:(seed + 1) ~n in
  {
    name = "spmv";
    source = K.spmv ~n ~nnz:(n * nnz_per_row);
    memmap =
      Isa.Memmap.of_ints [ ("row", row); ("col", col) ]
      @ Isa.Memmap.of_floats [ ("nzv", nzv); ("x", x) ];
    expect = spf "%g" (R.spmv row col nzv x n).(0);
    readback = None;
  }

let fft ~seed ~n =
  let re = W.random_float_array ~seed ~n in
  let im = W.random_float_array ~seed:(seed + 1) ~n in
  let wr, wi = R.fft_twiddles n in
  let rre, rim = R.fft re im in
  {
    name = "fft";
    source = K.fft ~n;
    memmap = Isa.Memmap.of_floats [ ("re", re); ("im", im); ("wr", wr); ("wi", wi) ];
    expect = spf "%g %g" rre.(0) rim.(0);
    readback = None;
  }

let matmul ~seed ~n =
  let a = W.random_float_array ~seed ~n:(n * n) in
  let b = W.random_float_array ~seed:(seed + 1) ~n:(n * n) in
  {
    name = "matmul";
    source = K.matmul ~n;
    memmap = Isa.Memmap.of_floats [ ("A", a); ("B", b) ];
    expect = spf "%g" (R.matmul a b n).(0);
    readback = None;
  }

let sweep ~seed =
  let s i = (seed * 31) + i in
  [
    bfs ~seed:(s 1) ~n:512 ~chain:8;
    connectivity ~seed:(s 2) ~n:512;
    compaction ~seed:(s 3) ~n:2048;
    reduction "reduce_tree" (fun ~n -> K.reduce_tree ~n) ~seed:(s 4) ~n:2048;
    reduction "reduce_psm" (fun ~n -> K.reduce_psm ~n) ~seed:(s 5) ~n:2048;
    spmv ~seed:(s 6) ~n:256 ~nnz_per_row:8;
    fft ~seed:(s 8) ~n:256;
    matmul ~seed:(s 10) ~n:12;
  ]

(** The sweep's compiler points. *)
let compiler_points =
  let d = Compiler.Driver.default_options in
  [
    ("default", d);
    ("O0", { d with Compiler.Driver.opt_level = 0 });
    ("O1", { d with Compiler.Driver.opt_level = 1 });
    ("noprefetch", { d with Compiler.Driver.prefetch = false });
    ("cluster4", { d with Compiler.Driver.cluster = 4 });
  ]
