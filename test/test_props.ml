(** Property-based tests (qcheck) on the toolchain's core invariants. *)

let config = Xmtsim.Config.tiny

(* compaction of a random array always reports the nonzero count, and the
   cycle-mode result equals the functional-mode result *)
let prop_compaction =
  QCheck.Test.make ~count:15 ~name:"compaction counts nonzeros"
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 0 5))
    (fun l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
      let src = Core.Kernels.compaction ~n in
      let fo, co, _ = Tu.both ~memmap ~config src in
      let expected = string_of_int (Core.Reference.count_nonzero a) in
      fo = expected && co = expected)

let prop_reduce_psm =
  QCheck.Test.make ~count:15 ~name:"psm reduction sums"
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range (-50) 50))
    (fun l ->
      let a = Array.of_list l in
      let n = Array.length a in
      let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
      let fo, co, _ = Tu.both ~memmap ~config (Core.Kernels.reduce_psm ~n) in
      let expected = string_of_int (Core.Reference.sum a) in
      fo = expected && co = expected)

(* serial expression evaluation matches OCaml's semantics *)
let prop_serial_arith =
  QCheck.Test.make ~count:40 ~name:"serial arithmetic matches host"
    QCheck.(triple (int_range (-1000) 1000) (int_range (-1000) 1000)
              (int_range 1 100))
    (fun (x, y, z) ->
      let src =
        Printf.sprintf
          "int main() { int x = %d; int y = %d; int z = %d; print_int((x + y) \
           * 3 - x / z + (y %% z)); return 0; }"
          x y z
      in
      let expected = string_of_int (Isa.Value.wrap32 (((x + y) * 3) - (x / z) + (y mod z))) in
      let fo, co, _ = Tu.both ~config src in
      fo = expected && co = expected)

let prop_bitwise =
  QCheck.Test.make ~count:40 ~name:"bitwise ops match host"
    QCheck.(pair (int_range 0 100000) (int_range 0 20))
    (fun (x, s) ->
      let src =
        Printf.sprintf
          "int main() { int x = %d; int s = %d; print_int(((x << 2) >> s) ^ (x \
           & 255) | (x %% 7)); return 0; }"
          x s
      in
      let expected =
        string_of_int
          (Isa.Value.wrap32 ((Isa.Value.wrap32 (x lsl 2) asr s) lxor (x land 255) lor (x mod 7)))
      in
      let fo, _, _ = Tu.both ~config src in
      fo = expected)

(* assembler round trip on random instruction sequences *)
let arbitrary_instr =
  let open Isa.Instr in
  let r = QCheck.Gen.int_range 0 31 in
  let g =
    QCheck.Gen.oneof
      [
        QCheck.Gen.map3 (fun d a b -> Alu (Add, d, a, b)) r r r;
        QCheck.Gen.map3 (fun d a b -> Alu (Sltu, d, a, b)) r r r;
        QCheck.Gen.map3 (fun d a i -> Alui (Addi, d, a, i - 500))
          r r (QCheck.Gen.int_range 0 1000);
        QCheck.Gen.map2 (fun d i -> Li (d, i - 100000)) r (QCheck.Gen.int_range 0 200000);
        QCheck.Gen.map3 (fun t o b -> Lw (t, o * 4, b)) r (QCheck.Gen.int_range 0 64) r;
        QCheck.Gen.map3 (fun t o b -> Swnb (t, o * 4, b)) r (QCheck.Gen.int_range 0 64) r;
        QCheck.Gen.map3 (fun d a b -> Fpu (Fmul, d, a, b)) r r r;
        QCheck.Gen.map (fun d -> Brz (Bnez, d, "lbl")) r;
        QCheck.Gen.map (fun d -> Ps (d, 3)) r;
        QCheck.Gen.return Fence;
        QCheck.Gen.return Join;
      ]
  in
  QCheck.make ~print:Isa.Instr.to_string g

let prop_asm_roundtrip =
  QCheck.Test.make ~count:300 ~name:"asm text roundtrip"
    arbitrary_instr
    (fun ins ->
      let text = Isa.Instr.to_string ins in
      Isa.Instr.to_string (Isa.Asm.parse_instr text) = text)

(* value wrapping behaves like 32-bit two's complement *)
let prop_wrap32 =
  QCheck.Test.make ~count:500 ~name:"wrap32 is 32-bit two's complement"
    QCheck.int (fun x ->
      let w = Isa.Value.wrap32 x in
      w >= -2147483648 && w <= 2147483647
      && (x - w) mod 4294967296 = 0)

let prop_wrap32_idempotent =
  QCheck.Test.make ~count:500 ~name:"wrap32 idempotent" QCheck.int (fun x ->
      Isa.Value.wrap32 (Isa.Value.wrap32 x) = Isa.Value.wrap32 x)

(* the pretty-printer output re-typechecks for random small programs *)
let arbitrary_source =
  let g =
    QCheck.Gen.(
      let* n = int_range 1 20 in
      let* k = int_range 1 5 in
      return
        (Printf.sprintf
           {|
int A[%d];
int acc = 0;
int main(void) {
  int i;
  for (i = 0; i < %d; i++) A[i] = i * %d;
  spawn(0, %d) {
    int v = A[$];
    psm(v, acc);
  }
  print_int(acc);
  return 0;
}
|}
           n n k (n - 1))
      |> fun x -> x)
  in
  QCheck.make ~print:(fun s -> s) g

let prop_pretty_roundtrip =
  QCheck.Test.make ~count:20 ~name:"pretty output re-typechecks and agrees"
    arbitrary_source (fun src ->
      let p = Xmtc.Typecheck.program_of_source src in
      let printed = Xmtc.Pretty.program_to_string p in
      let r1 = Core.Toolchain.exec ~functional:true src in
      let r2 = Core.Toolchain.exec ~functional:true printed in
      r1.Core.Toolchain.output = r2.Core.Toolchain.output)

(* random graphs: BFS kernel agrees with host reference *)
let prop_bfs =
  QCheck.Test.make ~count:8 ~name:"bfs agrees with reference"
    QCheck.(pair (int_range 10 50) (int_range 1 3))
    (fun (n, epv) ->
      let g = Core.Workloads.random_graph ~chain:(n / 3) ~seed:(n + epv) ~n
          ~edges_per_vertex:epv ()
      in
      let src = Core.Kernels.bfs ~n ~m:g.Core.Workloads.m ~src:0 in
      let reached, total = Core.Reference.bfs_summary g 0 in
      let r =
        Core.Toolchain.exec ~memmap:(Core.Workloads.graph_memmap g) ~config src
      in
      r.Core.Toolchain.output = Printf.sprintf "%d %d" reached total)

(* random straight-line+control programs behave identically at every
   optimization level (the serial optimizer is semantics-preserving) *)
let arbitrary_program =
  let g =
    QCheck.Gen.(
      let* seed = int_range 1 100000 in
      let* depth = int_range 1 4 in
      let r = Desim.Rng.create ~seed in
      (* build a random int expression over variables a,b,c avoiding
         division by anything possibly zero *)
      let rec expr d =
        if d = 0 then
          match Desim.Rng.int r 4 with
          | 0 -> "a"
          | 1 -> "b"
          | 2 -> "c"
          | _ -> string_of_int (Desim.Rng.int r 100 - 50)
        else
          let x = expr (d - 1) and y = expr (d - 1) in
          match Desim.Rng.int r 8 with
          | 0 -> Printf.sprintf "(%s + %s)" x y
          | 1 -> Printf.sprintf "(%s - %s)" x y
          | 2 -> Printf.sprintf "(%s * %s)" x y
          | 3 -> Printf.sprintf "(%s & %s)" x y
          | 4 -> Printf.sprintf "(%s | %s)" x y
          | 5 -> Printf.sprintf "(%s ^ %s)" x y
          | 6 -> Printf.sprintf "(%s << 1)" x
          | _ -> Printf.sprintf "(%s >> 2)" x
      in
      let e1 = expr depth and e2 = expr depth and cond = expr (min 2 depth) in
      return
        (Printf.sprintf
           {|
int out = 0;
int main(void) {
  int a = 7;
  int b = -13;
  int c = 100;
  int i;
  for (i = 0; i < 5; i++) {
    a = %s;
    if ((%s) > 0) b = b + a; else b = b - 1;
    c = c ^ (%s);
  }
  print_int(a + b * 3 + c);
  return 0;
}
|}
           e1 cond e2))
  in
  QCheck.make ~print:(fun s -> s) g

let prop_opt_levels_agree =
  QCheck.Test.make ~count:25 ~name:"O0 = O1 = O2 on random programs"
    arbitrary_program (fun src ->
      let out lvl =
        let options =
          { Compiler.Driver.default_options with Compiler.Driver.opt_level = lvl }
        in
        (Core.Toolchain.exec ~options ~config src).Core.Toolchain.output
      in
      let o0 = out 0 in
      o0 = out 1 && o0 = out 2)

(* clustering factors never change results *)
let prop_clustering_invariant =
  QCheck.Test.make ~count:10 ~name:"clustering preserves results"
    QCheck.(pair (int_range 1 30) (int_range 1 8))
    (fun (n, factor) ->
      let a = Core.Workloads.random_array ~seed:n ~n ~bound:10 in
      let memmap = Isa.Memmap.of_ints [ ("A", a) ] in
      let options =
        { Compiler.Driver.default_options with Compiler.Driver.cluster = factor }
      in
      let r =
        Core.Toolchain.exec ~options ~memmap ~config (Core.Kernels.reduce_psm ~n)
      in
      r.Core.Toolchain.output = string_of_int (Core.Reference.sum a))

(* ------------------------------------------------------------------ *)
(* Observer passivity: every subset of the passive observers leaves the
   run bit-identical to the unobserved one, gated or not. *)

(* together these reach every hook: the publication kernel's TCUs wait
   on ps, psm, fences, memory and busy dividers; the master waits on DRAM
   misses (the clocks sleep) and on multiplies *)
let kernels =
  [ ("publication", Core.Kernels.publication ~n:32);
    ("ser_mem", Core.Kernels.ser_mem ~iters:150 ~n:512);
    ("ser_comp", Core.Kernels.ser_comp ~iters:100) ]

let observers =
  let probe make m = ignore (Xmtsim.Machine.attach m (make m) : unit -> unit) in
  let stream () = Obs.Stream.create (Obs.Stream.null_sink ()) in
  [ ("profile", probe (fun m -> Xmtsim.Profile.(probe (create m))));
    ("racecheck", probe (fun m -> Xmtsim.Racedetect.(probe m (create ()))));
    ("stream", probe (fun m -> Xmtsim.Heartbeat.probe ~heartbeat_cycles:20 m (stream ())));
    ("spans", probe (fun m -> Xmtsim.Trace.(span_probe (spans m (Obs.Tracer.create ())))));
    ("trace", fun m -> Xmtsim.Trace.attach m ignore);
    ("packages", fun m -> Xmtsim.Trace.attach_packages m ignore);
    ("hot", probe (fun _ -> Xmtsim.Plugin.(probe (hot_locations ~top:5 ())))) ]

let observed_run compiled ~gating attach =
  let m = Xmtsim.Machine.create ~config compiled.Core.Toolchain.image in
  Xmtsim.Machine.set_gating m gating;
  attach m;
  let r = Xmtsim.Machine.run m in
  (r, Xmtsim.Machine.stats m, Xmtsim.Machine.events_processed m)

let check_same what (r0, s0, e0) (r, s, e) =
  Tu.check_string (what ^ ": output") r0.Xmtsim.Machine.output r.Xmtsim.Machine.output;
  Tu.check_int (what ^ ": cycles") r0.Xmtsim.Machine.cycles r.Xmtsim.Machine.cycles;
  Tu.check_bool (what ^ ": halted") true r.Xmtsim.Machine.halted;
  Tu.check_bool (what ^ ": stats") true (s0 = s);
  Tu.check_int (what ^ ": host events") e0 e

let observers_are_passive () =
  let n = List.length observers in
  List.iter
    (fun (kname, src) ->
      let compiled = Core.Toolchain.compile src in
      List.iter
        (fun gating ->
          let plain = observed_run compiled ~gating ignore in
          for mask = 1 to (1 lsl n) - 1 do
            let chosen = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) observers in
            let what =
              Printf.sprintf "%s, gating %b, {%s}" kname gating
                (String.concat "," (List.map fst chosen))
            in
            check_same what plain
              (observed_run compiled ~gating (fun m ->
                   List.iter (fun (_, attach) -> attach m) chosen))
          done)
        [ true; false ])
    kernels

(* a trace that reaches its limit detaches itself mid-run, next to
   observers that stay attached *)
let detach_mid_run () =
  let compiled = Core.Toolchain.compile (List.assoc "publication" kernels) in
  let instrs = ref 0 and packages = ref 0 in
  check_same "limited traces among others"
    (observed_run compiled ~gating:true ignore)
    (observed_run compiled ~gating:true (fun m ->
         List.iter (fun (_, attach) -> attach m) observers;
         Xmtsim.Trace.attach ~filter:{ Xmtsim.Trace.all with Xmtsim.Trace.limit = 5 } m
           (fun _ -> incr instrs);
         Xmtsim.Trace.attach_packages ~limit:7 m (fun _ -> incr packages)));
  Tu.check_int "instruction trace stopped at its limit" 5 !instrs;
  Tu.check_int "package trace stopped at its limit" 7 !packages

let () =
  Alcotest.run "props"
    [
      ( "programs",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compaction;
            prop_reduce_psm;
            prop_serial_arith;
            prop_bitwise;
            prop_bfs;
            prop_clustering_invariant;
            prop_opt_levels_agree;
            prop_pretty_roundtrip;
          ] );
      ( "isa",
        List.map QCheck_alcotest.to_alcotest
          [ prop_asm_roundtrip; prop_wrap32; prop_wrap32_idempotent ] );
      ( "observers",
        [
          Tu.tc "every subset is passive" observers_are_passive;
          Tu.tc "detach mid-run (trace limit)" detach_mid_run;
        ] );
    ]
