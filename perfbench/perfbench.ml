(** The repository benchmark: a single-process, closed-loop batch driver
    with one client.  See README.md for the workloads, the metrics and
    how to read a traced run.

    {v perfbench --workload NAME --seed N --seconds S --trace 0|1 v}

    The last line of standard output is one JSON object:
    [{"correct", "attempted", "failed", "metrics"}], with the end-to-end
    metrics when [--trace 0] and the per-layer metrics when [--trace 1]. *)

module A = Layers
module P = Programs
module T = Core.Toolchain

let now = Obs.Clock.now
let pf = Printf.printf

(* -------- statistics -------- *)

(* linear interpolation between closest ranks *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median = quantile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* -------- operations, failures and determinism -------- *)

type state = {
  spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** failed operations that returned a wrong result *)
  mutable next_op : int;
  seen : (string, int) Hashtbl.t;  (** failure text -> occurrences *)
  first : (string, int list) Hashtbl.t;  (** op key -> first pass's counts *)
}

let new_op st =
  st.next_op <- st.next_op + 1;
  st.next_op

let record_failure st line =
  Hashtbl.replace st.seen line (1 + Option.value (Hashtbl.find_opt st.seen line) ~default:0)

(** Run one operation: count it, capture an exception as a failure, and
    count a result that [check] rejects as a failed, wrong result. *)
let operation st name f check =
  st.attempted <- st.attempted + 1;
  match f () with
  | exception e ->
    st.failed <- st.failed + 1;
    let text = match e with Failure msg -> msg | e -> Printexc.to_string e in
    record_failure st (Printf.sprintf "%s: %s" name text);
    None
  | r ->
    (match check r with
    | None -> ()
    | Some msg ->
      st.failed <- st.failed + 1;
      st.wrong <- st.wrong + 1;
      record_failure st (Printf.sprintf "%s: wrong result: %s" name msg));
    Some r

(* the exact counts of an operation must repeat on every pass *)
let repeats st key fp =
  match Hashtbl.find_opt st.first key with
  | None ->
    Hashtbl.replace st.first key fp;
    None
  | Some fp0 when fp0 = fp -> None
  | Some _ -> Some "cycles/instructions/stats differ from the first pass"

let expect_output ~want (o : A.outcome) =
  if o.A.output = want then None
  else Some (Printf.sprintf "printed %S, reference %S" o.A.output want)

let ( >>? ) a b = match a with Some _ -> a | None -> b ()

(* -------- workloads -------- *)

(** A workload's measured pass fills these per-pass keys, from which the
    end-to-end metrics are computed:
    [e2e.cycle_instrs], [e2e.cycle_cycles], [e2e.cycle_s],
    [e2e.cycle_words], [e2e.func_instrs], [e2e.func_s], [e2e.jobs],
    [e2e.jobs_s]. *)
type workload = {
  setup : unit -> float;
      (** (re)build the inputs and return the seconds that took; the
          last call's inputs are used *)
  pass : A.acc -> unit;
  probe : A.acc -> unit;  (** per-layer decomposition, traced runs only *)
  compile_ms : float list ref;
  job_ms : float list ref;
  report : A.acc -> unit;  (** the paper's derived checks, printed *)
  checks : A.acc -> (string * bool) list;  (** mechanism / bypass design *)
}

let default_options = Compiler.Driver.default_options

(* ---- Table I groups on chip1024 ---- *)

(* the paper's four groups; bfs is not one of them *)
let table1_groups = [ "par_mem"; "par_comp"; "ser_mem"; "ser_comp" ]

(* Table I needs both workloads' groups; each run stores its groups'
   rates under the output directory and reads the other's from there. *)
(** Where traced runs write their spans and Table I runs their rates. *)
let out_dir = Filename.concat "perfbench" "out"

let shape_report rates =
  let file = Filename.concat out_dir "table1-rates.json" in
  let stored =
    match Obs.Json.of_string (In_channel.with_open_text file In_channel.input_all) with
    | Obs.Json.Obj kv -> kv
    | _ | (exception _) -> []
  in
  let merged =
    List.fold_left
      (fun acc (g, ips, cps) ->
        (g, Obs.Json.Obj [ ("instr_per_s", Obs.Json.Float ips); ("cycles_per_s", Obs.Json.Float cps) ])
        :: List.remove_assoc g acc)
      stored rates
  in
  (try Obs.Json.write_file file (Obs.Json.Obj merged) with Sys_error _ -> ());
  let get g field =
    match List.assoc_opt g merged with
    | Some v -> Option.bind (Obs.Json.member field v) Obs.Json.to_float
    | None -> None
  in
  let from_here g = List.exists (fun (g', _, _) -> g' = g) rates in
  pf "Table I shape checks (paper: compute >> memory instr/s, serial >> parallel cycles/s):\n";
  List.iter
    (fun (big, small, field, what) ->
      match (get big field, get small field) with
      | Some b, Some s ->
        pf "  %-9s %-13s >> %-9s: %7.1fx  %s%s\n" big what small (ratio b s)
          (if b > s then "[ok]" else "[MISMATCH]")
          (if from_here big && from_here small then "" else "  (partly from the last run of the other table1 workload)")
      | _ ->
        pf "  %-9s %-13s >> %-9s: n/a until both table1 workloads have run\n" big what small)
    [
      ("par_comp", "par_mem", "instr_per_s", "instr/s");
      ("ser_comp", "ser_mem", "instr_per_s", "instr/s");
      ("ser_mem", "par_mem", "cycles_per_s", "cycles/s");
      ("ser_comp", "par_comp", "cycles_per_s", "cycles/s");
    ]

let table1 st ~programs ~parallel =
  let config = Xmtsim.Config.chip1024 in
  let compile_ms = ref [] and job_ms = ref [] in
  let compiled = ref [] in
  let setup () =
    snd
      (Obs.Clock.wall (fun () ->
           let progs = programs () in
           let art = T.Artifacts.create () in
           let scratch = Hashtbl.create 16 in
           compiled :=
             List.map
               (fun (p : P.t) ->
                 let c, s =
                   A.compile scratch st.spans ~op:0 art ~options:default_options
                     ~memmap:p.P.memmap p.P.source
                 in
                 compile_ms := (s *. 1e3) :: !compile_ms;
                 (p, c))
               progs))
  in
  let pass acc =
    List.iter
      (fun ((p : P.t), c) ->
        let op = new_op st in
        let name = p.P.name in
        let cyc =
          operation st (name ^ "/cycle")
            (fun () -> A.cycle acc st.spans ~op ~config c)
            (fun (o, m) ->
              expect_output ~want:p.P.expect o >>? fun () ->
              (match p.P.readback with
              | Some (g, want) when T.read_global m c g (Array.length want) <> want ->
                Some (Printf.sprintf "global %s differs from the host recomputation" g)
              | _ -> None)
              >>? fun () -> repeats st (name ^ "/cycle") o.A.fingerprint)
        in
        let cycle_out =
          match cyc with
          | Some (o, _) ->
            let s = o.A.host_s in
            job_ms := (s *. 1e3) :: !job_ms;
            A.add acc "e2e.cycle_instrs" (float_of_int o.A.instrs);
            A.add acc "e2e.cycle_cycles" (float_of_int o.A.cycles);
            A.add acc "e2e.cycle_s" s;
            A.add acc "e2e.cycle_words" o.A.words;
            A.add acc ("prog." ^ name ^ ".cycle_s") s;
            A.add acc ("prog." ^ name ^ ".instrs") (float_of_int o.A.instrs);
            A.add acc ("prog." ^ name ^ ".cycles") (float_of_int o.A.cycles);
            A.add acc ("prog." ^ name ^ ".events") (float_of_int o.A.events);
            A.add acc "e2e.jobs" 1.0;
            Some o.A.output
          | None -> None
        in
        match
          operation st (name ^ "/functional")
            (fun () -> A.functional acc st.spans ~op c)
            (fun o ->
              expect_output ~want:p.P.expect o >>? fun () ->
              (match cycle_out with
              | Some co when co <> o.A.output -> Some "functional output differs from cycle output"
              | _ -> None)
              >>? fun () -> repeats st (name ^ "/functional") o.A.fingerprint)
        with
        | Some o ->
          job_ms := (o.A.host_s *. 1e3) :: !job_ms;
          A.add acc "e2e.func_instrs" (float_of_int o.A.instrs);
          A.add acc "e2e.func_s" o.A.host_s;
          A.add acc ("prog." ^ name ^ ".func_s") o.A.host_s;
          A.add acc "e2e.jobs" 1.0
        | None -> ())
      !compiled
  in
  let report total =
    let progs = List.map (fun ((p : P.t), _) -> p.P.name) !compiled in
    let get k = A.get total k in
    pf "Table I (chip1024, cycle-accurate, this run):\n  %-9s %14s %12s %12s\n" "program" "instr/s"
      "cycles/s" "sim cycles";
    let rates =
      List.map
        (fun n ->
          let s = get ("prog." ^ n ^ ".cycle_s") in
          let ips = ratio (get ("prog." ^ n ^ ".instrs")) s in
          let cps = ratio (get ("prog." ^ n ^ ".cycles")) s in
          pf "  %-9s %14.0f %12.0f %12.0f\n" n ips cps
            (ratio (get ("prog." ^ n ^ ".cycles")) (get "passes"));
          (n, ips, cps))
        progs
    in
    shape_report (List.filter (fun (n, _, _) -> List.mem n table1_groups) rates);
    pf "Paper III-A: cycle-accurate / functional host time per program:\n";
    List.iter
      (fun n ->
        pf "  %-9s %7.1fx\n" n
          (ratio (get ("prog." ^ n ^ ".cycle_s")) (get ("prog." ^ n ^ ".func_s"))))
      progs
  in
  let checks total =
    let packets = A.get total "icn.packets" in
    let epc = ratio (A.get total "prog.ser_comp.events") (A.get total "prog.ser_comp.cycles") in
    if parallel then [ ("icn.packets > 0 (parallel groups use the ICN)", packets > 0.0) ]
    else
      [
        ("icn.packets = 0 (serial groups bypass the ICN)", packets = 0.0);
        ( Printf.sprintf "ser_comp desim events per cycle ~ 1 (got %.4f)" epc,
          epc > 0.95 && epc < 1.05 );
      ]
  in
  { setup; pass; probe = (fun _ -> ()); compile_ms; job_ms; report; checks }

(* ---- the design-space sweep ---- *)

let modes =
  [
    (T.Functional, Xmtsim.Config.fpga64);
    (T.Predict, Xmtsim.Config.chip1024);
    (T.Cycle, Xmtsim.Config.fpga64);
  ]

let workers = 2

(* Budgets about five times the largest job that halts, so that a
   runaway job fails in bounded time. *)
let max_cycles = 150_000
let max_instructions = 1_000_000

let sweep st ~seed =
  let compile_ms = ref [] and job_ms = ref [] in
  let programs = ref [] and specs = ref [||] and pool = ref None in
  let last_cache = ref (T.Artifacts.create ()) in
  let setup () =
    Option.iter Campaign.Pool.shutdown !pool;
    snd @@ Obs.Clock.wall @@ fun () ->
    let progs = P.sweep ~seed in
    programs := progs;
    specs :=
      Array.of_list
        (List.concat_map
           (fun (p : P.t) ->
             List.concat_map
               (fun (pt, options) ->
                 List.map
                   (fun (mode, config) ->
                     let name =
                       Printf.sprintf "%s/%s/%s" p.P.name pt (T.mode_name mode)
                     in
                     ( p,
                       ( name,
                         T.job ~name ~options ~memmap:p.P.memmap ~config ~mode
                           ~max_cycles ~max_instructions p.P.source ) ))
                   modes)
               P.compiler_points)
           progs);
    pool := Some (Campaign.Pool.create ~workers ())
  in
  let check_job (p : P.t) name (o : A.outcome) peers =
    expect_output ~want:p.P.expect o >>? fun () ->
    (match List.find_opt (fun o' -> o'.A.output <> o.A.output) peers with
    | Some _ -> Some "output differs between modes"
    | None -> None)
    >>? fun () -> repeats st name o.A.fingerprint
  in
  let pass acc =
    let art = T.Artifacts.create () in
    last_cache := art;
    Spans.within st.spans ~layer:"bench" ~name:"compile-phase" (fun () ->
        List.iter
          (fun (p : P.t) ->
            List.iter
              (fun (pt, options) ->
                let op = new_op st in
                ignore
                  (operation st
                     (Printf.sprintf "%s/%s/compile" p.P.name pt)
                     (fun () ->
                       let _, s =
                         A.compile acc st.spans ~op art ~options ~memmap:p.P.memmap p.P.source
                       in
                       compile_ms := (s *. 1e3) :: !compile_ms)
                     (fun () -> None)))
              P.compiler_points)
          !programs);
    let specs = !specs in
    let n = Array.length specs in
    let ops = Array.init n (fun _ -> new_op st) in
    let t_start = Array.make n 0.0 and w_start = Array.make n 0.0 in
    let words = Array.make n 0.0 in
    let parent = ref 0 in
    let span_layer i =
      let _, (_, j) = specs.(i) in
      match j.T.mode with
      | T.Functional -> "functional"
      | T.Predict -> "predict"
      | T.Cycle -> "machine"
    in
    (* runs on the worker domain that runs the job, under the campaign's
       progress lock; minor words are per domain, so they are exact *)
    let on_event = function
      | Campaign.Job_started { index; _ } ->
        w_start.(index) <- Gc.minor_words ();
        t_start.(index) <- now ()
      | Campaign.Job_finished { index; name; _ } | Campaign.Job_failed { index; name; _ } ->
        words.(index) <- Gc.minor_words () -. w_start.(index);
        Spans.add st.spans ~parent:!parent ~layer:(span_layer index) ~name
          ~op:ops.(index) ~t0:t_start.(index) ~t1:(now ())
    in
    let hits0, misses0 = T.Artifacts.stats art in
    let req = Campaign.Request.make (Array.to_list (Array.map snd specs)) in
    let results, campaign_s, _ =
      Spans.within st.spans ~layer:"campaign" ~name:"campaign.run_request" (fun () ->
          parent := Spans.current_id ();
          A.measure (fun () ->
              Campaign.run_request ?pool:!pool ~artifacts:art ~on_event req))
    in
    let hits1, misses1 = T.Artifacts.stats art in
    let report, report_s, _ =
      Spans.within st.spans ~layer:"obs" ~name:"campaign.report" (fun () ->
          A.measure (fun () ->
              Obs.Json.to_string (Campaign.report_to_json ~workers results)))
    in
    A.add acc "campaign.wall_s" campaign_s;
    A.add acc "campaign.artifact_hits" (float_of_int (hits1 - hits0));
    A.add acc "campaign.artifact_misses" (float_of_int (misses1 - misses0));
    A.add acc "obs.report_ms" (report_s *. 1e3);
    A.add acc "obs.report_bytes" (float_of_int (String.length report));
    A.add acc "e2e.jobs" (float_of_int n);
    A.add acc "e2e.jobs_s" (campaign_s +. report_s);
    (* outcomes by (program, point), to compare the three modes *)
    let outcome (r : Campaign.job_result) =
      match r.Campaign.r_outcome with
      | Ok run ->
        Ok
          {
            A.output = run.T.output;
            instrs = run.T.instructions;
            cycles = run.T.cycles;
            events = run.T.events;
            host_s = r.Campaign.r_wall_seconds;
            words = words.(r.Campaign.r_index);
            fingerprint =
              run.T.cycles :: run.T.instructions :: run.T.events
              :: List.map snd (A.component_counts run.T.stats);
          }
      | Error f -> Error f.Campaign.f_exn
    in
    let outcomes = Array.map outcome results in
    Array.iteri
      (fun i (r : Campaign.job_result) ->
        let p, (name, job) = specs.(i) in
        A.add acc "campaign.retries" (float_of_int (r.Campaign.r_attempts - 1));
        A.add acc "campaign.job_s" r.Campaign.r_wall_seconds;
        job_ms := (r.Campaign.r_wall_seconds *. 1e3) :: !job_ms;
        (* the three modes of one (program, point) are adjacent *)
        let base = i - (i mod List.length modes) in
        let peers =
          List.filter_map
            (fun k ->
              match outcomes.(base + k) with
              | Ok o when base + k <> i -> Some o
              | _ -> None)
            (List.init (List.length modes) Fun.id)
        in
        match
          operation st name
            (fun () -> match outcomes.(i) with Ok o -> o | Error e -> failwith e)
            (fun o -> check_job p name o peers)
        with
        | Some o -> (
          match job.T.mode with
          | T.Cycle ->
            A.add acc "e2e.cycle_instrs" (float_of_int o.A.instrs);
            A.add acc "e2e.cycle_cycles" (float_of_int o.A.cycles);
            A.add acc "e2e.cycle_s" o.A.host_s;
            A.add acc "e2e.cycle_words" o.A.words;
            A.add acc ("prog." ^ p.P.name ^ ".cycle_s") o.A.host_s
          | T.Functional ->
            A.add acc "e2e.func_instrs" (float_of_int o.A.instrs);
            A.add acc "e2e.func_s" o.A.host_s;
            A.add acc ("prog." ^ p.P.name ^ ".func_s") o.A.host_s
          | T.Predict -> ())
        | None -> ())
      results
  in
  (* the campaign runs its jobs inside [Toolchain.run_job]; to split
     them by layer, the traced run repeats each job serially through the
     layers' own entry points, against the pass's warm compile cache *)
  let probe acc =
    Spans.within st.spans ~layer:"bench" ~name:"layer-probe" (fun () ->
        Array.iter
          (fun ((p : P.t), (name, job)) ->
            let op = new_op st in
            let c () =
              T.Artifacts.get !last_cache ~options:job.T.options ~memmap:p.P.memmap
                p.P.source
            in
            let config = T.job_config job in
            ignore
              (operation st ("probe:" ^ name)
                 (fun () ->
                   match job.T.mode with
                   | T.Cycle -> fst (A.cycle acc st.spans ~op ~config ~max_cycles (c ()))
                   | T.Functional -> A.functional acc st.spans ~op ~max_instructions (c ())
                   | T.Predict -> A.predict acc st.spans ~op ~config ~max_instructions (c ()))
                 (fun o ->
                   expect_output ~want:p.P.expect o >>? fun () ->
                   repeats st ("probe:" ^ name) o.A.fingerprint)))
          !specs)
  in
  let report total =
    pf "Paper III-A: cycle (fpga64) / functional campaign job time, summed over compiler points:\n";
    List.iter
      (fun (p : P.t) ->
        let n = p.P.name in
        pf "  %-12s %7.1fx\n" n
          (ratio (A.get total ("prog." ^ n ^ ".cycle_s")) (A.get total ("prog." ^ n ^ ".func_s"))))
      !programs;
    shape_report []
  in
  let checks total =
    let compile_ms =
      List.fold_left (fun a p -> a +. A.get total ("compiler." ^ p ^ ".ms")) 0.0 A.compiler_passes
    in
    [
      ("compiler.*.ms > 0 (the sweep compiles)", compile_ms > 0.0);
      ("campaign.wall_s > 0 (the sweep runs a campaign)", A.get total "campaign.wall_s" > 0.0);
      ("campaign.artifact_hits > 0 (jobs reuse the warm cache)", A.get total "campaign.artifact_hits" > 0.0);
    ]
  in
  let shutdown () = Option.iter Campaign.Pool.shutdown !pool in
  ({ setup; pass; probe; compile_ms; job_ms; report; checks }, shutdown)

(* -------- metrics -------- *)

let span_layers = [ "bench"; "compiler"; "machine"; "functional"; "predict"; "campaign"; "obs" ]

(** Per-layer metrics: name, unit and how one pass's sums give it. *)
let per_layer : (string * string * (A.acc -> float)) list =
  let g k acc = A.get acc k in
  let r a b acc = ratio (A.get acc a) (A.get acc b) in
  let count k = (k, "count", g k) in
  List.map (fun p -> ("compiler." ^ p ^ ".ms", "ms", g ("compiler." ^ p ^ ".ms"))) A.compiler_passes
  @ [
      ("compiler.link_ms", "ms", g "compiler.link_ms");
      count "compiler.ir_instrs";
      count "compiler.emitted_instrs";
      count "compiler.relocated_blocks";
      ("machine.create_ms", "ms", g "machine.create_ms");
      ("machine.run_s", "s", g "machine.run_s");
      ("machine.ns_per_instr", "ns", fun a -> 1e9 *. r "machine.run_s" "machine.instrs" a);
      ("machine.ns_per_cycle", "ns", fun a -> 1e9 *. r "machine.run_s" "machine.cycles" a);
      ("machine.alloc_words_per_cycle", "words", r "machine.words" "machine.cycles");
      count "desim.events";
      ("desim.events_per_cycle", "ratio", r "desim.events" "machine.cycles");
      ("desim.ns_per_event", "ns", fun a -> 1e9 *. r "machine.run_s" "desim.events" a);
    ]
  @ List.concat_map
      (fun d -> [ count ("desim.ticks." ^ d); count ("desim.skipped_ticks." ^ d) ])
      A.domains
  @ List.map (fun (k, _) -> count k) (A.component_counts (Xmtsim.Stats.create ()))
  @ [
      ("functional.run_s", "s", g "functional.run_s");
      ("functional.ns_per_instr", "ns", fun a -> 1e9 *. r "functional.run_s" "functional.instrs" a);
      ("functional.alloc_words_per_instr", "words", r "functional.words" "functional.instrs");
      ("predict.harvest_ms", "ms", g "predict.harvest_ms");
      ("predict.model_ms", "ms", g "predict.model_ms");
      ("campaign.wall_s", "s", g "campaign.wall_s");
      ( "campaign.busy_frac",
        "ratio",
        fun a -> ratio (A.get a "campaign.job_s") (float_of_int workers *. A.get a "campaign.wall_s") );
      count "campaign.artifact_hits";
      count "campaign.artifact_misses";
      count "campaign.retries";
      ("obs.report_ms", "ms", g "obs.report_ms");
      ("obs.report_bytes", "bytes", g "obs.report_bytes");
      count "gc.minor_collections";
      count "gc.major_collections";
      ("gc.promoted_words", "words", g "gc.promoted_words");
    ]
  @ List.map (fun l -> (l ^ ".self_s", "s", g (l ^ ".self_s"))) span_layers
  @ [ count "trace.spans" ]

let setup_warmup = 3

let usage =
  "perfbench --workload table1-parallel|table1-serial|sweep --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let traced_run = !trace = 1 and seed = !seed in
  let st =
    {
      spans = Spans.create ();
      attempted = 0;
      failed = 0;
      wrong = 0;
      next_op = 0;
      seen = Hashtbl.create 16;
      first = Hashtbl.create 256;
    }
  in
  let w, shutdown =
    match !workload with
    | "table1-parallel" ->
      (table1 st ~programs:(fun () -> P.table1_parallel ~seed) ~parallel:true, ignore)
    | "table1-serial" ->
      (table1 st ~programs:(fun () -> P.table1_serial ~seed) ~parallel:false, ignore)
    | "sweep" -> sweep st ~seed
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  pf "workload %s  seed %d  %s\n%!" !workload seed (if traced_run then "traced" else "untraced");
  (* latency percentiles are taken per set-up or per pass, then the
     median over them is reported: samples of different operations form
     separate clusters, and a percentile over all of a run's samples can
     fall in the gap between two of them *)
  let compile_pcts = ref [] in
  let take_compiles () =
    if !(w.compile_ms) <> [] then begin
      compile_pcts := (quantile 0.5 !(w.compile_ms), quantile 0.9 !(w.compile_ms)) :: !compile_pcts;
      w.compile_ms := []
    end
  in
  (* set-up runs a few times before the first pass and again before
     every pass, so that its median samples the whole run, not one
     moment of it; every set-up starts from a collected heap *)
  let setup_times = ref [] in
  let setup () =
    Gc.full_major ();
    setup_times := w.setup () :: !setup_times;
    take_compiles ()
  in
  for _ = 1 to setup_warmup do
    setup ()
  done;
  (* closed loop: the next pass starts when the previous one ends; a
     traced run alternates untraced and traced passes *)
  let passes = ref [] and archive = ref [] in
  let t0 = now () in
  let i = ref 0 in
  while !i < (if traced_run then 2 else 1) || now () -. t0 < !seconds do
    setup ();
    let traced = traced_run && !i mod 2 = 1 in
    st.spans.Spans.on <- traced;
    let acc = Hashtbl.create 128 in
    let (), wall =
      Obs.Clock.wall (fun () ->
          Spans.within st.spans ~layer:"bench" ~name:"pass" (fun () -> w.pass acc))
    in
    if A.get acc "e2e.jobs_s" = 0.0 then A.add acc "e2e.jobs_s" wall;
    A.add acc "e2e.job_ms_p50" (quantile 0.5 !(w.job_ms));
    A.add acc "e2e.job_ms_p90" (quantile 0.9 !(w.job_ms));
    w.job_ms := [];
    take_compiles ();
    if traced then begin
      (* self times cover the measured pass only, not the probe *)
      Hashtbl.iter (fun l s -> A.add acc (l ^ ".self_s") s) (Spans.self_times st.spans);
      A.add acc "trace.spans" (float_of_int (Spans.count st.spans));
      w.probe acc;
      archive := st.spans.Spans.spans @ !archive;
      st.spans.Spans.spans <- []
    end;
    st.spans.Spans.on <- false;
    passes := (traced, wall, acc) :: !passes;
    incr i
  done;
  shutdown ();
  let passes = List.rev !passes in
  let total = Hashtbl.create 128 in
  List.iter (fun (_, _, acc) -> Hashtbl.iter (A.add total) acc) passes;
  A.add total "passes" (float_of_int (List.length passes));
  pf "passes %d in %.1f s\n" (List.length passes) (now () -. t0);
  w.report total;
  (* mechanism / bypass: a workload must keep exercising (or bypassing)
     the layers it was chosen for *)
  let compiles =
    List.exists (fun p -> A.get total ("compiler." ^ p ^ ".ms") > 0.0) A.compiler_passes
  in
  let campaign = A.get total "campaign.wall_s" > 0.0 in
  let checks =
    (if !workload = "sweep" then []
     else
       [
         ("compiler.*.ms = 0 (compiles only in set-up)", not compiles);
         ("campaign.* = 0 (no campaign)", not campaign);
       ])
    @ w.checks total
  in
  let design_ok = List.for_all snd checks in
  List.iter
    (fun (what, ok) -> pf "design check %s: %s\n" (if ok then "ok    " else "FAILED") what)
    checks;
  Hashtbl.to_seq st.seen |> List.of_seq |> List.sort compare
  |> List.iter (fun (line, k) -> pf "FAILED x%d %s\n" k line);
  pf "attempted %d  failed %d  fail_rate %.4f  (wrong results %d)\n" st.attempted st.failed
    (ratio (float_of_int st.failed) (float_of_int st.attempted))
    st.wrong;
  let metrics =
    if not traced_run then begin
      let untraced = List.filter (fun (t, _, _) -> not t) passes in
      let med f = median (List.map (fun (_, _, a) -> f a) untraced) in
      let per a b acc = ratio (A.get acc a) (A.get acc b) in
      let heap_words = float_of_int (Gc.quick_stat ()).Gc.top_heap_words in
      [
        ("setup_s", "s", median !setup_times);
        ("heap_peak_mb", "MB", heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0);
        ("sim_instr_per_s", "1/s", med (per "e2e.cycle_instrs" "e2e.cycle_s"));
        ("sim_cycles_per_s", "1/s", med (per "e2e.cycle_cycles" "e2e.cycle_s"));
        ("func_instr_per_s", "1/s", med (per "e2e.func_instrs" "e2e.func_s"));
        ("sim_cycles", "count", med (fun a -> A.get a "e2e.cycle_cycles"));
        ("alloc_words_per_instr", "words", med (per "e2e.cycle_words" "e2e.cycle_instrs"));
        ("compile_ms_p50", "ms", median (List.map fst !compile_pcts));
        ("compile_ms_p90", "ms", median (List.map snd !compile_pcts));
        ("jobs_per_s", "1/s", med (per "e2e.jobs" "e2e.jobs_s"));
        ("job_ms_p50", "ms", med (fun a -> A.get a "e2e.job_ms_p50"));
        ("job_ms_p90", "ms", med (fun a -> A.get a "e2e.job_ms_p90"));
      ]
    end
    else begin
      let traced = List.filter (fun (t, _, _) -> t) passes in
      let walls t = median (List.filter_map (fun (t', w, _) -> if t' = t then Some w else None) passes) in
      let file = Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" !workload seed) in
      Obs.Json.write_file file (Spans.to_json { st.spans with Spans.spans = !archive });
      pf "trace: %s (%d spans; Chrome trace-event format)\n" file (List.length !archive);
      List.map
        (fun (n, u, f) -> (n, u, median (List.map (fun (_, _, a) -> f a) traced)))
        per_layer
      @ [ ("trace.overhead_frac", "ratio", ratio (walls true) (walls false) -. 1.0) ]
    end
  in
  List.iter (fun (n, u, v) -> pf "  %-34s %16.6g %s\n" n v u) metrics;
  let correct = st.wrong = 0 && design_ok in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("correct", Obs.Json.Bool correct);
            ("attempted", Obs.Json.Int st.attempted);
            ("failed", Obs.Json.Int st.failed);
            ( "metrics",
              Obs.Json.Obj
                (List.map
                   (fun (n, u, v) ->
                     (n, Obs.Json.Obj [ ("value", Obs.Json.Float v); ("unit", Obs.Json.Str u) ]))
                   metrics) );
          ]));
  if not design_ok then exit 1
