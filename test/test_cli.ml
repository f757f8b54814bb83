(** End-to-end tests of the installed CLI surfaces: flag validation and
    the [-] (stdout) convention of the JSON sinks.  These spawn the real
    executables, so they cover the argument wiring the library-level
    tests cannot. *)

module J = Obs.Json

(* resolve the binaries relative to this test executable so the tests
   work both under `dune runtest` (cwd = _build/default/test) and
   `dune exec` (cwd = project root) *)
let bin name =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" name))

let xmtsim = bin "xmtsim_cli.exe"
let xmtcc = bin "xmtcc.exe"

(* a program with no program output, so stdout can carry pure JSON *)
let quiet_src = "int A[8]; int main(void) { spawn(0, 7) { A[$] = $; } return 0; }"

let with_src ?(src = quiet_src) f =
  let path = Filename.temp_file "xmtcli" ".c" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(** Run [argv], returning (exit code, stdout, stderr). *)
let run_cmd args =
  let out = Filename.temp_file "xmtcli" ".out"
  and err = Filename.temp_file "xmtcli" ".err" in
  let cmd =
    Printf.sprintf "%s > %s 2> %s"
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let read p =
    let ic = open_in p in
    Fun.protect
      ~finally:(fun () -> close_in ic; Sys.remove p)
      (fun () -> In_channel.input_all ic)
  in
  (code, read out, read err)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let functional_trace_json_rejected () =
  with_src (fun src ->
      let code, _, err =
        run_cmd [ xmtsim; src; "--functional"; "--export"; "trace=t.json" ]
      in
      Tu.check_int "nonzero exit" 2 code;
      Tu.check_bool "explains the fix" true
        (let has needle hay =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         has "cycle-accurate" err && has "--functional" err);
      Tu.check_bool "no file written" false (Sys.file_exists "t.json");
      (* same contract for the other cycle-level sinks *)
      let code, _, _ =
        run_cmd [ xmtsim; src; "--functional"; "--export"; "timeseries=t.json" ]
      in
      Tu.check_int "timeseries rejected" 2 code;
      let code, _, _ = run_cmd [ xmtsim; src; "--functional"; "--governor" ] in
      Tu.check_int "governor rejected" 2 code)

let stats_json_to_stdout () =
  with_src (fun src ->
      let code, out, _ =
        run_cmd [ xmtsim; src; "--export"; "stats=-"; "--governor" ]
      in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "schema v2" true
        (J.member "schema" j = Some (J.Str "xmt.metrics.v2"));
      Tu.check_bool "has metrics" true
        (match J.member "metrics" j with Some (J.List (_ :: _)) -> true | _ -> false);
      Tu.check_bool "governor section rides along" true
        (match J.member "governor" j with
        | Some (J.Obj fields) -> List.mem_assoc "decisions" fields
        | _ -> false))

let trace_and_timeseries_to_stdout () =
  with_src (fun src ->
      let code, out, _ = run_cmd [ xmtsim; src; "--export"; "trace=-" ] in
      Tu.check_int "trace exit 0" 0 code;
      Tu.check_bool "trace is a json array" true
        (match J.of_string out with J.List (_ :: _) -> true | _ -> false);
      let code, out, _ = run_cmd [ xmtsim; src; "--export"; "timeseries=-" ] in
      Tu.check_int "timeseries exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "timeseries schema" true
        (J.member "schema" j = Some (J.Str "xmt.timeseries.v1")))

let timings_json_to_stdout () =
  with_src (fun src ->
      let code, out, _ = run_cmd [ xmtcc; src; "--timings-json"; "-" ] in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "timings schema" true
        (J.member "schema" j = Some (J.Str "xmt.timings.v1")))

let functional_stats_json_still_works () =
  (* the stats export stays available in functional mode (envelope with
     the functional counters), including to stdout *)
  with_src (fun src ->
      let code, out, _ =
        run_cmd [ xmtsim; src; "--functional"; "--export"; "stats=-" ]
      in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "schema v2" true
        (J.member "schema" j = Some (J.Str "xmt.metrics.v2")))

let export_flag_to_stdout () =
  with_src (fun src ->
      let code, out, err = run_cmd [ xmtsim; src; "--export"; "stats=-" ] in
      Tu.check_int "exit 0" 0 code;
      Tu.check_bool "no deprecation warning" false (contains "deprecated" err);
      let j = J.of_string out in
      Tu.check_bool "schema v2" true
        (J.member "schema" j = Some (J.Str "xmt.metrics.v2")))

let removed_alias_errors () =
  (* the PR-4-deprecated one-flag-per-sink aliases are gone: each fails
     fast (cmdliner's CLI-error code) naming the --export replacement *)
  with_src (fun src ->
      List.iter
        (fun (args, kind) ->
          let code, _, err = run_cmd ((xmtsim :: src :: args)) in
          Tu.check_int (String.concat " " args ^ " exits 124") 124 code;
          Tu.check_bool "names the replacement" true
            (contains ("--export " ^ kind) err))
        [
          ([ "--stats-json"; "s.json" ], "stats");
          ([ "--trace-json=t.json" ], "trace");
          ([ "--timeseries-json"; "-" ], "timeseries");
        ])


let with_campaign_file f =
  let path = Filename.temp_file "xmtcli" ".json" in
  let spec =
    J.Obj
      [
        ("schema", J.Str "xmt.campaign.v1");
        ("defaults", J.Obj [ ("preset", J.Str "tiny") ]);
        ( "jobs",
          J.List
            (List.map
               (fun (name, seed) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("inline", J.Str quiet_src);
                     ("seed", J.Int seed);
                   ])
               [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ]) );
      ]
  in
  J.write_file path spec;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let campaign_runs_and_is_deterministic () =
  with_campaign_file (fun spec ->
      let run jobs =
        run_cmd
          [ xmtsim; "--campaign"; spec; "--jobs"; jobs;
            "--export"; "campaign-det=-" ]
      in
      let code1, out1, _ = run "1" in
      let code2, out2, _ = run "2" in
      Tu.check_int "serial exit 0" 0 code1;
      Tu.check_int "parallel exit 0" 0 code2;
      Tu.check_string "byte-identical reports" out1 out2;
      let j = J.of_string out1 in
      Tu.check_bool "campaign schema" true
        (J.member "schema" j = Some (J.Str "xmt.campaign.v1"));
      Tu.check_bool "four jobs" true (J.member "jobs" j = Some (J.Int 4));
      Tu.check_bool "four results" true
        (match J.member "results" j with
        | Some (J.List l) -> List.length l = 4
        | _ -> false))

let campaign_failure_sets_exit_code () =
  let path = Filename.temp_file "xmtcli" ".json" in
  J.write_file path
    (J.Obj
       [
         ("schema", J.Str "xmt.campaign.v1");
         ( "jobs",
           J.List
             [
               J.Obj
                 [ ("name", J.Str "ok"); ("inline", J.Str quiet_src);
                   ("preset", J.Str "tiny") ];
               J.Obj
                 [ ("name", J.Str "broken"); ("inline", J.Str "syntax error {");
                   ("preset", J.Str "tiny") ];
             ] );
       ]);
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let code, _, err =
        run_cmd [ xmtsim; "--campaign"; path; "--export"; "campaign=-" ]
      in
      Tu.check_int "failure propagates to exit code" 1 code;
      Tu.check_bool "summary names the failure" true (contains "broken" err))

let campaign_exec_block () =
  (* the spec file's exec block supplies jobs/retries when the flags are
     absent; an invalid one is rejected like any other spec error *)
  with_campaign_file (fun spec ->
      let j = J.of_string (In_channel.with_open_text spec In_channel.input_all) in
      let with_exec exec =
        match j with
        | J.Obj kvs -> J.Obj (kvs @ [ ("exec", exec) ])
        | _ -> assert false
      in
      let path = Filename.temp_file "xmtcli" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          J.write_file path
            (with_exec (J.Obj [ ("jobs", J.Int 2); ("retries", J.Int 1) ]));
          let code, out, _ =
            run_cmd
              [ xmtsim; "--campaign"; path; "--export"; "campaign-det=-" ]
          in
          Tu.check_int "exec-driven run exits 0" 0 code;
          Tu.check_bool "campaign schema" true
            (J.member "schema" (J.of_string out)
            = Some (J.Str "xmt.campaign.v1"));
          J.write_file path (with_exec (J.Obj [ ("jobs", J.Int 0) ]));
          let code, _, err =
            run_cmd [ xmtsim; "--campaign"; path; "--export"; "campaign=-" ]
          in
          Tu.check_int "bad exec rejected" 1 code;
          Tu.check_bool "names the constraint" true (contains "jobs" err)))

(* ---- predict mode and the schema-registry-backed kind listing ---- *)

let unknown_export_kind_lists_registry () =
  with_src (fun src ->
      let code, _, err =
        run_cmd [ xmtsim; src; "--export"; "bogus=x.json" ]
      in
      Tu.check_int "cmdliner CLI-error code" 124 code;
      Tu.check_bool "names the bad kind" true (contains "bogus" err);
      (* the suggestion list is derived from the schema registry, so
         every registered kind must appear — the listing cannot drift *)
      List.iter
        (fun kind ->
          Tu.check_bool (kind ^ " listed") true (contains kind err))
        Obs.Schema.export_kinds;
      Tu.check_bool "no file written" false (Sys.file_exists "x.json"))

let predict_mode_exports () =
  with_src (fun src ->
      let code, out, _ =
        run_cmd
          [ xmtsim; src; "--mode"; "predict"; "--export"; "predict=-" ]
      in
      Tu.check_int "exit 0" 0 code;
      let j = J.of_string out in
      Tu.check_bool "xmt.predict.v1" true
        (J.member "schema" j = Some (J.Str "xmt.predict.v1"));
      Tu.check_bool "has predicted_cycles" true
        (match J.member "predicted_cycles" j with
        | Some (J.Int n) -> n > 0
        | _ -> false))

let predict_exports_need_predict_mode () =
  with_src (fun src ->
      List.iter
        (fun kind ->
          let code, _, err =
            run_cmd [ xmtsim; src; "--export"; kind ^ "=-" ]
          in
          Tu.check_int (kind ^ " rejected") 1 code;
          Tu.check_bool "names --mode predict" true
            (contains "--mode predict" err))
        [ "predict"; "reuseprofile" ];
      (* the flag's converter checks the file exists, so hand it one *)
      let cal = Filename.temp_file "xmtcli" ".json" in
      let code, _, err =
        Fun.protect
          ~finally:(fun () -> Sys.remove cal)
          (fun () -> run_cmd [ xmtsim; src; "--calibration"; cal ])
      in
      Tu.check_int "--calibration rejected" 1 code;
      Tu.check_bool "names --mode predict" true
        (contains "--mode predict" err))

let attach_needs_connect () =
  let code, _, err = run_cmd [ xmtsim; "--attach"; "c1" ] in
  Tu.check_int "exit 1" 1 code;
  Tu.check_bool "names --connect" true (contains "--connect" err)

let connect_refused_exits_3 () =
  with_campaign_file (fun spec ->
      let code, _, err =
        run_cmd
          [ xmtsim; "--connect"; "/nonexistent/xmtserved.sock";
            "--campaign"; spec ]
      in
      Tu.check_int "exit 3" 3 code;
      Tu.check_bool "mentions xmtserved" true (contains "xmtserved" err))

(* an out-of-range store inside a spawn, at source line 4 *)
let spawned_fault =
  "int A[16];\nint main(void) {\n  spawn(0, 3) {\n    A[$ * 100000000] = 1;\n  }\n  return 0;\n}\n"

(* an out-of-range store, serial and inside a spawn, in both modes: a
   diagnostic naming the TCU, pc and source line, exit 4, no crash *)
let faults_are_diagnostics () =
  let serial = "int A[16];\nint main(void) {\n  A[100000000] = 1;\n  return 0;\n}\n"
  and spawned = spawned_fault in
  List.iter
    (fun (src, line, mode, who) ->
      with_src ~src (fun path ->
          let code, _, err = run_cmd ([ xmtsim; path ] @ mode) in
          Tu.check_int (who ^ ": exit 4") 4 code;
          List.iter
            (fun s -> Tu.check_bool (who ^ ": mentions " ^ s) true (contains s err))
            [ "xmtsim: simulation fault: " ^ who; ", pc "; Printf.sprintf "%s:%d)" path line ]))
    [ (serial, 3, [], "MTCU"); (serial, 3, [ "--functional" ], "MTCU");
      (spawned, 4, [], "TCU"); (spawned, 4, [ "--functional" ], "thread") ]

(* ---- assembly input: the quickstart's xmtcc -> xmtsim route ---- *)

let compact_src =
  "int A[16] = {5, 0, 3, 0, 0, 7, 1, 0, 2, 0, 0, 4, 9, 0, 6, 0};\n\
   int B[16];\n\
   int base = 0;\n\
   int main(void) {\n\
  \  spawn(0, 15) {\n\
  \    int inc = 1;\n\
  \    if (A[$] != 0) { ps(inc, base); B[inc] = A[$]; }\n\
  \  }\n\
  \  print_int(base);\n\
  \  return 0;\n\
   }\n"

(* compile [src] with xmtcc [flags] to a temporary .s; [f c s] gets both
   paths *)
let with_asm ?(flags = []) src f =
  with_src ~src (fun c ->
      let s = Filename.remove_extension c ^ ".s" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists s then Sys.remove s)
        (fun () ->
          let code, _, err = run_cmd ([ xmtcc; c; "-o"; s ] @ flags) in
          Tu.check_int ("xmtcc exits 0 " ^ err) 0 code;
          f c s))

let assembly_runs_like_source () =
  with_asm compact_src (fun c s ->
      List.iter
        (fun mode ->
          let ((code, out, _) as from_c) = run_cmd ([ xmtsim; c; "--stats" ] @ mode) in
          Tu.check_int "exit 0" 0 code;
          Tu.check_bool "prints the count" true (contains "8\n" out);
          Tu.check_bool
            ("same output from .s " ^ String.concat " " mode)
            true
            (run_cmd ([ xmtsim; s; "--stats" ] @ mode) = from_c))
        [ []; [ "--functional" ] ])

let assembly_fault_names_line_and_function () =
  with_asm ~flags:[ "-g" ] spawned_fault (fun _ s ->
      List.iter
        (fun mode ->
          let code, _, err = run_cmd ([ xmtsim; s ] @ mode) in
          Tu.check_int "exit 4" 4 code;
          Tu.check_bool ("debug-info location: " ^ err) true
            (contains ", pc " err && contains "(line 4, in __outl_sp_" err))
        [ []; [ "--functional" ] ])

let assembly_racecheck_needs_cycle_mode () =
  with_asm compact_src (fun _ s ->
      let code, _, err = run_cmd [ xmtsim; s; "--racecheck"; "--functional" ] in
      Tu.check_int "exit 2" 2 code;
      Tu.check_bool "explains the static layer" true
        (contains
           "xmtsim: --racecheck on assembly input needs the cycle-accurate \
            mode (the static layer analyzes XMTC source)"
           err))

(* ---- one path: the CLI's reports are the library runners' ---- *)

(* JSON compared after one print/parse round trip on both sides *)
let canon j = J.to_string (J.of_string (J.to_string j))

let predict_export_is_run_predict () =
  with_src (fun src ->
      let code, out, _ =
        run_cmd [ xmtsim; src; "--mode"; "predict"; "--export"; "predict=-" ]
      in
      Tu.check_int "exit 0" 0 code;
      let run = Core.Toolchain.(run_predict (compile quiet_src)) in
      Tu.check_string "same xmt.predict.v1 report"
        (canon (Option.get run.Core.Toolchain.predict))
        (canon (J.of_string out)))

let races_export_is_run_cycle () =
  let example =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name
         (Filename.concat "examples" "racy_overlap.xmtc"))
  in
  let run =
    Core.Toolchain.(
      run_cycle ~racecheck:true
        (compile (In_channel.with_open_bin example In_channel.input_all)))
  in
  let code, out, err =
    run_cmd [ xmtsim; example; "--racecheck"; "--export"; "races=-" ]
  in
  Tu.check_int "exit 0" 0 code;
  Tu.check_bool "reports the race" true (contains "unmediated" err);
  (* stdout is the program's output line, then the report *)
  let printed = run.Core.Toolchain.output ^ "\n" in
  let n = String.length printed in
  Tu.check_string "program output first" printed (String.sub out 0 n);
  Tu.check_string "same xmt.races.v1 report"
    (canon (Option.get run.Core.Toolchain.races))
    (canon (J.of_string (String.sub out n (String.length out - n))))

let () =
  Alcotest.run "cli"
    [
      ( "json sinks",
        [
          Tu.tc "functional rejects cycle-level sinks" functional_trace_json_rejected;
          Tu.tc "stats export to stdout (+governor)" stats_json_to_stdout;
          Tu.tc "trace/timeseries to stdout" trace_and_timeseries_to_stdout;
          Tu.tc "timings-json to stdout" timings_json_to_stdout;
          Tu.tc "functional stats export works" functional_stats_json_still_works;
        ] );
      ("faults", [ Tu.tc "simulation faults are diagnostics" faults_are_diagnostics ]);
      ( "assembly",
        [
          Tu.tc ".s runs like its .c" assembly_runs_like_source;
          Tu.tc "-g fault names line and function" assembly_fault_names_line_and_function;
          Tu.tc "--racecheck --functional rejects .s" assembly_racecheck_needs_cycle_mode;
        ] );
      ( "one path",
        [
          Tu.tc "predict export is run_predict's" predict_export_is_run_predict;
          Tu.tc "races export is run_cycle's" races_export_is_run_cycle;
        ] );
      ( "export",
        [
          Tu.tc "--export stats=- to stdout" export_flag_to_stdout;
          Tu.tc "removed aliases error with replacement" removed_alias_errors;
          Tu.tc "unknown kind lists the registry" unknown_export_kind_lists_registry;
        ] );
      ( "predict",
        [
          Tu.tc "--mode predict exports xmt.predict.v1" predict_mode_exports;
          Tu.tc "predict sinks need --mode predict" predict_exports_need_predict_mode;
        ] );
      ( "campaign",
        [
          Tu.tc "runs + parallel determinism" campaign_runs_and_is_deterministic;
          Tu.tc "spec exec block supplies the knobs" campaign_exec_block;
          Tu.tc "failure sets exit code" campaign_failure_sets_exit_code;
        ] );
      ( "serve",
        [
          Tu.tc "--attach needs --connect" attach_needs_connect;
          Tu.tc "connect failure exits 3" connect_refused_exits_3;
        ] );
    ]
