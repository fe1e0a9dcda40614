(* Runs one workload and prints its result as the last line of stdout:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the five end-to-end ones; with --trace 1 they are every
   per-layer metric of the catalog below (0 for a layer the workload
   does not run). perfbench/run.py builds this and calls it. *)

open Perfbench

let per_layer =
  [ ("taskgen.generate_us", "us");
    ("hydra.scheme.hydra_c_us", "us");
    ("hydra.scheme.global_tmax_us", "us");
    ("hydra.scheme.partitioned_us", "us");
    ("hydra.analysis.fixpoint_iterations", "count/op");
    ("hydra.analysis.cache_hit_ratio", "ratio");
    ("hydra.period_selection.probes", "count/op");
    ("rtsched.rta_global.iterations", "count/op");
    ("hydra.period_selection.select_ms", "ms");
    ("sim.scenario.build_us", "us");
    ("sim.engine.run_us", "us");
    ("sim.engine.decision_events", "count/op");
    ("sim.engine.ns_per_event", "ns");
    ("security.store_build_us", "us");
    ("security.scan_us", "us");
    ("security.scan_ns_per_region", "ns");
    ("server.daemon.start_ms", "ms");
    ("server.tenant.init_ms", "ms");
    ("server.protocol.encode_us", "us");
    ("server.protocol.decode_us", "us");
    ("server.tenant.edit_us", "us");
    ("server.tenant.materialize_us", "us");
    ("server.tenant.warm_select_ratio", "ratio");
    ("server.engine.exec_batch_us", "us");
    ("obs.flight_us", "us");
    ("server.daemon.roundtrip_us", "us");
    ("server.daemon.unexplained_us", "us");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count/run") ]

let complete measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun m -> m.Meter.m_name = name) measured with
      | Some m -> m
      | None -> Meter.metric name unit 0.)
    per_layer

let usage () =
  prerr_endline
    "usage: main.exe --workload design_sweep|soundness_sim|rover_detection|\
     admission_socket --seed N --seconds S --trace 0|1 [--daemon-bin PATH] \
     [--tmp DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let daemon_bin = ref ".bench_build/dune/default/bin/hydra_experiments.exe" in
  let tmp = ref ".bench_build/tmp" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--daemon-bin", Arg.Set_string daemon_bin, "PATH");
      ("--tmp", Arg.Set_string tmp, "DIR") ]
    (fun _ -> usage ())
    "main.exe";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  Daemon_client.install_cleanup ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let o =
    match !workload with
    | "design_sweep" -> W_sweep.run ~seed ~seconds ~trace
    | "soundness_sim" -> W_sim.run ~seed ~seconds ~trace
    | "rover_detection" -> W_rover.run ~seed ~seconds ~trace
    | "admission_socket" ->
        W_admission.run ~bin:!daemon_bin ~tmp:!tmp ~seed ~seconds ~trace
    | _ -> usage ()
  in
  Printf.eprintf "perfbench: %s timed %d ops in %.3f s\n%!" !workload o.ops
    (Meter.s_of_ns o.wall_ns);
  let metrics = if trace then complete o.metrics else o.metrics in
  print_endline
    (Meter.json_of_result ~correct:o.correct ~attempted:o.tally.attempted
       ~failed:o.tally.failed metrics)
