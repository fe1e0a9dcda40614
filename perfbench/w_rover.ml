(* rover_detection: each operation is one attack trial of the Sec. 5.1
   case study — [Experiments.Fig5.run ~trials:1] with its own seed:
   both intrusions, HYDRA-C and HYDRA, the paper's 45 s horizon.

   The traced run also replays each trial from the benchmark's own code
   with the same public calls [Fig5.run] makes, so the time inside the
   scanners' check functions and the store building can be timed
   without instrumenting the library. The replay must reproduce the
   trial's detection latencies. *)

module Rng = Taskgen.Rng
module Fig5 = Experiments.Fig5
module Rover = Security.Rover
module Det = Security.Detection

let horizon = 45_000
let pool_size = 4096
let tail_pct = 95.
let replays = 64
let setup_reps = 5

(* Per-trial seeds. *)
let setup ~seed () =
  let rng = Rng.create seed in
  Array.init pool_size (fun _ -> Rng.int rng 0x3FFF_FFFF)

let trial seed = Fig5.run ~seed ~trials:1 ~horizon ~jobs:1 ()

(* ------------------------------------------------------------------ *)
(* Traced replay of one trial *)

type layer = {
  mutable store_ns : int;
  mutable store_runs : int;
  mutable scan_ns : int;
  mutable regions : int;
  mutable engine_ns : int;
}

let layer () = { store_ns = 0; store_runs = 0; scan_ns = 0; regions = 0; engine_ns = 0 }

let timed_check acc check region =
  let t0 = Meter.now_ns () in
  let v = check region in
  acc.scan_ns <- acc.scan_ns + (Meter.now_ns () - t0);
  v

(* One scheme run with both intrusions; returns the two latencies. *)
let replay_run acc ~ts ~rt_assignment ~policy ~periods ?sec_cores ~attack_tw
    ~attack_km ~target_image ~rogue_name () =
  let built =
    Sim.Scenario.of_taskset ts ~rt_assignment ~policy ~sec_periods:periods
      ?sec_cores ()
  in
  let t0 = Meter.now_ns () in
  let fs = Rover.image_store () in
  let table = Rover.module_table () in
  let fs_checker =
    Security.Integrity_checker.create fs ~n_regions:Rover.image_regions
  in
  let km_checker = Security.Kmod_checker.create table ~n_regions:Rover.kmod_regions in
  acc.store_ns <- acc.store_ns + (Meter.now_ns () - t0);
  acc.store_runs <- acc.store_runs + 1;
  let fs_injector = Security.Intrusion.create () in
  Security.Intrusion.schedule fs_injector ~at:attack_tw ~label:"shellcode-tamper"
    (fun () -> Security.Integrity_checker.tamper_file fs target_image);
  let km_injector = Security.Intrusion.create () in
  Security.Intrusion.schedule km_injector ~at:attack_km ~label:"rootkit-insert"
    (fun () ->
      Security.Kmod_checker.insert_module table
        { Security.Kmod_checker.m_name = rogue_name; m_size = 13337;
          m_addr = 0x7fdead00L; m_signature = "unsigned" });
  let monitor sec_id ~n_regions ~injector ~check =
    Det.create ~sim_id:built.Sim.Scenario.sec_sim_ids.(sec_id)
      ~wcet:ts.Rtsched.Task.sec.(sec_id).sec_wcet
      ~target:(Det.checker_target ~n_regions ~injector ~check:(timed_check acc check))
  in
  let tw =
    monitor Rover.tripwire_sec_id ~n_regions:Rover.image_regions
      ~injector:fs_injector
      ~check:(Security.Integrity_checker.check_region fs_checker)
  in
  let km =
    monitor Rover.kmod_sec_id ~n_regions:Rover.kmod_regions ~injector:km_injector
      ~check:(Security.Kmod_checker.check_region km_checker)
  in
  let hooks =
    { Sim.Engine.no_hooks with
      on_execute = Some (Det.combine_hooks [ Det.on_execute tw; Det.on_execute km ]) }
  in
  let scan0 = acc.scan_ns in
  let t0 = Meter.now_ns () in
  ignore (Sim.Engine.run ~hooks ~n_cores:ts.n_cores ~horizon built.Sim.Scenario.tasks);
  acc.engine_ns <- acc.engine_ns + (Meter.now_ns () - t0) - (acc.scan_ns - scan0);
  acc.regions <- acc.regions + Det.regions_checked tw + Det.regions_checked km;
  let lat m at = Option.map (fun t -> float_of_int (t - at)) (Det.detection_time m) in
  (lat tw attack_tw, lat km attack_km)

(* Replays trial [seed] as [Fig5.run] does (default Tmax deployment:
   HYDRA-C at the bounds, HYDRA best-fit at the bounds) and checks the
   latencies against [report]. *)
let replay acc seed (report : Fig5.report) =
  let ts = Rover.taskset () and rt_assignment = Rover.rt_assignment () in
  let n_sec = Array.length ts.sec in
  let sys = Hydra.Analysis.make_system ts ~assignment:rt_assignment in
  let hy_periods, hy_cores =
    match Hydra.Baseline_hydra.allocate ~minimize:false sys ts.sec with
    | Hydra.Baseline_hydra.Schedulable a ->
        ( Hydra.Baseline_hydra.period_vector a ~n_sec,
          Hydra.Baseline_hydra.core_vector a ~n_sec )
    | Unschedulable -> failwith "rover unschedulable under HYDRA"
  in
  let stream = (Rng.split_n (Rng.create seed) 1).(0) in
  let attack_tw = Rng.int_in stream 1000 15000 in
  let attack_km = Rng.int_in stream 1000 15000 in
  let target_image = Printf.sprintf "img_%04d.raw" (Rng.int stream Rover.image_regions) in
  let rogue_name = Printf.sprintf "rk_hook_%04x" (Rng.int stream 0xFFFF) in
  let go ~policy ~periods ?sec_cores () =
    replay_run acc ~ts ~rt_assignment ~policy ~periods ?sec_cores ~attack_tw
      ~attack_km ~target_image ~rogue_name ()
  in
  let c = go ~policy:Sim.Policy.Semi_partitioned ~periods:report.hydra_c.periods () in
  let h =
    go ~policy:Sim.Policy.Fully_partitioned ~periods:hy_periods ~sec_cores:hy_cores ()
  in
  let same (s : Fig5.scheme_report) (tw, km) =
    let of_q q v = Option.map (fun _ -> v) q in
    tw = of_q s.detect_tripwire_q s.mean_detect_tripwire
    && km = of_q s.detect_kmod_q s.mean_detect_kmod
  in
  if same report.hydra_c c && same report.hydra h then Ok ()
  else Error "traced replay disagrees with Fig5.run"

(* Detection speedup of HYDRA-C over HYDRA across the checked trials,
   as Fig5 defines it: ratio of mean latencies, both intrusion kinds. *)
let report_speedup outputs =
  let sum f = Array.fold_left (fun a (r : Fig5.report) -> a +. f r) 0. outputs in
  let c = sum (fun r -> r.hydra_c.mean_detect_tripwire +. r.hydra_c.mean_detect_kmod)
  and h = sum (fun r -> r.hydra.mean_detect_tripwire +. r.hydra.mean_detect_kmod) in
  Printf.eprintf "rover_detection: detection speedup %+.2f%% over %d trials\n%!"
    ((h -. c) /. h *. 100.) (Array.length outputs)

let run ~seed ~seconds ~trace =
  (* Set-up is the seed draw plus the two warm-up trials: the draw alone
     takes about 0.1 ms, and the first calls into [Fig5.run] in a
     process are where any one-time cost of a trial lands. As on the
     other workloads, the untraced run repeats it between the timed
     phase's slices and reports the median: two trials read the host's
     speed of a moment, and with one reading at the start of each run
     one ten-run set's median came out a third above another's. *)
  let tally = Meter.tally () in
  let check r = Meter.account tally ~what:"rover_detection" (Checks.rover_report r) in
  let clock = Meter.setup_clock () in
  let set_up () =
    let seeds = setup ~seed () in
    (seeds, List.init 2 (fun i -> trial seeds.(i)))
  in
  let seeds, warm = Meter.time_setup clock set_up in
  List.iter check warm;
  let item i = seeds.(i mod pool_size) in
  let first = 2 in
  let finish timed metrics correct =
    Array.iter check timed.Meter.outputs;
    report_speedup timed.outputs;
    { Meter.tally; metrics; wall_ns = timed.wall_ns;
      ops = Array.length timed.latencies_ns; correct }
  in
  if not trace then
    let again () = List.iter check (snd (Meter.time_setup clock set_up)) in
    let timed =
      Meter.run_timed ~chunks:setup_reps ~between:again ~seconds ~round:1 (fun i ->
          trial (item (first + i)))
    in
    finish timed
      (Meter.end_to_end ~timed ~tail_pct ~setup_s:(Meter.setup_median clock)
         ~peak_rss_mb:(Meter.vm_hwm_mb "self"))
      true
  else begin
    let timed, gc =
      Meter.gc_measure (fun () ->
          Meter.run_timed ~seconds ~round:1 (fun i -> (item (first + i), trial (item (first + i)))))
    in
    (* replay (untimed) up to [replays] of the timed trials *)
    let acc = layer () and replay_ok = ref true in
    Array.iteri
      (fun i (seed, r) ->
        if i < replays then
          match replay acc seed r with
          | Ok () -> ()
          | Error msg ->
              Printf.eprintf "rover_detection: %s (seed %d)\n%!" msg seed;
              replay_ok := false)
      timed.outputs;
    let replayed = min replays (Array.length timed.outputs) in
    let timed = { timed with outputs = Array.map snd timed.outputs } in
    let ops = Array.length timed.latencies_ns in
    finish timed
      [ Meter.metric "sim.engine.run_us" "us"
          (Meter.mean_int_us acc.engine_ns replayed);
        Meter.metric "security.store_build_us" "us"
          (Meter.mean_int_us acc.store_ns acc.store_runs);
        Meter.metric "security.scan_us" "us" (Meter.mean_int_us acc.scan_ns replayed);
        Meter.metric "security.scan_ns_per_region" "ns"
          (float_of_int acc.scan_ns /. float_of_int (max 1 acc.regions));
        Meter.metric "gc.minor_words_per_op" "words" (gc.minor_words /. float_of_int ops);
        Meter.metric "gc.major_collections" "count/run"
          (float_of_int gc.major_collections) ]
      !replay_ok
  end
