(* soundness_sim: set-up selects HYDRA-C periods for generated M = 4
   tasksets; each operation simulates one selected system from
   synchronous release (semi-partitioned) and checks the simulated
   responses against the analytical WCRTs.

   Each system's horizon is sized to release about [releases] jobs
   (about 10^6 ticks at M = 4), never less than four times its longest
   period, so an operation's cost reflects the engine rather than how
   short the drawn periods happen to be. *)

module G = Taskgen.Generator
module Rng = Taskgen.Rng
module PS = Hydra.Period_selection
module Task = Rtsched.Task

let cores = 4
let groups = 10
let pool_size = 48
let releases = 60_000.
let tail_pct = 99.
let setup_reps = 5

type system = {
  gen : G.generated;
  periods : int array;  (** selected, by sec_id *)
  resps : int array;  (** WCRTs, by sec_id *)
  built : Sim.Scenario.built;
  horizon : int;
}

let horizon_of (ts : Task.taskset) periods =
  let inv = ref 0. and longest = ref 0 in
  Array.iter
    (fun (r : Task.rt_task) ->
      inv := !inv +. (1. /. float_of_int r.rt_period);
      longest := max !longest r.rt_period)
    ts.rt;
  Array.iter
    (fun p ->
      inv := !inv +. (1. /. float_of_int p);
      longest := max !longest p)
    periods;
  max (4 * !longest) (int_of_float (releases /. !inv))

type hooks = {
  on_generate : int -> unit;
  on_select : int -> unit;
  on_build : int -> unit;
}

let no_hooks = { on_generate = ignore; on_select = ignore; on_build = ignore }

let timed f k =
  let t0 = Meter.now_ns () in
  let v = f () in
  k (Meter.now_ns () - t0);
  v

(* [pool_size] HYDRA-C-schedulable systems, drawn round-robin over the
   utilization groups. *)
let setup ?(hooks = no_hooks) ~seed () =
  let config = G.default_config ~n_cores:cores in
  let rng = Rng.create seed in
  let pool = ref [] and count = ref 0 and i = ref 0 in
  while !count < pool_size do
    let group = !i mod groups in
    incr i;
    let stream = Rng.split rng in
    match timed (fun () -> G.generate config stream ~group) hooks.on_generate with
    | None -> ()
    | Some gen -> (
        let ts = gen.taskset in
        let n_sec = Array.length ts.sec in
        let sys = Hydra.Analysis.make_system ts ~assignment:gen.rt_assignment in
        match timed (fun () -> PS.select sys ts.sec) hooks.on_select with
        | PS.Unschedulable -> ()
        | PS.Schedulable a ->
            let periods = PS.period_vector a ~n_sec
            and resps = PS.resp_vector a ~n_sec in
            let built =
              timed
                (fun () ->
                  Sim.Scenario.of_taskset ts ~rt_assignment:gen.rt_assignment
                    ~policy:Sim.Policy.Semi_partitioned ~sec_periods:periods ())
                hooks.on_build
            in
            pool := { gen; periods; resps; built; horizon = horizon_of ts periods }
                    :: !pool;
            incr count)
  done;
  Array.of_list (List.rev !pool)

let simulate s =
  Sim.Engine.run ~n_cores:cores ~horizon:s.horizon s.built.Sim.Scenario.tasks

(* What the check needs from a run, taken right after it so that no
   run's full statistics are kept: per security task (name, finished
   jobs, largest response, WCRT), and the RT deadline misses. *)
let summary s (stats : Sim.Engine.stats) =
  ( Array.to_list
      (Array.map
         (fun (t : Task.sec_task) ->
           let st =
             Sim.Metrics.stats_of_sim_id stats
               ~sim_id:s.built.sec_sim_ids.(t.sec_id)
           in
           (t.sec_name, st.ts_finished, st.ts_max_response, s.resps.(t.sec_id)))
         s.gen.taskset.sec),
    Sim.Metrics.deadline_misses stats ~sim_ids:s.built.rt_sim_ids )

(* Checks one run's summary; returns its largest observed/WCRT ratio. *)
let check tally (rows, rt_misses) =
  Meter.account tally ~what:"soundness_sim" (Checks.sim_sound ~sec:rows ~rt_misses);
  List.fold_left
    (fun acc (_, _, obs, bound) -> Float.max acc (float_of_int obs /. float_of_int bound))
    0. rows

let op s = summary s (simulate s)

let check_selection tally s =
  Meter.account tally ~what:"soundness_sim selection"
    (Checks.hydra_c_periods s.gen.taskset ~rt_assignment:s.gen.rt_assignment
       ~periods:s.periods ~resps:s.resps ())

let run ~seed ~seconds ~trace =
  let clock = Meter.setup_clock () in
  let pool = Meter.time_setup clock (fun () -> setup ~seed ()) in
  let n = Array.length pool in
  let item i = pool.(i mod n) in
  let tally = Meter.tally () in
  Array.iter (check_selection tally) pool;
  (* warm-up: two untimed, checked simulations *)
  for i = 0 to 1 do
    ignore (check tally (op (item i)))
  done;
  let first = 2 and round = 4 in
  let finish timed metrics =
    let tight = ref 0. in
    Array.iter
      (fun sum -> tight := Float.max !tight (check tally sum))
      timed.Meter.outputs;
    Printf.eprintf "soundness_sim: largest observed/WCRT ratio %.4f\n%!" !tight;
    { Meter.tally; metrics; wall_ns = timed.wall_ns;
      ops = Array.length timed.latencies_ns; correct = true }
  in
  if not trace then
    (* the set-up is repeated between the timed phase's slices *)
    let again () = ignore (Meter.time_setup clock (fun () -> setup ~seed ())) in
    let timed =
      Meter.run_timed ~chunks:setup_reps ~between:again ~seconds ~round (fun i ->
          op (item (first + i)))
    in
    finish timed
      (Meter.end_to_end ~timed ~tail_pct ~setup_s:(Meter.setup_median clock)
         ~peak_rss_mb:(Meter.vm_hwm_mb "self"))
  else begin
    let gen = Meter.Buf.create () and sel = Meter.Buf.create ()
    and build = Meter.Buf.create () in
    ignore
      (setup
         ~hooks:{ on_generate = Meter.Buf.push gen; on_select = Meter.Buf.push sel;
                  on_build = Meter.Buf.push build }
         ~seed ());
    let events = ref 0 and run_ns = ref 0 in
    let timed, gc =
      Meter.gc_measure (fun () ->
          Meter.run_timed ~seconds ~round (fun i ->
              let s = item (first + i) in
              let stats = timed (fun () -> simulate s) (fun d -> run_ns := !run_ns + d) in
              events := !events + stats.Sim.Engine.decision_events;
              summary s stats))
    in
    let ops = Array.length timed.latencies_ns and run_ns = !run_ns in
    let mean b = Meter.mean_int_us (Meter.Buf.sum b) (Meter.Buf.length b) in
    finish timed
      [ Meter.metric "taskgen.generate_us" "us" (mean gen);
        Meter.metric "hydra.period_selection.select_ms" "ms" (mean sel /. 1e3);
        Meter.metric "sim.scenario.build_us" "us" (mean build);
        Meter.metric "sim.engine.run_us" "us" (Meter.mean_int_us run_ns ops);
        Meter.metric "sim.engine.decision_events" "count/op"
          (float_of_int !events /. float_of_int ops);
        Meter.metric "sim.engine.ns_per_event" "ns"
          (float_of_int run_ns /. float_of_int (max 1 !events));
        Meter.metric "gc.minor_words_per_op" "words"
          (gc.minor_words /. float_of_int ops);
        Meter.metric "gc.major_collections" "count/run"
          (float_of_int gc.major_collections) ]
  end
