(* design_sweep: each operation evaluates one pre-generated Table-3
   taskset (M = 4) under all four schemes — the design-time question of
   Figs. 6-7. The pool holds rounds of ten tasksets, one per
   utilization group, so every run sees the groups in equal shares. *)

module G = Taskgen.Generator
module Rng = Taskgen.Rng
module Scheme = Hydra.Scheme

let cores = 4
let groups = 10
let pool_rounds = 100
let tail_pct = 99.
let setup_reps = 5

(* The taskset pool of [seed]. [on_generate] observes each
   [Generator.generate] call's duration (traced runs). *)
let generate ?(on_generate = fun _ -> ()) ~seed () =
  let config = G.default_config ~n_cores:cores in
  let rng = Rng.create seed in
  Array.init (pool_rounds * groups) (fun i ->
      let group = i mod groups in
      let rec attempt k =
        let stream = Rng.split rng in
        let t0 = Meter.now_ns () in
        let g = G.generate config stream ~group in
        on_generate (Meter.now_ns () - t0);
        match g with
        | Some g -> g
        | None when k > 0 -> attempt (k - 1)
        | None -> failwith "design_sweep: taskset generation failed"
      in
      attempt 20)

let evaluate (g : G.generated) =
  List.map
    (fun s -> (s, Scheme.evaluate s g.taskset ~rt_assignment:g.rt_assignment))
    Scheme.all

(* Checks the outcomes of op [i], which evaluated pool item [i] modulo
   the pool size. The check is a pure function of the taskset and the
   outcomes, and a run goes round the pool more than once, so a verdict
   is reused when a pool item gives the same outcomes again. *)
let checker tally (pool : G.generated array) =
  let seen = Hashtbl.create 1024 in
  fun i outcomes ->
    let k = i mod Array.length pool in
    let g = pool.(k) in
    let verdict =
      match Hashtbl.find_opt seen k with
      | Some (o, v) when o = outcomes -> v
      | _ ->
          let v =
            Checks.sweep_outcomes g.taskset ~rt_assignment:g.rt_assignment outcomes
          in
          Hashtbl.replace seen k (outcomes, v);
          v
    in
    Meter.account tally ~what:"design_sweep" verdict

(* HYDRA-C acceptance per utilization group over the checked ops. *)
let report_acceptance outputs =
  let acc = Array.make groups 0 and tot = Array.make groups 0 in
  Array.iteri
    (fun i outcomes ->
      let group = i mod groups in
      tot.(group) <- tot.(group) + 1;
      if (List.assoc Scheme.Hydra_c outcomes).Scheme.schedulable then
        acc.(group) <- acc.(group) + 1)
    outputs;
  Printf.eprintf "design_sweep: HYDRA-C acceptance by group:%s\n%!"
    (String.concat ""
       (List.init groups (fun k ->
            Printf.sprintf " %d/%d" acc.(k) (max 1 tot.(k)))))

let run ~seed ~seconds ~trace =
  let clock = Meter.setup_clock () in
  let pool = Meter.time_setup clock (fun () -> generate ~seed ()) in
  let n = Array.length pool in
  let item i = pool.(i mod n) in
  let tally = Meter.tally () in
  let check = checker tally pool in
  (* warm-up: the first round, untimed but checked *)
  for i = 0 to groups - 1 do
    check i (evaluate (item i))
  done;
  let first = groups in
  if not trace then begin
    (* the set-up is repeated between the timed phase's slices *)
    let again () = ignore (Meter.time_setup clock (fun () -> generate ~seed ())) in
    let timed =
      Meter.run_timed ~chunks:setup_reps ~between:again ~seconds ~round:groups
        (fun i -> evaluate (item (first + i)))
    in
    Array.iteri (fun i o -> check (first + i) o) timed.outputs;
    report_acceptance timed.outputs;
    let metrics =
      Meter.end_to_end ~timed ~tail_pct ~setup_s:(Meter.setup_median clock)
        ~peak_rss_mb:(Meter.vm_hwm_mb "self")
    in
    { Meter.tally; metrics; wall_ns = timed.wall_ns;
      ops = Array.length timed.latencies_ns; correct = true }
  end
  else begin
    let gen = Meter.Buf.create () in
    ignore (generate ~on_generate:(Meter.Buf.push gen) ~seed ());
    let obs = Hydra_obs.create () in
    let hc = ref 0 and gt = ref 0 and part = ref 0 in
    let timed_op i =
      let g = item (first + i) in
      List.map
        (fun s ->
          let t0 = Meter.now_ns () in
          let o = Scheme.evaluate ~obs s g.taskset ~rt_assignment:g.rt_assignment in
          let d = Meter.now_ns () - t0 in
          (match (s : Scheme.t) with
          | Hydra_c -> hc := !hc + d
          | Global_tmax -> gt := !gt + d
          | Hydra | Hydra_tmax -> part := !part + d);
          (s, o))
        Scheme.all
    in
    let timed, gc =
      Meter.gc_measure (fun () -> Meter.run_timed ~seconds ~round:groups timed_op)
    in
    Array.iteri (fun i o -> check (first + i) o) timed.outputs;
    let ops = Array.length timed.latencies_ns in
    let per_op v = float_of_int v /. float_of_int ops in
    let c = Hydra_obs.counter_total obs in
    let hits = c "analysis.cache.hit" and misses = c "analysis.cache.miss" in
    let metrics =
      [ Meter.metric "taskgen.generate_us" "us"
          (Meter.mean_int_us (Meter.Buf.sum gen) (Meter.Buf.length gen));
        Meter.metric "hydra.scheme.hydra_c_us" "us" (Meter.mean_int_us !hc ops);
        Meter.metric "hydra.scheme.global_tmax_us" "us" (Meter.mean_int_us !gt ops);
        Meter.metric "hydra.scheme.partitioned_us" "us"
          (Meter.mean_int_us !part ops);
        Meter.metric "hydra.analysis.fixpoint_iterations" "count/op"
          (per_op (c "analysis.fixpoint.iterations"));
        Meter.metric "hydra.analysis.cache_hit_ratio" "ratio"
          (if hits + misses = 0 then 0.
           else float_of_int hits /. float_of_int (hits + misses));
        Meter.metric "hydra.period_selection.probes" "count/op"
          (per_op (c "period_selection.search.steps"));
        Meter.metric "rtsched.rta_global.iterations" "count/op"
          (per_op (c "rta.global.iterations"));
        Meter.metric "gc.minor_words_per_op" "words" (gc.minor_words /. float_of_int ops);
        Meter.metric "gc.major_collections" "count/run"
          (float_of_int gc.major_collections) ]
    in
    { Meter.tally; metrics; wall_ns = timed.wall_ns; ops; correct = true }
  end
