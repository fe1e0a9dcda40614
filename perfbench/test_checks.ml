(* Self-test of the benchmark's output checks: each checker is fed a
   correct output, which it must pass, and a wrong one, which it must
   catch. Run with [dune test perfbench]. *)

open Perfbench
module Task = Rtsched.Task
module P = Hydra_server.Protocol

let failures = ref 0
let cases = ref 0

let expect name ~ok r =
  incr cases;
  match (ok, r) with
  | true, Ok () | false, Error _ -> ()
  | true, Error msg ->
      incr failures;
      Printf.printf "FAIL  %s: rejected a correct output (%s)\n" name msg
  | false, Ok () ->
      incr failures;
      Printf.printf "FAIL  %s: missed a wrong output\n" name

(* A schedulable generated taskset with at least one selected period
   below its bound, and its selection. *)
let selected () =
  let config = Taskgen.Generator.default_config ~n_cores:2 in
  let rng = Taskgen.Rng.create 7 in
  let rec find () =
    match Taskgen.Generator.generate config (Taskgen.Rng.split rng) ~group:3 with
    | None -> find ()
    | Some g -> (
        let ts = g.taskset in
        let sys = Hydra.Analysis.make_system ts ~assignment:g.rt_assignment in
        match Hydra.Period_selection.select sys ts.sec with
        | Schedulable a when List.exists (fun (x : Hydra.Period_selection.assignment) ->
                                 x.period < x.sec.Task.sec_period_max) a ->
            let n_sec = Array.length ts.sec in
            (g, a, Hydra.Period_selection.period_vector a ~n_sec,
             Hydra.Period_selection.resp_vector a ~n_sec)
        | _ -> find ())
  in
  find ()

let () =
  let g, a, periods, resps = selected () in
  let rt_assignment = g.rt_assignment and ts = g.taskset in
  expect "selected periods pass" ~ok:true
    (Checks.hydra_c_periods ts ~rt_assignment ~periods ~resps ());
  let x =
    List.find (fun (x : Hydra.Period_selection.assignment) ->
        x.period < x.sec.Task.sec_period_max) a
  in
  let above = Array.copy periods in
  above.(x.sec.sec_id) <- x.period + 1;
  expect "period one tick above the least feasible" ~ok:false
    (Checks.hydra_c_periods ts ~rt_assignment ~periods:above ());
  let wrong_r = Array.copy resps in
  wrong_r.(x.sec.sec_id) <- x.resp - 1;
  expect "reported WCRT one tick low" ~ok:false
    (Checks.hydra_c_periods ts ~rt_assignment ~periods ~resps:wrong_r ());
  let bounds = Array.make (Array.length ts.sec) 0 in
  Array.iter (fun (s : Task.sec_task) -> bounds.(s.sec_id) <- s.sec_period_max) ts.sec;
  expect "TMax deployment at the bounds" ~ok:true (Checks.at_bounds ts bounds);
  bounds.(0) <- bounds.(0) - 1;
  expect "TMax deployment one tick below a bound" ~ok:false (Checks.at_bounds ts bounds)

let () =
  expect "simulated responses within WCRT" ~ok:true
    (Checks.sim_sound ~sec:[ ("s0", 4, 120, 120); ("s1", 2, 80, 95) ] ~rt_misses:0);
  expect "simulated response one tick over its WCRT" ~ok:false
    (Checks.sim_sound ~sec:[ ("s0", 4, 121, 120); ("s1", 2, 80, 95) ] ~rt_misses:0);
  expect "an RT deadline miss" ~ok:false
    (Checks.sim_sound ~sec:[ ("s0", 4, 120, 120) ] ~rt_misses:1);
  expect "a security task that never finished" ~ok:false
    (Checks.sim_sound ~sec:[ ("s0", 0, 0, 120) ] ~rt_misses:0)

let () =
  expect "detection at 2T" ~ok:true
    (Checks.detection ~label:"tripwire" ~period:10000 (Some 20000.));
  expect "detection later than 2T" ~ok:false
    (Checks.detection ~label:"tripwire" ~period:10000 (Some 20001.));
  expect "undetected intrusion" ~ok:false
    (Checks.detection ~label:"kmod" ~period:10000 None)

(* A reply to the first round request of a script, against the oracle
   on the replayed tenant's state. *)
let () =
  let script = Script.make ~seed:3 in
  let eng = Hydra_server.Engine.create ~jobs:1 () in
  List.iter (fun q -> ignore (Hydra_server.Engine.exec_batch eng [ q ])) script.init;
  let q = List.find (fun q -> q.P.q_op = P.Query) script.round in
  let r = List.hd (Hydra_server.Engine.exec_batch eng [ q ]) in
  let snap =
    Hydra_server.Tenant.snapshot
      (Option.get (Hydra_server.Engine.find_tenant eng q.P.q_tenant))
  in
  Hydra_server.Engine.shutdown eng;
  let ts = fst snap and expected = Checks.oracle snap in
  expect "daemon reply equals the recomputation" ~ok:true
    (Checks.reply q r ~ts ~expected);
  let rows = match r.p_body with P.Periods rows -> rows | _ -> [] in
  let tmax name =
    (List.find (fun (s : Task.sec_task) -> s.sec_name = name) (Array.to_list ts.sec))
      .sec_period_max
  in
  let bumped = ref false in
  let rows' =
    List.map
      (fun (x : P.assignment) ->
        if (not !bumped) && x.a_period < tmax x.a_name then begin
          bumped := true;
          { x with a_period = x.a_period + 1 }
        end
        else x)
      rows
  in
  assert !bumped;
  expect "reply periods differ from the recomputation" ~ok:false
    (Checks.reply q { r with p_body = P.Periods rows' } ~ts ~expected);
  expect "reply with another request's id" ~ok:false
    (Checks.reply q { r with p_id = q.q_id + 1 } ~ts ~expected);
  expect "error reply" ~ok:false
    (Checks.reply q (P.error ~id:q.q_id ~tenant:q.q_tenant "boom") ~ts ~expected)

let () =
  Printf.printf "perfbench checks: %d of %d cases as expected\n" (!cases - !failures)
    !cases;
  if !failures > 0 then exit 1
