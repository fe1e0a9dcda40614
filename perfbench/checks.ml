(* Output checks. Each compares a program output with an independent
   computation or with a property the method must have; none compares
   with a stored copy of an earlier output. All return [Error reason]
   on a wrong output. *)

module Task = Rtsched.Task
module Analysis = Hydra.Analysis

let ( let* ) = Result.bind

let rec all = function
  | [] -> Ok ()
  | (lazy r) :: rest -> (
      match r with Ok () -> all rest | Error _ as e -> e)

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt

(* WCRTs of the priority-sorted security tasks under the period vector
   [period_of] (by position), computed top-down with the reference
   analysis from position [from] on; positions below [from] take their
   responses from [prefix]. [None] at the first task that misses its
   bound. *)
let responses ?(from = 0) ?prefix sys (sorted : Task.sec_task array) ~period_of =
  let n = Array.length sorted in
  let resps =
    match prefix with Some p -> Array.copy p | None -> Array.make n 0
  in
  let hp_of j =
    { Analysis.hp_task = sorted.(j); hp_period = period_of j; hp_resp = resps.(j) }
  in
  let rec go j hp =
    if j >= n then Some resps
    else
      let s = sorted.(j) in
      match
        Analysis.response_time sys ~hp:(List.rev hp) ~wcet:s.Task.sec_wcet
          ~limit:s.Task.sec_period_max
      with
      | None -> None
      | Some r ->
          resps.(j) <- r;
          go (j + 1) (hp_of j :: hp)
  in
  go from (List.rev (List.init from hp_of))

(* A HYDRA-C period vector [periods] (by [sec_id]) for [ts]:
   - every task is schedulable under it and R_s <= T_s <= T_s^max;
   - the WCRTs recomputed under it equal [resps] when those are given;
   - Algorithm 2's least-feasible-period property: with the
     higher-priority tasks at their selected periods and the
     lower-priority ones at their bounds, period T_s - 1 leaves some
     task unschedulable (task s itself when T_s - 1 < R_s). *)
let hydra_c_periods (ts : Task.taskset) ~rt_assignment ~periods ?resps () =
  let sys = Analysis.make_system ts ~assignment:rt_assignment in
  let sorted = Task.sort_sec_by_priority ts.sec in
  let n = Array.length sorted in
  let period j = periods.(sorted.(j).Task.sec_id) in
  let name j = sorted.(j).Task.sec_name in
  match responses sys sorted ~period_of:period with
  | None -> fail "a security task misses its bound under the selected periods"
  | Some r ->
      let bounds j =
        lazy
          (let s = sorted.(j) in
           if r.(j) <= period j && period j <= s.Task.sec_period_max then Ok ()
           else
             fail "%s: period %d outside [R = %d, T^max = %d]" (name j)
               (period j) r.(j) s.Task.sec_period_max)
      in
      let reported j =
        lazy
          (match resps with
          | None -> Ok ()
          | Some v ->
              let got = v.(sorted.(j).Task.sec_id) in
              if got = r.(j) then Ok ()
              else fail "%s: reported R = %d, recomputed %d" (name j) got r.(j))
      in
      let least j =
        lazy
          (let candidate = period j - 1 in
           let lowered k =
             if k < j then period k
             else if k = j then candidate
             else sorted.(k).Task.sec_period_max
           in
           if candidate < r.(j) then Ok ()
           else
             match
               responses ~from:(j + 1) ~prefix:r sys sorted ~period_of:lowered
             with
             | None -> Ok ()
             | Some _ ->
                 fail "%s: period %d is not the least feasible (%d is)"
                   (name j) (period j) candidate)
      in
      all
        (List.concat_map (fun j -> [ bounds j; reported j; least j ])
           (List.init n Fun.id))

(* HYDRA-TMax and GLOBAL-TMax deploy exactly the designer bounds. *)
let at_bounds (ts : Task.taskset) periods =
  all
    (Array.to_list
       (Array.map
          (fun (s : Task.sec_task) ->
            lazy
              (if periods.(s.sec_id) = s.sec_period_max then Ok ()
               else
                 fail "%s: period %d, bound %d" s.sec_name periods.(s.sec_id)
                   s.sec_period_max))
          ts.sec))

(* HYDRA's greedy periods lie in [C_s, T_s^max]. *)
let within_bounds (ts : Task.taskset) periods =
  all
    (Array.to_list
       (Array.map
          (fun (s : Task.sec_task) ->
            lazy
              (let p = periods.(s.sec_id) in
               if s.sec_wcet <= p && p <= s.sec_period_max then Ok ()
               else fail "%s: period %d outside [C, T^max]" s.sec_name p))
          ts.sec))

(* One design-sweep operation: the four scheme outcomes of a taskset. *)
let sweep_outcomes (ts : Task.taskset) ~rt_assignment outcomes =
  let periods_of scheme (o : Hydra.Scheme.outcome) k =
    match o.periods with
    | Some p -> k p
    | None when o.schedulable ->
        fail "%s: schedulable without periods" (Hydra.Scheme.name scheme)
    | None -> Ok ()
  in
  all
    (List.map
       (fun (scheme, o) ->
         lazy
           (periods_of scheme o (fun p ->
                match (scheme : Hydra.Scheme.t) with
                | Hydra_c -> hydra_c_periods ts ~rt_assignment ~periods:p ()
                | Hydra -> within_bounds ts p
                | Hydra_tmax | Global_tmax -> at_bounds ts p)))
       outcomes)

(* Simulation against analysis: every security task finished jobs and
   its largest simulated response is at most its WCRT; no RT job
   missed a deadline. Rows are (name, finished, max response, WCRT). *)
let sim_sound ~sec ~rt_misses =
  let* () =
    if rt_misses = 0 then Ok () else fail "%d RT deadline misses" rt_misses
  in
  all
    (List.map
       (fun (name, finished, max_resp, wcrt) ->
         lazy
           (if finished = 0 then fail "%s: no job finished" name
            else if max_resp > wcrt then
              fail "%s: simulated response %d > WCRT %d" name max_resp wcrt
            else Ok ()))
       sec)

(* A detection latency lies in [0, 2 T]: an intrusion landing just
   behind the scanner is caught by the next full pass. *)
let detection ~label ~period = function
  | None -> fail "%s: intrusion not detected" label
  | Some lat ->
      if lat >= 0. && lat <= 2. *. float_of_int period then Ok ()
      else fail "%s: detection latency %g outside [0, 2T = %d]" label lat
             (2 * period)

let rover_report (r : Experiments.Fig5.report) =
  let scheme (s : Experiments.Fig5.scheme_report) =
    (* one trial: the mean is that trial's latency *)
    let lat q v = Option.map (fun _ -> v) q in
    [ lazy
        (detection ~label:(s.label ^ " tripwire")
           ~period:s.periods.(Security.Rover.tripwire_sec_id)
           (lat s.detect_tripwire_q s.mean_detect_tripwire));
      lazy
        (detection ~label:(s.label ^ " kmod")
           ~period:s.periods.(Security.Rover.kmod_sec_id)
           (lat s.detect_kmod_q s.mean_detect_kmod));
      lazy
        (if s.rt_deadline_misses = 0 then Ok ()
         else fail "%s: %d RT deadline misses" s.label s.rt_deadline_misses) ]
  in
  all (scheme r.hydra_c @ scheme r.hydra)

(* ------------------------------------------------------------------ *)
(* Admission replies *)

module P = Hydra_server.Protocol

(* A from-scratch selection on the tenant's current task set and
   partition, as sorted wire rows ([None] = unschedulable). *)
let oracle ((ts : Task.taskset), assignment) =
  let sys = Analysis.make_system ts ~assignment in
  match Hydra.Period_selection.select sys ts.sec with
  | Hydra.Period_selection.Unschedulable -> None
  | Schedulable a ->
      Some
        (List.sort compare
           (List.map
              (fun (x : Hydra.Period_selection.assignment) ->
                { P.a_name = x.sec.Task.sec_name; a_period = x.period;
                  a_resp = x.resp })
              a))

(* A reply to [q]: its own id, no error, R <= T <= T^max for each named
   task, and the same selection as [expected] (the oracle on the
   tenant's state after [q]). *)
let reply (q : P.request) (r : P.response) ~(ts : Task.taskset) ~expected =
  let bound name =
    Array.fold_left
      (fun acc (s : Task.sec_task) ->
        if s.sec_name = name then Some s.sec_period_max else acc)
      None ts.sec
  in
  let* () =
    if r.p_id = q.q_id then Ok () else fail "reply id %d for request %d" r.p_id q.q_id
  in
  match (r.p_status, r.p_body, expected) with
  | P.Failed, _, _ ->
      fail "request %d: error reply (%s)" q.q_id
        (Option.value r.p_reason ~default:"")
  | P.Rejected, _, _ -> fail "request %d: edit rejected" q.q_id
  | P.Unschedulable, _, None -> Ok ()
  | P.Unschedulable, _, Some _ ->
      fail "request %d: unschedulable, recomputation schedules it" q.q_id
  | P.Ok, P.Periods rows, Some want ->
      let* () =
        all
          (List.map
             (fun (a : P.assignment) ->
               lazy
                 (match bound a.a_name with
                 | None -> fail "request %d: unknown task %s" q.q_id a.a_name
                 | Some tmax ->
                     if a.a_resp <= a.a_period && a.a_period <= tmax then Ok ()
                     else
                       fail "request %d: %s has R %d, T %d, T^max %d" q.q_id
                         a.a_name a.a_resp a.a_period tmax))
             rows)
      in
      if List.sort compare rows = want then Ok ()
      else fail "request %d: periods differ from the recomputation" q.q_id
  | P.Ok, P.Periods _, None ->
      fail "request %d: periods for an unschedulable system" q.q_id
  | P.Ok, _, _ -> fail "request %d: reply without periods" q.q_id
