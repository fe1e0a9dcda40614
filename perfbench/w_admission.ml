(* admission_socket: the prebuilt [hydra-experiments serve --jobs 1]
   daemon on a private Unix socket, driven by one client connection in
   a closed loop (one request in flight: an admission verdict gates
   the client's next edit) through the rounds of [Script].

   Checking: an in-process replay of the initialisation and one round
   through [Engine.exec_batch] gives each round position's task set and
   partition ([Tenant.snapshot]); a from-scratch [Period_selection.select]
   on a fresh system over that snapshot is the expected reply. The
   replay also verifies that a round returns every tenant to its
   starting state, so position k of every later round expects the same
   reply. *)

module P = Hydra_server.Protocol
module Engine = Hydra_server.Engine
module Tenant = Hydra_server.Tenant
module DC = Daemon_client

let tail_pct = 99.
let warmup_rounds = 2
let replay_rounds = 20
let setup_reps = 5

type expect = { ts : Rtsched.Task.taskset; want : P.assignment list option }

let tenant_names = List.init Script.tenants Script.tenant_name

(* Expected replies of the init requests and of each round position;
   [closes] is true when one round leaves every tenant as it found it. *)
let expectations (script : Script.t) =
  let eng = Engine.create ~jobs:1 () in
  let snap q =
    let s = Tenant.snapshot (Option.get (Engine.find_tenant eng q.P.q_tenant)) in
    { ts = fst s; want = Checks.oracle s }
  in
  let run q = ignore (Engine.exec_batch eng [ q ]); snap q in
  let init = List.map run script.init in
  let state () =
    List.map
      (fun t -> Tenant.snapshot (Option.get (Engine.find_tenant eng t)))
      tenant_names
  in
  let before = state () in
  let round = Array.of_list (List.map run script.round) in
  let closes = state () = before in
  Engine.shutdown eng;
  (Array.of_list init, round, closes)

(* ------------------------------------------------------------------ *)
(* Daemon instances *)

type instance = {
  d : DC.t;
  start_ns : int;  (** spawn until the first accepted connection *)
  init_ns : int list;  (** round trip of each init request *)
  init_replies : P.response option list;
}

(* [None] when there is no reply or it does not decode. *)
let exchange d q =
  match DC.roundtrip d (P.encode_request q) with
  | Some payload -> (
      try Some (P.decode_response payload) with P.Protocol_error _ -> None)
  | None -> None

(* Spawn, connect, load the tenants. *)
let start_instance ~bin ~tmp (script : Script.t) =
  let t0 = Meter.now_ns () in
  let d = DC.spawn ~bin ~tmp_root:tmp in
  match DC.connect d ~timeout_s:30. with
  | Error msg ->
      Printf.eprintf "admission_socket: %s\n%s\n%!" msg (DC.log_tail d);
      DC.stop d;
      failwith "admission_socket: daemon did not start"
  | Ok () ->
      let start_ns = Meter.now_ns () - t0 in
      let timed_inits =
        List.map
          (fun q ->
            let t = Meter.now_ns () in
            let r = exchange d q in
            (Meter.now_ns () - t, r))
          script.init
      in
      { d; start_ns; init_ns = List.map fst timed_inits;
        init_replies = List.map snd timed_inits }

let check_reply tally q r (e : expect) =
  Meter.account tally ~what:"admission_socket"
    (match r with
    | None -> Error (Printf.sprintf "request %d: no reply" q.P.q_id)
    | Some r -> Checks.reply q r ~ts:e.ts ~expected:e.want)

(* ------------------------------------------------------------------ *)
(* In-process replays for the traced run *)

type replay = {
  exec_ns : int;  (** exec_batch without a flight ring *)
  exec_n : int;
  flight_ns : int;  (** exec_batch with one *)
  flight_n : int;
  dec_req_ns : int;  (** daemon-side codec, per request *)
  enc_resp_ns : int;
  probes : int;
  iterations : int;
  gc : Meter.gc_delta;
}

(* The script through [Engine.exec_batch] in one-request batches, as
   the daemon runs it; rounds alternate with and without a flight
   ring after [warmup_rounds]. *)
let engine_replay (script : Script.t) =
  let obs = Hydra_obs.create () in
  let eng = Engine.create ~obs ~jobs:1 () in
  let flight = Hydra_obs.Flight.create () in
  List.iter (fun q -> ignore (Engine.exec_batch eng [ q ])) script.init;
  for _ = 1 to warmup_rounds do
    List.iter (fun q -> ignore (Engine.exec_batch eng [ q ])) script.round
  done;
  let c0 = Hydra_obs.counter_total obs in
  let probes0 = c0 "period_selection.search.steps"
  and iters0 = c0 "analysis.fixpoint.iterations" in
  let exec = ref 0 and fl = ref 0 and dq = ref 0 and er = ref 0 in
  let (), gc =
    Meter.gc_measure (fun () ->
        for k = 1 to replay_rounds do
          let with_flight = k mod 2 = 0 in
          List.iter
            (fun q ->
              let wire = P.encode_request q in
              let t0 = Meter.now_ns () in
              let q = P.decode_request wire in
              let t1 = Meter.now_ns () in
              let r =
                if with_flight then Engine.exec_batch ~flight eng [ q ]
                else Engine.exec_batch eng [ q ]
              in
              let t2 = Meter.now_ns () in
              ignore (P.encode_response (List.hd r));
              let t3 = Meter.now_ns () in
              dq := !dq + (t1 - t0);
              er := !er + (t3 - t2);
              if with_flight then fl := !fl + (t2 - t1) else exec := !exec + (t2 - t1))
            script.round
        done)
  in
  Engine.shutdown eng;
  let c = Hydra_obs.counter_total obs in
  let half = replay_rounds / 2 * Script.round_length in
  { exec_ns = !exec; exec_n = half; flight_ns = !fl; flight_n = half;
    dec_req_ns = !dq; enc_resp_ns = !er;
    probes = c "period_selection.search.steps" - probes0;
    iterations = c "analysis.fixpoint.iterations" - iters0; gc }

(* The script straight through [Tenant]: edit, then materialize, as the
   engine does for a one-request batch. Returns mean edit and
   materialize times in ns. *)
let tenant_replay (script : Script.t) =
  let tenants = Hashtbl.create 8 in
  List.iter
    (fun q ->
      match q.P.q_op with
      | P.Init { cores; rt; sec } -> (
          match Tenant.create ~name:q.P.q_tenant ~cache_capacity:0 ~cores ~rt ~sec with
          | Tenant.Admitted t ->
              ignore (Tenant.materialize ~incremental:true t);
              Hashtbl.replace tenants q.P.q_tenant t
          | _ -> failwith "admission_socket: tenant rejected in replay")
      | _ -> ())
    script.init;
  let edit = ref 0 and edits = ref 0 and mat = ref 0 and mats = ref 0 in
  for k = 0 to warmup_rounds + replay_rounds - 1 do
    List.iter
      (fun q ->
        let t = Hashtbl.find tenants q.P.q_tenant in
        let t0 = Meter.now_ns () in
        let edited =
          match q.P.q_op with
          | P.Rt_arrive s -> ignore (Tenant.rt_arrive t s); true
          | P.Rt_leave n -> ignore (Tenant.rt_leave t n); true
          | P.Sec_arrive s -> ignore (Tenant.sec_arrive t s); true
          | P.Sec_leave n -> ignore (Tenant.sec_leave t n); true
          | P.Reselect -> Tenant.touch t; false
          | _ -> false
        in
        let t1 = Meter.now_ns () in
        ignore (Tenant.materialize ~incremental:true t);
        let t2 = Meter.now_ns () in
        if k >= warmup_rounds then begin
          if edited then begin
            edit := !edit + (t1 - t0);
            incr edits
          end;
          mat := !mat + (t2 - t1);
          incr mats
        end)
      script.round
  done;
  (Meter.mean_int_us !edit !edits, Meter.mean_int_us !mat !mats)

(* Sum of the daemon's tenant stats (traced run, after the timed ops). *)
let tenant_stats d =
  List.fold_left
    (fun (sel, warm, hit, miss) t ->
      match exchange d { P.q_id = -2; q_tenant = t; q_op = P.Stats } with
      | Some { P.p_body = P.Tenant_stats s; _ } ->
          ( sel + s.st_selects, warm + s.st_warm_selects, hit + s.st_cache_hits,
            miss + s.st_cache_misses )
      | _ -> (sel, warm, hit, miss))
    (0, 0, 0, 0) tenant_names

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let run ~bin ~tmp ~seed ~seconds ~trace =
  let script = Script.make ~seed in
  let init_expect, expect, closes = expectations script in
  if not closes then
    prerr_endline "admission_socket: a round does not return the tenants to their start";
  let tally = Meter.tally () in
  (* set-up: spawn, connect, load the tenants. This daemon serves the
     run; the set-up is repeated [setup_reps - 1] times more between
     the timed phase's slices, each time with a daemon of its own that
     is stopped at once. *)
  let s = start_instance ~bin ~tmp script in
  let instances = ref [ s ] in
  let again () =
    let x = start_instance ~bin ~tmp script in
    DC.stop x.d;
    instances := x :: !instances
  in
  List.iteri
    (fun i r -> check_reply tally (List.nth script.init i) r init_expect.(i))
    s.init_replies;
  let round_len = Script.round_length in
  let alive = ref true in
  let enc = ref 0 and dec = ref 0 in
  (* One round; replies are kept for checking. After the daemon is
     gone the rest of the round is counted failed without sending. *)
  let run_round ~base ~latencies =
    List.map
      (fun q ->
        if not !alive then (q, None)
        else begin
          let t0 = Meter.now_ns () in
          let wire = P.encode_request q in
          let t1 = Meter.now_ns () in
          match DC.roundtrip s.d wire with
          | None ->
              alive := false;
              Printf.eprintf "admission_socket: daemon gone at request %d\n%s\n%!"
                q.P.q_id (DC.log_tail s.d);
              (q, None)
          | Some payload -> (
              let t2 = Meter.now_ns () in
              match P.decode_response payload with
              | r ->
                  let t3 = Meter.now_ns () in
                  Meter.Buf.push latencies (t3 - t0);
                  enc := !enc + (t1 - t0);
                  dec := !dec + (t3 - t2);
                  (q, Some r)
              | exception P.Protocol_error msg ->
                  Printf.eprintf "admission_socket: malformed reply to %d: %s\n%!"
                    q.P.q_id msg;
                  (q, None))
        end)
      (Script.round_requests script ~base)
  in
  let check_round replies =
    List.iteri (fun k (q, r) -> check_reply tally q r expect.(k)) replies
  in
  let next_base = ref 1000 in
  let round () ~latencies =
    let base = !next_base in
    next_base := base + round_len;
    run_round ~base ~latencies
  in
  for _ = 1 to warmup_rounds do
    check_round (round () ~latencies:(Meter.Buf.create ()))
  done;
  enc := 0;
  dec := 0;
  (* one timed op per script round; latencies are taken per request *)
  let latencies = Meter.Buf.create () in
  let rounds =
    Meter.run_timed ~chunks:setup_reps ~between:again ~live:(fun () -> !alive)
      ~seconds ~round:1 (fun _ -> round () ~latencies)
  in
  let wall_ns = rounds.wall_ns in
  let instances = List.rev !instances in
  let setup_s =
    Meter.median_float
      (List.map
         (fun s -> Meter.s_of_ns (s.start_ns + List.fold_left ( + ) 0 s.init_ns))
         instances)
  in
  Array.iter check_round rounds.outputs;
  let timed =
    { Meter.latencies_ns = Meter.Buf.to_array latencies; wall_ns; outputs = [||] }
  in
  let ops = Array.length timed.latencies_ns in
  let stats = if trace && !alive then Some (tenant_stats s.d) else None in
  let peak_rss_mb = DC.vm_hwm_mb s.d in
  DC.stop s.d;
  let metrics =
    if not trace then Meter.end_to_end ~timed ~tail_pct ~setup_s ~peak_rss_mb
    else begin
      let rp = engine_replay script in
      let edit_us, mat_us = tenant_replay script in
      let sel, warm, hit, miss = Option.value stats ~default:(0, 0, 0, 0) in
      let n_init = List.length instances * Script.tenants in
      let roundtrip = Meter.mean_int_us (Array.fold_left ( + ) 0 timed.latencies_ns) ops in
      let exec = Meter.mean_int_us rp.exec_ns rp.exec_n in
      let encode = Meter.mean_int_us !enc ops +. Meter.mean_int_us rp.enc_resp_ns (2 * rp.exec_n) in
      let decode = Meter.mean_int_us !dec ops +. Meter.mean_int_us rp.dec_req_ns (2 * rp.exec_n) in
      let replayed = rp.exec_n + rp.flight_n in
      [ Meter.metric "server.daemon.start_ms" "ms"
          (Meter.median_float (List.map (fun s -> Meter.ms_of_ns s.start_ns) instances));
        Meter.metric "server.tenant.init_ms" "ms"
          (Meter.ms_of_ns (List.fold_left (fun a s -> a + List.fold_left ( + ) 0 s.init_ns) 0 instances)
           /. float_of_int n_init);
        Meter.metric "server.protocol.encode_us" "us" encode;
        Meter.metric "server.protocol.decode_us" "us" decode;
        Meter.metric "server.tenant.edit_us" "us" edit_us;
        Meter.metric "server.tenant.materialize_us" "us" mat_us;
        Meter.metric "server.tenant.warm_select_ratio" "ratio" (ratio warm sel);
        Meter.metric "hydra.analysis.cache_hit_ratio" "ratio" (ratio hit (hit + miss));
        Meter.metric "hydra.period_selection.probes" "count/op" (ratio rp.probes replayed);
        Meter.metric "hydra.analysis.fixpoint_iterations" "count/op"
          (ratio rp.iterations replayed);
        Meter.metric "server.engine.exec_batch_us" "us" exec;
        Meter.metric "obs.flight_us" "us" (Meter.mean_int_us rp.flight_ns rp.flight_n -. exec);
        Meter.metric "server.daemon.roundtrip_us" "us" roundtrip;
        Meter.metric "server.daemon.unexplained_us" "us" (roundtrip -. exec -. encode -. decode);
        Meter.metric "gc.minor_words_per_op" "words" (rp.gc.minor_words /. float_of_int replayed);
        Meter.metric "gc.major_collections" "count/run" (float_of_int rp.gc.major_collections) ]
    end
  in
  { Meter.tally; metrics; wall_ns; ops; correct = closes }
