(* The admission_socket request script: a pure function of the seed.

   Four tenants (4 cores, 24 RT and 8 security tasks each, light
   enough that every edit is admitted) are initialised once. A round
   then gives every tenant the same sixteen requests in a seeded
   order: two RT arrivals and the two matching departures, the same
   for security tasks, four reselects and four queries. The tenants'
   requests are interleaved in a seeded order too. Every departure
   removes a task that arrived earlier in the round, so each round
   starts from the same tenant states: request k of every round sees
   the same task set as request k of the first, and per-request cost
   does not drift with run length. *)

module P = Hydra_server.Protocol
module Rng = Taskgen.Rng

let tenants = 4
let cores = 4
let rt_per_tenant = 24
let sec_per_tenant = 8
let round_per_tenant = 16

let tenant_name i = Printf.sprintf "t%d" i

let rt_periods = [| 100; 120; 150; 200; 240; 300; 400; 500; 600; 800 |]

let rt_spec rng name ~max_wcet =
  { P.r_name = name; r_wcet = 1 + Rng.int rng max_wcet;
    r_period = rt_periods.(Rng.int rng (Array.length rt_periods)) }

let sec_spec rng name =
  { P.s_name = name; s_wcet = 1 + Rng.int rng 2;
    s_period_max = 2000 + (400 * Rng.int rng 10) }

type t = {
  init : P.request list;  (** one [Init] per tenant, ids [0 .. tenants-1] *)
  round : P.request list;  (** one round; ids are positions in it *)
}

(* One tenant's share of a round, in its seeded order. *)
let tenant_round rng tenant =
  let rt = [| rt_spec rng "xr0" ~max_wcet:2; rt_spec rng "xr1" ~max_wcet:2 |] in
  let sec = [| sec_spec rng "xs0"; sec_spec rng "xs1" |] in
  (* 4 RT edits, 4 security edits, 4 reselects, 4 queries *)
  let kinds = Array.init round_per_tenant (fun i -> i / 4) in
  Rng.shuffle rng kinds;
  (* departures in a seeded order, after both arrivals *)
  let rt_leave = if Rng.bool rng then [| 0; 1 |] else [| 1; 0 |] in
  let sec_leave = if Rng.bool rng then [| 0; 1 |] else [| 1; 0 |] in
  let n_rt = ref 0 and n_sec = ref 0 in
  Array.to_list
    (Array.map
       (fun kind ->
         let op =
           match kind with
           | 0 ->
               let k = !n_rt in
               incr n_rt;
               if k < 2 then P.Rt_arrive rt.(k)
               else P.Rt_leave rt.(rt_leave.(k - 2)).r_name
           | 1 ->
               let k = !n_sec in
               incr n_sec;
               if k < 2 then P.Sec_arrive sec.(k)
               else P.Sec_leave sec.(sec_leave.(k - 2)).s_name
           | 2 -> P.Reselect
           | _ -> P.Query
         in
         (tenant, op))
       kinds)

let make ~seed =
  let rng = Rng.create seed in
  let init =
    List.init tenants (fun i ->
        let rt =
          List.init rt_per_tenant (fun k ->
              rt_spec rng (Printf.sprintf "r%d" k) ~max_wcet:3)
        in
        let sec =
          List.init sec_per_tenant (fun k -> sec_spec rng (Printf.sprintf "s%d" k))
        in
        { P.q_id = i; q_tenant = tenant_name i;
          q_op = P.Init { cores; rt; sec } })
  in
  let queues =
    Array.init tenants (fun i -> ref (tenant_round rng (tenant_name i)))
  in
  (* a uniformly random interleaving that keeps each tenant's order *)
  let remaining = ref (tenants * round_per_tenant) in
  let out = ref [] in
  while !remaining > 0 do
    let pick = ref (Rng.int rng !remaining) and chosen = ref (-1) in
    Array.iteri
      (fun i q ->
        let len = List.length !q in
        if !chosen < 0 then
          if !pick < len then chosen := i else pick := !pick - len)
      queues;
    let q = queues.(!chosen) in
    (match !q with
    | (tenant, op) :: rest ->
        out := (tenant, op) :: !out;
        q := rest
    | [] -> assert false);
    decr remaining
  done;
  { init;
    round =
      List.mapi
        (fun i (tenant, op) -> { P.q_id = i; q_tenant = tenant; q_op = op })
        (List.rev !out) }

let round_length = tenants * round_per_tenant

(* The round's requests with ids offset by [base], so that ids stay
   unique across rounds. *)
let round_requests t ~base = List.map (fun q -> { q with P.q_id = base + q.P.q_id }) t.round
