(* Clock, sample statistics, memory readings and the result line shared
   by every workload. *)

let now_ns = Hydra_obs.now_ns
let us_of_ns ns = float_of_int ns /. 1e3
let ms_of_ns ns = float_of_int ns /. 1e6
let s_of_ns ns = float_of_int ns /. 1e9

(* Growable int buffer (the toolchain's stdlib predates Dynarray). *)
module Buf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push b x =
    if b.len = Array.length b.data then begin
      let d = Array.make (2 * b.len) 0 in
      Array.blit b.data 0 d 0 b.len;
      b.data <- d
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let length b = b.len
  let to_array b = Array.sub b.data 0 b.len
  let sum b =
    let s = ref 0 in
    for i = 0 to b.len - 1 do s := !s + b.data.(i) done;
    !s
end

(* Nearest-rank percentile of unsorted samples ([p] in [0, 100]). *)
let percentile samples p =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean_int_us ns_total count =
  if count = 0 then 0. else us_of_ns ns_total /. float_of_int count

(* Peak resident set ([VmHWM]) of a process, in MB; 0 when the status
   file cannot be read. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Set-up clock: the durations of the set-up runs of one process. *)
type setup_clock = { mutable times : float list }

let setup_clock () = { times = [] }

(* Runs set-up [f] once, records its duration on [clock], and returns
   its value. *)
let time_setup clock f =
  let t0 = now_ns () in
  let v = f () in
  clock.times <- s_of_ns (now_ns () - t0) :: clock.times;
  v

(* The median set-up time; the single runs go to stderr. *)
let setup_median clock =
  Printf.eprintf "perfbench: set-up %s s\n%!"
    (String.concat " " (List.rev_map (Printf.sprintf "%.6f") clock.times));
  median_float clock.times

(* The timed phase: ops run back to back in whole rounds of [round]
   until [seconds] of timed wall clock have passed. [op i] is the i-th
   timed operation; its latency is recorded, its value kept for checking
   after the phase. The phase is cut into [chunks] slices of equal
   length, and [between ()] runs between two slices with the phase's
   clock stopped, so a repeated set-up samples the host over the whole
   run rather than only at its start. The phase ends early once
   [live ()] is false. *)
type 'a timed = {
  latencies_ns : int array;
  wall_ns : int;
  outputs : 'a array;
}

let run_timed ?(chunks = 1) ?(between = ignore) ?(live = fun () -> true) ~seconds
    ~round op =
  let lat = Buf.create () and outs = ref [] in
  let total = int_of_float (seconds *. 1e9) in
  let wall = ref 0 and i = ref 0 in
  for c = 1 to chunks do
    if c > 1 && live () then between ();
    let target = total / chunks * c in
    let start = now_ns () in
    while live () && !wall + (now_ns () - start) < target do
      for _ = 1 to round do
        let t0 = now_ns () in
        let v = op !i in
        Buf.push lat (now_ns () - t0);
        outs := v :: !outs;
        incr i
      done
    done;
    wall := !wall + (now_ns () - start)
  done;
  { latencies_ns = Buf.to_array lat; wall_ns = !wall;
    outputs = Array.of_list (List.rev !outs) }

(* Garbage-collector deltas over a phase. *)
type gc_delta = { minor_words : float; major_collections : int }

let gc_measure f =
  let s0 = Gc.quick_stat () in
  let v = f () in
  let s1 = Gc.quick_stat () in
  ( v,
    { minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      major_collections = s1.Gc.major_collections - s0.Gc.major_collections } )

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Shortest decimal that reads back as the same float: all the digits
   measured, no more. *)
let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then
    let rec go prec =
      let s = Printf.sprintf "%.*g" prec v in
      if prec >= 17 || float_of_string s = v then s else go (prec + 1)
    in
    go 6
  else "0"

let json_of_result ~correct ~attempted ~failed metrics =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (json_number m.m_value) m.m_unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " metrics)

(* The five end-to-end metrics every workload reports. [tail_pct] is
   the workload's fixed tail percentile (README.md). *)
let end_to_end ~(timed : _ timed) ~tail_pct ~peak_rss_mb ~setup_s =
  let n = Array.length timed.latencies_ns in
  [ metric "throughput_per_s" "1/s" (float_of_int n /. s_of_ns timed.wall_ns);
    metric "latency_p50_us" "us" (us_of_ns (percentile timed.latencies_ns 50.));
    metric "latency_tail_us" "us"
      (us_of_ns (percentile timed.latencies_ns tail_pct));
    metric "peak_rss_mb" "MB" peak_rss_mb;
    metric "setup_s" "s" setup_s ]

(* What a workload run hands back: its checks' tally, its metrics (the
   end-to-end ones, or the per-layer ones on a traced run), the timed
   phase's length and op count, and whether the checks that concern
   the whole run (not a single op) held. *)
type tally = { mutable attempted : int; mutable failed : int }

type outcome = {
  tally : tally;
  metrics : metric list;
  wall_ns : int;
  ops : int;
  correct : bool;
}

(* Failure accounting: a check that fails counts one failed operation
   and is reported on stderr; the run goes on. *)
let tally () = { attempted = 0; failed = 0 }

let account t ~what = function
  | Ok () -> t.attempted <- t.attempted + 1
  | Error msg ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if t.failed <= 20 then Printf.eprintf "check failed (%s): %s\n%!" what msg
