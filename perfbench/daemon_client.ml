(* Lifecycle of one [hydra-experiments serve] daemon and a closed-loop
   client connection to it.

   The daemon is the prebuilt binary, started directly (not through a
   build tool) with its socket in a private directory created for it.
   Readiness is detected by connecting. [stop] asks for a shutdown,
   waits a bounded time, kills the daemon if it is still there, reaps
   it and removes the directory; it runs on every exit path. *)

module P = Hydra_server.Protocol

type t = {
  pid : int;
  dir : string;
  socket : string;
  log : string;
  mutable fd : Unix.file_descr option;
  mutable reaped : bool;
}

let live : t list ref = ref []
let counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* [tmp_root] is relative to the working directory, which keeps the
   socket path short whatever the checkout's absolute path is. *)
let spawn ~bin ~tmp_root =
  incr counter;
  mkdir_p tmp_root;
  let dir =
    Filename.concat tmp_root
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let log = Filename.concat dir "daemon.log" in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out; Unix.close devnull)
      (fun () ->
        Unix.create_process bin
          [| bin; "serve"; "--socket"; socket; "--jobs"; "1" |]
          devnull out out)
  in
  let t = { pid; dir; socket; log; fd = None; reaped = false } in
  live := t :: !live;
  t

let reap_now t =
  t.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) ->
      t.reaped <- true;
      true

(* Connect, retrying until the daemon accepts. [Error] when the daemon
   exited or did not come up within [timeout_s]. *)
let connect t ~timeout_s =
  let deadline = Meter.now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
    | () ->
        (* a hung daemon must not block the client forever *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
        t.fd <- Some fd;
        Ok ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if reap_now t then Error "daemon exited before accepting"
        else if Meter.now_ns () > deadline then Error "daemon did not come up"
        else begin
          Unix.sleepf 0.0002;
          go ()
        end
  in
  go ()

(* One request, one reply. [None] when the connection or the daemon is
   gone (EOF, reset, broken pipe, timeout, torn frame). *)
let roundtrip t payload =
  match t.fd with
  | None -> None
  | Some fd -> (
      try
        P.write_frame fd payload;
        P.read_frame fd
      with Unix.Unix_error _ | P.Protocol_error _ | Sys_error _ -> None)

let vm_hwm_mb t = Meter.vm_hwm_mb (string_of_int t.pid)

let log_tail t =
  match open_in t.log with
  | exception Sys_error _ -> ""
  | ic ->
      let n = in_channel_length ic in
      let k = min n 2000 in
      seek_in ic (n - k);
      let s = really_input_string ic k in
      close_in ic;
      s

let stop t =
  (match t.fd with
  | Some fd ->
      if not (reap_now t) then
        ignore
          (roundtrip t
             (P.encode_request
                { P.q_id = -1; q_tenant = ""; q_op = P.Shutdown }));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
  | None -> ());
  let deadline = Meter.now_ns () + 5_000_000_000 in
  while (not (reap_now t)) && Meter.now_ns () < deadline do
    Unix.sleepf 0.001
  done;
  if not (reap_now t) then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.reaped <- true
  end;
  rm_rf t.dir;
  live := List.filter (fun d -> d != t) !live

let stop_all () = List.iter stop !live

(* Stop every daemon on any way out of the process: normal exit, an
   uncaught exception, or SIGINT/SIGTERM. A client write to a dead
   daemon must fail with EPIPE, not kill the client. *)
let install_cleanup () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit stop_all;
  let on_signal _ = stop_all (); exit 130 in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
