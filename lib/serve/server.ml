type config = { host : string; port : int; max_queue : int }

let default_config = { host = "127.0.0.1"; port = 8080; max_queue = 64 }

(* seconds to wait for a request head *)
let read_timeout = 2.0

type stats = {
  served : int;
  inline_served : int;
  rejected : int;
  read_errors : int;
  write_errors : int;
  batches : int;
  max_batch : int;
}

type state = {
  service : Service.t;
  cfg : config;
  stop : bool Atomic.t;
  mutable queue : (Unix.file_descr * Http.request) list;  (* newest first *)
  mutable served : int;
  mutable inline_served : int;
  mutable rejected : int;
  mutable read_errors : int;
  mutable write_errors : int;
  mutable batches : int;
  mutable max_batch : int;
}

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* every response leaves through here, as bytes already rendered (or
   stored in the service's cache) *)
let send st fd wire =
  if not (Http.write fd wire) then st.write_errors <- st.write_errors + 1;
  close_quietly fd

let respond st fd resp = send st fd (Http.render resp)

let listener cfg =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen fd 128;
     Unix.set_nonblock fd
   with e ->
     close_quietly fd;
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  (fd, port)

let metrics_extra st =
  [
    ("aladin_serve_queue_depth", float_of_int (List.length st.queue));
    ("aladin_serve_queue_capacity", float_of_int st.cfg.max_queue);
    ("aladin_serve_admitted_total", float_of_int st.served);
    ("aladin_serve_rejected_total", float_of_int st.rejected);
    ("aladin_serve_read_errors_total", float_of_int st.read_errors);
    ("aladin_serve_write_errors_total", float_of_int st.write_errors);
    ("aladin_serve_batches_total", float_of_int st.batches);
  ]

(* one accepted connection: read its request and either answer inline
   (health, metrics, parse failures, backpressure) or admit it *)
let admit st conn =
  Unix.clear_nonblock conn;
  (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO read_timeout
   with Unix.Unix_error _ -> ());
  match Http.read_request conn with
  | Error msg ->
      st.read_errors <- st.read_errors + 1;
      st.inline_served <- st.inline_served + 1;
      respond st conn (Http.response 400 (msg ^ "\n"))
  | Ok req -> (
      match req.Http.path with
      | "/healthz" ->
          st.inline_served <- st.inline_served + 1;
          respond st conn (Http.response 200 "ok\n")
      | "/metrics" ->
          st.inline_served <- st.inline_served + 1;
          respond st conn
            (Http.response 200
               (Service.metrics_text ~extra:(metrics_extra st) st.service))
      | _ ->
          if List.length st.queue >= st.cfg.max_queue then begin
            st.rejected <- st.rejected + 1;
            respond st conn
              (Http.response 503
                 ~headers:[ ("retry-after", "1") ]
                 "server busy, retry shortly\n")
          end
          else st.queue <- (conn, req) :: st.queue)

(* drain the listener's pending connections without blocking *)
let rec accept_burst st lfd =
  if Atomic.get st.stop then ()
  else
    match Unix.accept ~cloexec:true lfd with
    | conn, _ ->
        admit st conn;
        accept_burst st lfd
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> accept_burst st lfd
    | exception Unix.Unix_error (ECONNABORTED, _, _) -> accept_burst st lfd

let run_batch st =
  match List.rev st.queue with
  | [] -> ()
  | admitted ->
      st.queue <- [];
      st.batches <- st.batches + 1;
      st.max_batch <- max st.max_batch (List.length admitted);
      let wires = Service.render_batch st.service (List.map snd admitted) in
      List.iter2
        (fun (fd, _) wire ->
          st.served <- st.served + 1;
          send st fd wire)
        admitted wires

let wait_readable fd seconds =
  match Unix.select [ fd ] [] [] seconds with
  | [], _, _ -> false
  | _ -> true
  | exception Unix.Unix_error (EINTR, _, _) -> false

let run ?(config = default_config) ?stop ?on_ready service =
  let stop = match stop with Some s -> s | None -> Atomic.make false in
  let st =
    {
      service;
      cfg = config;
      stop;
      queue = [];
      served = 0;
      inline_served = 0;
      rejected = 0;
      read_errors = 0;
      write_errors = 0;
      batches = 0;
      max_batch = 0;
    }
  in
  let lfd, port = listener config in
  let previous =
    List.map
      (fun s -> (s, Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true))))
      [ Sys.sigint; Sys.sigterm ]
  in
  (* a response mid-write must not kill the server when the peer hangs up *)
  let prev_pipe = try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None in
  Fun.protect
    ~finally:(fun () ->
      close_quietly lfd;
      List.iter (fun (s, b) -> try Sys.set_signal s b with Invalid_argument _ -> ()) previous;
      match prev_pipe with
      | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
      | None -> ())
    (fun () ->
      (match on_ready with Some f -> f port | None -> ());
      while not (Atomic.get st.stop) do
        if wait_readable lfd 0.05 then accept_burst st lfd;
        run_batch st
      done;
      (* graceful drain: everything already admitted still gets served *)
      run_batch st;
      {
        served = st.served;
        inline_served = st.inline_served;
        rejected = st.rejected;
        read_errors = st.read_errors;
        write_errors = st.write_errors;
        batches = st.batches;
        max_batch = st.max_batch;
      })
