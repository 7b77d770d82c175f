(* seconds that bound the connect and each read *)
let timeout = 10.0

let request ?(host = "127.0.0.1") ~port target =
  match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | fd -> (
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          try
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
            Unix.connect fd
              (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
            let req =
              Printf.sprintf "GET %s HTTP/1.1\r\nhost: %s:%d\r\nconnection: close\r\n\r\n"
                target host port
            in
            if Http.write fd req then Http.read_response fd
            else Error "connection lost while sending the request"
          with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)))
