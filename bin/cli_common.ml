(* Shared flag specs, exit codes and warehouse/engine construction for
   every aladin subcommand, so flags spell and behave identically across
   the CLI.

   Exit codes (uniform across subcommands):
     0  success
     1  degraded — the operation completed but something was skipped,
        salvaged, quarantined or over budget, and --strict was given
     2  error — bad input, missing object, parse failure, I/O error
     3  killed — an armed chaos fault (a --chaos-kill flag) fired; the
        journal, if any, is left for [integrate --resume]
   (Cmdliner additionally uses 124/125 for command-line parse errors.)

   --strict, everywhere it appears, means the same thing: "a merely
   degraded outcome is a failure"; without it degradation is reported
   on stderr/stdout but exits 0. *)

open Cmdliner
open Aladin
module Import_error = Aladin_resilience.Import_error

let exit_ok = 0
let exit_degraded = 1
let exit_error = 2
let exit_killed = 3

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit exit_error)
    fmt

let degraded fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit exit_degraded)
    fmt

(* --- shared flag specs --- *)

let config_arg =
  Arg.(value & opt (some file) None & info [ "config" ] ~docv:"CONF"
         ~doc:"Load pipeline tunables from a key = value file (see Config).")

let paths_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"Source files or dump directories.")

let trace_file_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the pipeline execution trace to $(docv) as JSON.")

let strict_arg =
  Arg.(value & flag & info [ "strict" ]
         ~doc:"Treat a degraded outcome (anything skipped, salvaged, \
               quarantined or over budget) as failure: exit 1 instead of 0.")

let source_arg =
  Arg.(value & opt (some string) None & info [ "s"; "source" ] ~docv:"SRC"
         ~doc:"Restrict to one source.")

let port_arg =
  Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT"
         ~doc:"TCP port (0 picks a free one and prints it).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Address to bind or connect to.")

(* --- config / import --- *)

let load_config = function
  | Some path -> (
      match Config.of_file path with
      | Ok c -> c
      | Error msg -> die "aladin: %s" msg)
  | None -> Config.default

(* strict import for the single-source and access commands: any import
   problem aborts, recovered record errors are only warned about *)
let import_or_die path =
  match Aladin_system.import_file path with
  | Ok (im : Aladin_formats.Import.import) ->
      List.iter
        (fun e ->
          Printf.eprintf "aladin: warning: %s: %s\n" path
            (Import_error.record_error_to_string e))
        im.record_errors;
      im.catalog
  | Error err -> die "aladin: %s" (Import_error.to_string err)

let with_trace_file file f =
  match file with
  | None -> f None
  | Some path ->
      let tr = Aladin_obs.Trace.create ~name:"aladin" () in
      let v = f (Some tr) in
      Aladin_obs.Sink.write_json tr path;
      Printf.printf "trace written to %s\n" path;
      v

(* --- warehouse / engine construction --- *)

let build_warehouse ?config ?trace paths =
  let config = load_config config in
  Warehouse.integrate ~config ?trace (List.map import_or_die paths)

let build_engine ?config ?trace paths =
  Engine.create (build_warehouse ?config ?trace paths)
