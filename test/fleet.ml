(* The [--backend local:J] fleet for the test suites: J loopback workers
   run by the darco CLI built beside the test executables,
   <build>/default/{test,bin}/ (test/dune depends on it). *)

let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/darco_cli.exe"

let backend ?store jobs =
  Darco_dispatch.backend ?store ~exe
    (Darco_dispatch.Local { jobs; timeout = 60.0; retries = 2 })

(* True when this process has no child left, running or unreaped: every
   fleet worker it started has been stopped and reaped. *)
let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false
