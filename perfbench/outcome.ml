(* Operation accounting: every run, digest comparison and document
   comparison is one attempted operation; the ones that diverge, fail or
   disagree are failed.  [failed_frac] is [failed / attempted]. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (* newest first *)
}

let create () = { attempted = 0; failed = 0; failures = [] }

let record t ~ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    t.failures <- what :: t.failures;
    prerr_endline ("perfbench: FAILED " ^ what)
  end

(* An output that must repeat byte for byte: a statistics digest across
   passes, or a sweep document across the cold, resubmitted and
   in-process paths. *)
let same t what ~expected ~got =
  record t ~ok:(String.equal expected got)
    (Printf.sprintf "%s: expected digest %s, got %s" what
       (Digest.to_hex (Digest.string expected))
       (Digest.to_hex (Digest.string got)))

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted
