(* Tests of the benchmark's own code: the traced run's gap fold and the
   output checks that feed [failed]. *)

open Perfbench
module Event = Darco_obs.Event

let region_exec =
  Event.Region_exec
    { pc = 0x1000; guest_bb = 3; guest_sb = 4; host_bb = 10; host_sb = 20;
      chains_followed = 0; wasted_host = 0 }

let sb = Event.Sb_translated { pc = 0x2000; guest_len = 7; host_len = 30; cost = 1; unrolled = false }

(* One event of every kind the fold distinguishes, with the layer it must
   close. *)
let cases =
  [ (Event.Init { cost = 1 }, Gapfold.Controller);
    (Event.Slice_start, Gapfold.Controller);
    (Event.Interp_block { pc = 0x1000; insns = 5; cost = 1 }, Gapfold.Interp);
    (Event.Interp_exec { pc = 0x1000; cost = 1 }, Gapfold.Interp);
    (Event.Bb_translated { pc = 0x1000; guest_len = 5; host_len = 12; cost = 1 }, Gapfold.Bb);
    (sb, Gapfold.Sb);
    (region_exec, Gapfold.Exec);
    (Event.Chain_made { pc = 0x1000 }, Gapfold.Other);
    (Event.Slice_end { stop = Event.St_page_fault; overheads = [] }, Gapfold.Other);
    (Event.Page_install { index = 3 }, Gapfold.Controller);
    (Event.Validation { kind = Event.V_syscall }, Gapfold.Controller);
    (Event.Syscall { eip = 0x1000; cost = 1 }, Gapfold.Controller);
    (Event.Halt, Gapfold.Controller) ]

let test_each_interval_one_layer () =
  List.iter
    (fun (ev, layer) ->
      let g = Gapfold.create () in
      Gapfold.start g ~label:"p" ~now:100;
      Gapfold.event g ~now:130 ev;
      List.iter
        (fun l ->
          Alcotest.(check int)
            (Printf.sprintf "%s charged to %s" (Event.name ev) (Gapfold.name l))
            (if l = layer then 30 else 0)
            g.self_ns.(Gapfold.index l))
        Gapfold.layers)
    cases

let test_layers_sum_to_wall () =
  let rng = Random.State.make [| 12 |] in
  let g = Gapfold.create () in
  let now = ref 1_000 and wall = ref 0 in
  for prog = 0 to 4 do
    let t0 = !now in
    Gapfold.start g ~label:(Printf.sprintf "p%d" prog) ~now:t0;
    for _ = 1 to 200 do
      now := !now + Random.State.int rng 50;
      let ev, _ = List.nth cases (Random.State.int rng (List.length cases)) in
      Gapfold.event g ~now:!now ev
    done;
    now := !now + 7;
    Gapfold.stop g ~now:!now;
    wall := !wall + (!now - t0);
    (* time between programs belongs to no one *)
    now := !now + 1_000
  done;
  Alcotest.(check int) "layers plus other equal traced wall time" !wall (Gapfold.wall_ns g);
  let span_total = ref 0 in
  for k = 0 to g.n_spans - 1 do
    span_total := !span_total + (g.spans.((4 * k) + 3) - g.spans.((4 * k) + 2))
  done;
  Alcotest.(check int) "spans tile the traced wall time" !wall !span_total

let test_counts () =
  let g = Gapfold.create () in
  Gapfold.start g ~label:"p" ~now:0;
  List.iteri (fun i ev -> Gapfold.event g ~now:(i + 1) ev) [ sb; region_exec; sb ];
  Alcotest.(check int) "superblocks" 2 g.sb_count;
  Alcotest.(check int) "superblock guest insns" 14 g.sb_guest_insns;
  Alcotest.(check int) "host insns executed" 30 g.exec_host_insns;
  Alcotest.(check (list (pair int int))) "heads, newest first" [ (0, 0x2000); (0, 0x2000) ] g.sb_heads

let run name stats =
  let entry = Darco_workloads.Registry.find name in
  { Suites.prog = { entry; program = entry.build () }; insns = 1; host_insns = 1;
    wall_ns = 1; stats; ok = true }

let test_altered_digest_fails () =
  let pass = [ run "429.mcf" "429.mcf:1,2,3"; run "470.lbm" "470.lbm:4,5,6" ] in
  let altered = [ run "429.mcf" "429.mcf:1,2,3"; run "470.lbm" "470.lbm:4,5,7" ] in
  let ck = Outcome.create () in
  Outcome.same ck "digest" ~expected:(Suites.digest pass) ~got:(Suites.digest pass);
  Alcotest.(check int) "identical passes do not fail" 0 ck.failed;
  Outcome.same ck "digest" ~expected:(Suites.digest pass) ~got:(Suites.digest altered);
  Alcotest.(check int) "an altered statistic fails" 1 ck.failed;
  Alcotest.(check (float 1e-12)) "failed_frac" 0.5 (Outcome.failed_frac ck)

let test_altered_document_fails () =
  let doc = {|{"benchmark":"429.mcf","rows":[{"offset":30000,"ipc":0.71}]}|} in
  let altered = String.map (fun c -> if c = '7' then '8' else c) doc in
  let ck = Outcome.create () in
  Outcome.same ck "resubmitted document" ~expected:doc ~got:doc;
  Outcome.same ck "serial document" ~expected:doc ~got:altered;
  Outcome.record ck ~ok:false "a diverged run";
  Alcotest.(check int) "attempted" 3 ck.attempted;
  Alcotest.(check int) "failed" 2 ck.failed;
  Alcotest.(check (float 1e-12)) "failed_frac" (2. /. 3.) (Outcome.failed_frac ck)

let () =
  Alcotest.run "perfbench"
    [ ( "gapfold",
        [ Alcotest.test_case "each interval goes to one layer" `Quick test_each_interval_one_layer;
          Alcotest.test_case "layers sum to traced wall time" `Quick test_layers_sum_to_wall;
          Alcotest.test_case "counts at the boundaries" `Quick test_counts ] );
      ( "outcome",
        [ Alcotest.test_case "altered digest counts as failed" `Quick test_altered_digest_fails;
          Alcotest.test_case "altered document counts as failed" `Quick test_altered_document_fails ] ) ]
