open Darco
open Darco_obs

(* The observability layer: the event bus must be invisible when nothing
   listens, and when the aggregator listens it must rebuild the exact
   Stats.t the core maintains directly. *)

let workloads = [ "401.bzip2"; "429.mcf"; "458.sjeng" ]
let max_insns = 120_000

let run_with_bus ?(attach = fun _ -> ()) name =
  let e = Darco_workloads.Registry.find name in
  let bus = Bus.create () in
  attach bus;
  let ctl = Controller.create ~bus ~seed:42 (e.build ()) in
  ignore (Controller.run ~max_insns ctl);
  (ctl, bus)

(* --- Jsonx: the hand-rolled JSON printer/parser ------------------------- *)

let test_jsonx_roundtrip () =
  let samples =
    [
      Jsonx.Null;
      Jsonx.Bool true;
      Jsonx.Int (-42);
      Jsonx.Float 3.5;
      Jsonx.String "with \"quotes\", \\ and \n control";
      Jsonx.List [ Jsonx.Int 1; Jsonx.Null; Jsonx.String "x" ];
      Jsonx.Obj
        [
          ("at", Jsonx.Int 17);
          ("ev", Jsonx.String "slice_end");
          ("nested", Jsonx.Obj [ ("empty", Jsonx.List []) ]);
        ];
    ]
  in
  List.iter
    (fun j ->
      let s = Jsonx.to_string j in
      Alcotest.(check bool) ("roundtrip " ^ s) true (Jsonx.parse s = j))
    samples

(* --- Jsonx: property-based round-trip ----------------------------------- *)

(* Two deliberate asymmetries in the printer/parser pair:
   - an integer-valued float >= 1e15 prints via %.17g without a decimal
     point, so it parses back as [Int];
   - the parser folds numerically-equal floats (e.g. -0.0 vs 0.0).
   Semantic equality accepts exactly those coercions and nothing else. *)
let rec jsonx_sem_eq a b =
  match (a, b) with
  | Jsonx.Float x, Jsonx.Float y -> x = y
  | Jsonx.Int i, Jsonx.Float f | Jsonx.Float f, Jsonx.Int i ->
    Float.is_integer f && Float.abs f < 4e18 && int_of_float f = i
  | Jsonx.List xs, Jsonx.List ys ->
    List.length xs = List.length ys && List.for_all2 jsonx_sem_eq xs ys
  | Jsonx.Obj xs, Jsonx.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && jsonx_sem_eq v1 v2)
         xs ys
  | _ -> a = b

let gen_jsonx =
  let open QCheck.Gen in
  (* full ASCII, including the control characters that print as \u escapes
     and the quote/backslash/newline family with dedicated escapes *)
  let ascii_string = string_size ~gen:(map Char.chr (int_range 0 127)) (int_range 0 12) in
  let edge_floats =
    [
      0.0; -0.0; 1.0; -1.0; 0.1; -0.5; Float.pi; 1e-300; 1.5e300; max_float;
      min_float; 4.94e-324 (* subnormal *); 1e15 (* %.1f/%.17g boundary *);
      1e16; 9007199254740992.0 (* 2^53 *); 0.30000000000000004;
    ]
  in
  let finite f = if Float.is_finite f then f else 0.0 in
  let leaf =
    oneof
      [
        return Jsonx.Null;
        map (fun b -> Jsonx.Bool b) bool;
        map (fun i -> Jsonx.Int i) int;
        map (fun f -> Jsonx.Float f) (oneof [ oneofl edge_floats; map finite float ]);
        map (fun s -> Jsonx.String s) ascii_string;
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Jsonx.List l) (list_size (int_range 0 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Jsonx.Obj kvs)
                   (list_size (int_range 0 4) (pair ascii_string (self (n / 2)))) );
             ])

let arb_jsonx = QCheck.make ~print:Jsonx.to_string gen_jsonx

let prop_jsonx_roundtrip =
  QCheck.Test.make ~name:"parse (to_string j) = j up to Int/Float coercion"
    ~count:500 arb_jsonx (fun j -> jsonx_sem_eq (Jsonx.parse (Jsonx.to_string j)) j)

(* Strings must round-trip byte-exactly, whatever needed escaping. *)
let prop_jsonx_string_exact =
  QCheck.Test.make ~name:"escaped strings round-trip byte-exactly" ~count:500
    QCheck.(string_gen_of_size Gen.(int_range 0 64) Gen.(map Char.chr (int_range 0 127)))
    (fun s -> Jsonx.parse (Jsonx.to_string (Jsonx.String s)) = Jsonx.String s)

(* Printing is a fixpoint after one parse: print . parse . print = print. *)
let prop_jsonx_print_stable =
  QCheck.Test.make ~name:"to_string stable across a parse round" ~count:500
    arb_jsonx (fun j ->
      let s = Jsonx.to_string j in
      String.equal (Jsonx.to_string (Jsonx.parse s)) s)

let test_jsonx_parse_errors () =
  List.iter
    (fun s ->
      match Jsonx.parse s with
      | exception Jsonx.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error on %S" s)
    [ ""; "{"; "[1,]"; "\"unterminated"; "truely" ]

(* --- aggregator exactness ----------------------------------------------- *)

let render stats = Format.asprintf "%a" Stats.pp_summary stats

let test_aggregator_matches name () =
  let agg = ref (Stats.create ()) in
  let ctl, _bus = run_with_bus ~attach:(fun bus -> agg := Agg.attach bus) name in
  let direct = Controller.stats ctl in
  if not (Stats.equal direct !agg) then
    Alcotest.failf "aggregator drift on %s:\ndirect:\n%s\naggregated:\n%s" name
      (render direct) (render !agg);
  Alcotest.(check string) "pp_summary identical" (render direct) (render !agg)

(* --- trace sink: every JSONL line parses back --------------------------- *)

let get_int key j =
  match Option.bind (Jsonx.member key j) Jsonx.to_int with
  | Some n -> n
  | None -> Alcotest.failf "missing int field %S" key

let get_str key j =
  match Option.bind (Jsonx.member key j) Jsonx.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %S" key

let test_trace_jsonl () =
  let path = Filename.temp_file "darco_trace" ".jsonl" in
  let oc = ref stdout in
  let ctl, _bus =
    run_with_bus ~attach:(fun bus -> oc := Trace.attach_file bus path) "429.mcf"
  in
  close_out !oc;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       let j = Jsonx.parse line in
       let at = get_int "at" j in
       let ev = get_str "ev" j in
       if at < 0 || String.length ev = 0 then
         Alcotest.failf "bad trace record: %s" line
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "trace non-empty" true (!lines > 0);
  Alcotest.(check bool) "run retired instructions" true
    (Stats.guest_total (Controller.stats ctl) > 0)

(* --- silent bus: no sinks must not change execution --------------------- *)

let test_no_sink_identical () =
  let quiet, qbus = run_with_bus "401.bzip2" in
  Alcotest.(check bool) "bus stays inactive" false (Bus.active qbus);
  let observed, _ =
    run_with_bus ~attach:(fun bus -> ignore (Agg.attach bus)) "401.bzip2"
  in
  let sq = Controller.stats quiet and so = Controller.stats observed in
  Alcotest.(check int) "same guest_total" (Stats.guest_total sq)
    (Stats.guest_total so);
  Alcotest.(check bool) "identical counters" true (Stats.equal sq so)

(* --- one retire subscriber per bus --------------------------------------- *)

let test_one_retire_subscriber () =
  let bus = Bus.create () in
  Alcotest.(check bool) "none yet" true (Option.is_none (Bus.retire_hook bus));
  Bus.on_retire bus ignore;
  (match Bus.retire_hook bus with
  | Some sub ->
    Alcotest.(check int) "default descriptor" 0 (sub.describe Darco_host.Code.Nop);
    Alcotest.(check int) "batch starts empty" 0 sub.batch.length
  | None -> Alcotest.fail "subscription lost");
  match Bus.on_retire bus ~describe:(fun _ -> 1) ignore with
  | () -> Alcotest.fail "a second subscriber was accepted"
  | exception Invalid_argument _ -> ()

(* --- metrics snapshot parses back with consistent totals ---------------- *)

let test_metrics_json () =
  let ctl, _ = run_with_bus "458.sjeng" in
  let s = Controller.stats ctl in
  let j = Jsonx.parse (Metrics.to_string s) in
  let section name =
    match Jsonx.member name j with
    | Some sub -> sub
    | None -> Alcotest.failf "missing section %S" name
  in
  Alcotest.(check int) "guest total" (Stats.guest_total s)
    (get_int "total" (section "guest"));
  Alcotest.(check int) "overhead total" (Stats.total_overhead s)
    (get_int "total" (section "overhead"))

(* --- the event schema, exhaustively ------------------------------------- *)

(* Total match, no wildcard: adding a constructor fails compilation here
   until a sample below covers it, so the JSONL/trace schema cannot grow
   an untested case. *)
let constructor_index : Event.t -> int = function
  | Event.Init _ -> 0
  | Event.Clock_sync _ -> 1
  | Event.Slice_start -> 2
  | Event.Slice_end _ -> 3
  | Event.Interp_block _ -> 4
  | Event.Interp_step _ -> 5
  | Event.Interp_exec _ -> 6
  | Event.Bb_translated _ -> 7
  | Event.Sb_translated _ -> 8
  | Event.Region_exec _ -> 9
  | Event.Chain_made _ -> 10
  | Event.Ibtc_miss _ -> 11
  | Event.Ibtc_fill _ -> 12
  | Event.Rollback _ -> 13
  | Event.Deopt_rebuild _ -> 14
  | Event.Cache_flush _ -> 15
  | Event.Page_install _ -> 16
  | Event.Syscall _ -> 17
  | Event.Validation _ -> 18
  | Event.Divergence _ -> 19
  | Event.Halt -> 20
  | Event.Worker_up _ -> 21
  | Event.Worker_lost _ -> 22
  | Event.Dispatch_sent _ -> 23
  | Event.Dispatch_done _ -> 24
  | Event.Dispatch_retry _ -> 25
  | Event.Dispatch_fallback _ -> 26
  | Event.Ckpt_push _ -> 27
  | Event.Ckpt_hit _ -> 28
  | Event.Steal _ -> 29
  | Event.Dispatch_inflight _ -> 30
  | Event.Span_begin _ -> 31
  | Event.Span_end _ -> 32
  | Event.Submit _ -> 33
  | Event.Admit _ -> 34
  | Event.Artifact_hit _ -> 35
  | Event.Artifact_store _ -> 36
  | Event.Store_evict _ -> 37
  | Event.Plan_round _ -> 38
  | Event.Plan_predict _ -> 39
  | Event.Plan_stop _ -> 40
  | Event.Straggler _ -> 41

let n_constructors = 42

(* One sample per constructor: (event, stable name, exact JSON at at=5).
   These strings are the on-disk trace format — changing one is a schema
   break and must be deliberate. *)
let event_samples =
  [
    (Event.Init { cost = 3 }, "init", {|{"at":5,"ev":"init","cost":3}|});
    ( Event.Clock_sync { retired = 7 },
      "clock_sync",
      {|{"at":5,"ev":"clock_sync","retired":7}|} );
    (Event.Slice_start, "slice_start", {|{"at":5,"ev":"slice_start"}|});
    ( Event.Slice_end
        {
          stop = Event.St_syscall;
          overheads = [ (Stats.Ov_interp, 2); (Stats.Ov_other, 1) ];
        },
      "slice_end",
      {|{"at":5,"ev":"slice_end","stop":"syscall","overheads":{"interpreter":2,"other":1}}|}
    );
    ( Event.Interp_block { pc = 16; insns = 4; cost = 9 },
      "interp_block",
      {|{"at":5,"ev":"interp_block","pc":16,"insns":4,"cost":9}|} );
    ( Event.Interp_step { pc = 16; cost = 2 },
      "interp_step",
      {|{"at":5,"ev":"interp_step","pc":16,"cost":2}|} );
    ( Event.Interp_exec { pc = 16; cost = 2 },
      "interp_exec",
      {|{"at":5,"ev":"interp_exec","pc":16,"cost":2}|} );
    ( Event.Bb_translated { pc = 16; guest_len = 3; host_len = 6; cost = 40 },
      "bb_translated",
      {|{"at":5,"ev":"bb_translated","pc":16,"guest_len":3,"host_len":6,"cost":40}|}
    );
    ( Event.Sb_translated
        { pc = 16; guest_len = 3; host_len = 6; cost = 40; unrolled = true },
      "sb_translated",
      {|{"at":5,"ev":"sb_translated","pc":16,"guest_len":3,"host_len":6,"cost":40,"unrolled":true}|}
    );
    ( Event.Region_exec
        {
          pc = 16;
          guest_bb = 1;
          guest_sb = 2;
          host_bb = 3;
          host_sb = 4;
          chains_followed = 5;
          wasted_host = 6;
        },
      "region_exec",
      {|{"at":5,"ev":"region_exec","pc":16,"guest_bb":1,"guest_sb":2,"host_bb":3,"host_sb":4,"chains_followed":5,"wasted_host":6}|}
    );
    ( Event.Chain_made { pc = 16 },
      "chain_made",
      {|{"at":5,"ev":"chain_made","pc":16}|} );
    (Event.Ibtc_miss { pc = 16 }, "ibtc_miss", {|{"at":5,"ev":"ibtc_miss","pc":16}|});
    (Event.Ibtc_fill { pc = 16 }, "ibtc_fill", {|{"at":5,"ev":"ibtc_fill","pc":16}|});
    ( Event.Rollback { kind = Event.Rb_assert; pc = 16 },
      "rollback",
      {|{"at":5,"ev":"rollback","kind":"assert","pc":16}|} );
    ( Event.Deopt_rebuild { kind = Event.De_nomem; pc = 16 },
      "deopt_rebuild",
      {|{"at":5,"ev":"deopt_rebuild","kind":"nomem","pc":16}|} );
    ( Event.Cache_flush { regions = 2; host_insns = 90 },
      "cache_flush",
      {|{"at":5,"ev":"cache_flush","regions":2,"host_insns":90}|} );
    ( Event.Page_install { index = 3 },
      "page_install",
      {|{"at":5,"ev":"page_install","page":3}|} );
    ( Event.Syscall { eip = 16; cost = 75 },
      "syscall",
      {|{"at":5,"ev":"syscall","eip":16,"cost":75}|} );
    ( Event.Validation { kind = Event.V_halt },
      "validation",
      {|{"at":5,"ev":"validation","kind":"halt"}|} );
    ( Event.Divergence { details = [ "a"; "b" ] },
      "divergence",
      {|{"at":5,"ev":"divergence","details":["a","b"]}|} );
    (Event.Halt, "halt", {|{"at":5,"ev":"halt"}|});
    ( Event.Worker_up { worker = "w:1" },
      "worker_up",
      {|{"at":5,"ev":"worker_up","worker":"w:1"}|} );
    ( Event.Worker_lost { worker = "w:1"; reason = "gone" },
      "worker_lost",
      {|{"at":5,"ev":"worker_lost","worker":"w:1","reason":"gone"}|} );
    ( Event.Dispatch_sent
        { unit_label = "u"; worker = "w:1"; attempt = 1; bytes = 128 },
      "dispatch_sent",
      {|{"at":5,"ev":"dispatch_sent","unit":"u","worker":"w:1","attempt":1,"bytes":128}|}
    );
    ( Event.Dispatch_done { unit_label = "u"; worker = "w:1"; ok = true },
      "dispatch_done",
      {|{"at":5,"ev":"dispatch_done","unit":"u","worker":"w:1","ok":true}|} );
    ( Event.Dispatch_retry { unit_label = "u"; attempt = 2; delay = 0.5 },
      "dispatch_retry",
      {|{"at":5,"ev":"dispatch_retry","unit":"u","attempt":2,"delay":0.5}|} );
    ( Event.Dispatch_fallback { reason = "r" },
      "dispatch_fallback",
      {|{"at":5,"ev":"dispatch_fallback","reason":"r"}|} );
    ( Event.Ckpt_push { worker = "w:1"; digest = "abcd"; bytes = 9 },
      "ckpt_push",
      {|{"at":5,"ev":"ckpt_push","worker":"w:1","digest":"abcd","bytes":9}|} );
    ( Event.Ckpt_hit { worker = "w:1"; digest = "abcd" },
      "ckpt_hit",
      {|{"at":5,"ev":"ckpt_hit","worker":"w:1","digest":"abcd"}|} );
    ( Event.Steal { unit_label = "u"; from_worker = "a"; to_worker = "b" },
      "steal",
      {|{"at":5,"ev":"steal","unit":"u","from":"a","to":"b"}|} );
    ( Event.Dispatch_inflight { worker = "w:1"; in_flight = 2 },
      "dispatch_inflight",
      {|{"at":5,"ev":"dispatch_inflight","worker":"w:1","in_flight":2}|} );
    ( Event.Span_begin
        {
          span = "queued";
          corr = 3;
          host = "dispatcher";
          wall_us = 99;
          seq = 4;
          detail = "d";
        },
      "span_begin",
      {|{"at":5,"ev":"span_begin","span":"queued","corr":3,"host":"dispatcher","wall_us":99,"seq":4,"detail":"d"}|}
    );
    ( Event.Span_end
        {
          span = "queued";
          corr = 3;
          host = "dispatcher";
          wall_us = 99;
          seq = 4;
          ok = false;
        },
      "span_end",
      {|{"at":5,"ev":"span_end","span":"queued","corr":3,"host":"dispatcher","wall_us":99,"seq":4,"ok":false}|}
    );
    ( Event.Submit
        { client = "c:1"; submission = 2; benchmark = "429.mcf"; units = 3 },
      "submit",
      {|{"at":5,"ev":"submit","client":"c:1","submission":2,"benchmark":"429.mcf","units":3}|}
    );
    ( Event.Admit { submission = 2; units = 2; credit = 4 },
      "admit",
      {|{"at":5,"ev":"admit","submission":2,"units":2,"credit":4}|} );
    ( Event.Artifact_hit { key = "k" },
      "artifact_hit",
      {|{"at":5,"ev":"artifact_hit","key":"k"}|} );
    ( Event.Artifact_store { key = "k"; bytes = 64 },
      "artifact_store",
      {|{"at":5,"ev":"artifact_store","key":"k","bytes":64}|} );
    ( Event.Store_evict { digest = "abcd"; bytes = 512 },
      "store_evict",
      {|{"at":5,"ev":"store_evict","digest":"abcd","bytes":512}|} );
    ( Event.Plan_round { round = 2; chosen = 4; completed = 8; mean = 0.75; ci95 = 0.125 },
      "plan_round",
      {|{"at":5,"ev":"plan_round","round":2,"chosen":4,"completed":8,"mean":0.75,"ci95":0.125}|}
    );
    ( Event.Plan_predict { offset = 4096; phase = 16; ipc = 0.5 },
      "plan_predict",
      {|{"at":5,"ev":"plan_predict","offset":4096,"phase":16,"ipc":0.5}|} );
    ( Event.Plan_stop { reason = "ci_target"; windows = 12; mean = 0.75; ci95 = 0.0625 },
      "plan_stop",
      {|{"at":5,"ev":"plan_stop","reason":"ci_target","windows":12,"mean":0.75,"ci95":0.0625}|}
    );
    ( Event.Straggler { worker = "w:1"; ratio_pct = 240 },
      "straggler",
      {|{"at":5,"ev":"straggler","worker":"w:1","ratio_pct":240}|} );
  ]

let test_event_schema () =
  List.iter
    (fun (ev, expect_name, expect_json) ->
      Alcotest.(check string) ("name of " ^ expect_name) expect_name (Event.name ev);
      Alcotest.(check string)
        ("json of " ^ expect_name)
        expect_json
        (Jsonx.to_string (Event.to_json ~at:5 ev)))
    event_samples;
  (* the sample list covers every constructor exactly once *)
  let covered =
    List.sort_uniq compare
      (List.map (fun (ev, _, _) -> constructor_index ev) event_samples)
  in
  Alcotest.(check (list int))
    "all constructors sampled"
    (List.init n_constructors Fun.id)
    covered

(* --- clocks -------------------------------------------------------------- *)

let test_clock_monotonic () =
  let prev = ref (Clock.ticks ()) in
  for _ = 1 to 10_000 do
    let t = Clock.ticks () in
    if t <= !prev then
      Alcotest.failf "ticks went %d -> %d (must be strictly increasing)" !prev t;
    prev := t
  done

let test_clock_stamp () =
  let a = Clock.stamp () in
  let b = Clock.stamp () in
  Alcotest.(check bool) "seq strictly increases" true (b.Clock.s_seq > a.Clock.s_seq);
  Alcotest.(check bool) "wall stamp is set" true (a.Clock.s_wall_us > 0)

(* --- histograms ---------------------------------------------------------- *)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check int) "p50" 0 (Hist.percentile h 0.5);
  Alcotest.(check int) "min" 0 (Hist.min_value h);
  Alcotest.(check int) "max" 0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Hist.mean h)

let test_hist_percentiles () =
  let h = Hist.create () in
  for v = 1 to 100 do
    Hist.add h v
  done;
  Alcotest.(check int) "count" 100 (Hist.count h);
  Alcotest.(check int) "sum" 5050 (Hist.sum h);
  Alcotest.(check int) "min" 1 (Hist.min_value h);
  Alcotest.(check int) "max" 100 (Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Hist.mean h);
  (* rank 50 lands in bucket [32,63] -> estimate is its upper bound *)
  Alcotest.(check int) "p50 bucket bound" 63 (Hist.percentile h 0.5);
  (* rank 99 lands in [64,127], capped at the exact max *)
  Alcotest.(check int) "p99 capped at max" 100 (Hist.percentile h 0.99)

let test_hist_json () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 0; 1; 2; 3; 1024 ];
  let j = Hist.to_json h in
  Alcotest.(check int) "count" 5 (get_int "count" j);
  Alcotest.(check int) "sum" 1030 (get_int "sum" j);
  match Jsonx.member "buckets" j with
  | Some (Jsonx.List bs) ->
    Alcotest.(check bool) "non-empty buckets only" true
      (List.for_all (fun b -> get_int "n" b > 0) bs);
    (* cumulative bucket counts cover every added value *)
    Alcotest.(check int) "bucket counts total" 5
      (List.fold_left (fun acc b -> acc + get_int "n" b) 0 bs)
  | _ -> Alcotest.fail "missing buckets list"

(* --- spans --------------------------------------------------------------- *)

let test_span_roundtrip () =
  let sps =
    [
      Span.begin_ ~detail:"unit 0" ~span:"queued" ~corr:0 ~host:"worker:h:1" ();
      Span.end_ ~ok:false ~span:"queued" ~corr:0 ~host:"worker:h:1" ();
      Span.begin_ ~span:"running" ~corr:7 ~host:"local" ();
    ]
  in
  Alcotest.(check bool) "encode/decode roundtrip" true
    (Span.decode_list (Span.encode_list sps) = sps);
  List.iter
    (fun sp ->
      match Span.of_event (Span.to_event sp) with
      | Some sp' when sp' = sp -> ()
      | _ -> Alcotest.failf "event roundtrip lost span %S" sp.Span.span)
    sps;
  Alcotest.(check bool) "non-span event maps to None" true
    (Span.of_event Event.Halt = None);
  List.iter
    (fun bad ->
      match Span.decode_list bad with
      | exception Jsonx.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error on %S" bad)
    [ "nonsense"; "[1,2]"; {|{"ev":"span_begin"}|} ]

(* --- hot-region profiler: exact reconciliation with Stats.t -------------- *)

let test_prof_reconciles name () =
  let prof = ref None in
  let ctl, _ = run_with_bus ~attach:(fun bus -> prof := Some (Prof.attach bus)) name in
  let p = Option.get !prof in
  (match Prof.reconciles p (Controller.stats ctl) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profiler drift on %s: %s" name e);
  let top = Prof.top p ~n:5 in
  Alcotest.(check bool) "top bounded" true (List.length top <= 5);
  let heats = List.map (fun r -> r.Prof.r_host + r.Prof.r_overhead) top in
  Alcotest.(check bool) "top is hottest-first" true
    (List.sort (fun a b -> compare b a) heats = heats);
  (* rendering must not raise and must mention the hottest region *)
  let table = Format.asprintf "%a" (Prof.pp_table ~n:5) p in
  Alcotest.(check bool) "table non-empty" true (String.length table > 0)

(* --- metrics registry ---------------------------------------------------- *)

let test_registry_cells () =
  let r = Registry.create () in
  let c = Registry.counter r "reqs_total" in
  Registry.inc c 2;
  Registry.inc (Registry.counter r "reqs_total") 3;
  Alcotest.(check int) "get-or-register returns the same cell" 5
    (Registry.counter_value c);
  let g = Registry.gauge r "depth" in
  Registry.set g 7;
  Registry.set (Registry.gauge r "depth") 9;
  Alcotest.(check int) "gauge set through either handle" 9
    (Registry.gauge_value g);
  (match Registry.gauge r "reqs_total" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash on a name must be rejected");
  (match Registry.counter r "bad name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "names must match the exposition grammar");
  (match Registry.hist r {|lat{worker="w"}|} with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "histograms cannot take labels");
  (* one kind per family, across label sets *)
  let _ = Registry.counter r {|by_code{code="200"}|} in
  match Registry.gauge r {|by_code{code="500"}|} with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "family kind is fixed by the first registration"

(* The exposition text is part of the observable surface: the CI job and
   any Prometheus scraper parse it, so it is pinned byte-for-byte. *)
let exposition_registry () =
  let r = Registry.create () in
  Registry.inc (Registry.counter r "events_total") 5;
  Registry.set (Registry.gauge r {|queue_depth{worker="h:1"}|}) 2;
  let h = Registry.hist r "bytes" in
  List.iter (Registry.observe h) [ 1; 2; 1024 ];
  r

let test_registry_exposition () =
  let expect =
    "# TYPE darco_bytes histogram\n"
    ^ "darco_bytes_bucket{le=\"1\"} 1\n"
    ^ "darco_bytes_bucket{le=\"3\"} 2\n"
    ^ "darco_bytes_bucket{le=\"2047\"} 3\n"
    ^ "darco_bytes_bucket{le=\"+Inf\"} 3\n"
    ^ "darco_bytes_sum 1027\n" ^ "darco_bytes_count 3\n"
    ^ "# TYPE darco_events_total counter\n" ^ "darco_events_total 5\n"
    ^ "# TYPE darco_queue_depth gauge\n"
    ^ "darco_queue_depth{worker=\"h:1\"} 2\n"
  in
  Alcotest.(check string) "exposition golden" expect
    (Registry.exposition (Registry.snapshot (exposition_registry ())))

let test_registry_json_roundtrip () =
  let s = Registry.snapshot (exposition_registry ()) in
  (* through the printer and parser, exactly as METR ships it *)
  match Registry.of_json (Jsonx.parse (Jsonx.to_string (Registry.to_json s))) with
  | Error e -> Alcotest.failf "snapshot did not parse back: %s" e
  | Ok s' ->
    Alcotest.(check string) "snapshot survives the wire"
      (Jsonx.to_string (Registry.to_json s))
      (Jsonx.to_string (Registry.to_json s'));
    Alcotest.(check string) "and renders the same exposition"
      (Registry.exposition s) (Registry.exposition s')

(* The registry folds only the sweep infrastructure: a fresh fold
   registers exactly the service series, and the event samples (one per
   constructor) plus a failed [Dispatch_done] move every one of them, so
   no registered series can sit at 0 forever. *)
let test_registry_service_series () =
  let bus = Bus.create () in
  let r = Registry.attach bus in
  let fresh = Registry.snapshot r in
  Alcotest.(check (list string)) "service counters"
    [
      "admitted_units_total"; "artifact_hits_total"; "artifact_stores_total";
      "ckpt_hits_total"; "ckpt_pushes_total"; "dispatch_done_total";
      "dispatch_failed_total"; "dispatch_fallbacks_total";
      "dispatch_retries_total"; "dispatch_sent_total"; "events_total";
      "plan_rounds_total"; "plan_stops_total"; "steals_total";
      "store_evictions_total"; "submissions_total"; "worker_lost_total";
      "worker_up_total";
    ]
    (List.map fst fresh.counters);
  Alcotest.(check (list string)) "service gauges" [ "straggler_ratio_pct" ]
    (List.map fst fresh.gauges);
  Alcotest.(check (list string)) "service histograms"
    [ "artifact_store_bytes"; "ckpt_push_bytes"; "dispatch_sent_bytes" ]
    (List.map fst fresh.hists);
  List.iter (fun (ev, _, _) -> Bus.emit bus ~at:5 ev) event_samples;
  Bus.emit bus ~at:5
    (Event.Dispatch_done { unit_label = "u"; worker = "w:1"; ok = false });
  let moved = Registry.snapshot r in
  List.iter
    (fun (n, v) ->
      if v = 0 then Alcotest.failf "counter %s never moved" n)
    moved.Registry.counters;
  List.iter
    (fun (n, j) ->
      match Jsonx.member "count" j with
      | Some (Jsonx.Int c) when c > 0 -> ()
      | _ -> Alcotest.failf "histogram %s never observed" n)
    moved.Registry.hists;
  Alcotest.(check int) "one event counted per emit"
    (List.length event_samples + 1)
    (List.assoc "events_total" moved.Registry.counters)

(* --- flight recorder ----------------------------------------------------- *)

let test_recorder_ring () =
  let path = Filename.temp_file "darco_flight" ".jsonl" in
  let bus = Bus.create () in
  let r = Recorder.attach bus ~capacity:3 ~path in
  for i = 1 to 5 do
    Bus.emit bus ~at:i (Event.Chain_made { pc = i })
  done;
  Alcotest.(check bool) "no dump on a healthy run" false (Recorder.dumped r);
  (match Recorder.contents r with
  | [ (3, _); (4, _); (5, _) ] -> ()
  | c -> Alcotest.failf "ring should hold the last 3 events, has %d" (List.length c));
  Bus.emit bus ~at:6 (Event.Divergence { details = [ "boom" ] });
  Alcotest.(check bool) "divergence triggers a dump" true (Recorder.dumped r);
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "dump holds the full ring" 3 (List.length lines);
  List.iter (fun l -> ignore (Jsonx.parse l)) lines;
  Alcotest.(check string) "last line is the divergence" "divergence"
    (get_str "ev" (Jsonx.parse (List.nth lines 2)));
  Alcotest.(check int) "oldest first" 4 (get_int "at" (Jsonx.parse (List.hd lines)))

let test_recorder_capacity () =
  let bus = Bus.create () in
  match Recorder.attach bus ~capacity:0 ~path:"/dev/null" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

(* --- Chrome trace export ------------------------------------------------- *)

let test_chrome_valid () =
  let c = Chrome.create () in
  let feed sp = Chrome.record c ~at:sp.Span.wall_us (Span.to_event sp) in
  feed (Span.begin_ ~detail:"u0" ~span:"queued" ~corr:0 ~host:"dispatcher" ());
  feed (Span.begin_ ~span:"running" ~corr:0 ~host:"worker:h:1" ());
  feed (Span.end_ ~span:"running" ~corr:0 ~host:"worker:h:1" ());
  feed (Span.end_ ~span:"queued" ~corr:0 ~host:"dispatcher" ());
  Chrome.record c ~at:123 (Event.Worker_up { worker = "h:1" });
  (match Chrome.validate (Chrome.to_json c) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "collector output invalid: %s" e);
  let path = Filename.temp_file "darco_chrome" ".json" in
  Chrome.write_file c path;
  (match Chrome.validate_file path with
  | Ok () -> ()
  | Error e -> Alcotest.failf "written file invalid: %s" e);
  Sys.remove path

let test_chrome_rejects_unclosed () =
  let c = Chrome.create () in
  Chrome.record c ~at:1
    (Span.to_event (Span.begin_ ~span:"queued" ~corr:0 ~host:"dispatcher" ()));
  (match Chrome.validate (Chrome.to_json c) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unclosed B span must not validate");
  List.iter
    (fun bad ->
      match Chrome.validate (Jsonx.parse bad) with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "must reject %s" bad)
    [
      {|{"no_trace_events":1}|};
      {|{"traceEvents":[{"ph":"B"}]}|};
      {|{"traceEvents":[{"name":"x","ph":"B","ts":1,"pid":1,"tid":1},{"name":"y","ph":"E","ts":2,"pid":1,"tid":1}]}|};
    ]

(* One event of every instant kind, at fixed stamps, plus one the
   collector ignores: the rendered document is pinned byte for byte, so
   each instant's name and arguments stay those of the trace. *)
let test_chrome_instants () =
  let c = Chrome.create () in
  List.iteri
    (fun i ev -> Chrome.record c ~at:(100 + (10 * i)) ev)
    [
      Event.Worker_up { worker = "h:1" };
      Event.Worker_lost { worker = "h:1"; reason = "eof" };
      Event.Steal { unit_label = "u1"; from_worker = "h:1"; to_worker = "h:2" };
      Event.Ckpt_hit { worker = "h:2"; digest = "d1" };
      Event.Ckpt_push { worker = "h:2"; digest = "d2"; bytes = 4096 };
      Event.Dispatch_retry { unit_label = "u1"; attempt = 2; delay = 0.25 };
      Event.Dispatch_fallback { reason = "no worker" };
      Event.Plan_round { round = 1; chosen = 4; completed = 8; mean = 1.5; ci95 = 0.125 };
      Event.Plan_predict { offset = 4096; phase = 16; ipc = 0.5 };
      Event.Plan_stop { reason = "ci_target"; windows = 12; mean = 1.25; ci95 = 0.0625 };
      Event.Dispatch_sent { unit_label = "u1"; worker = "h:1"; attempt = 0; bytes = 9 };
    ];
  let want =
    String.concat ""
      [
        {|{"traceEvents":[{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"dispatcher"}},|};
        {|{"name":"worker_up","cat":"darco","ph":"i","s":"p","ts":0,"pid":1,"tid":0,"args":{"worker":"h:1"}},|};
        {|{"name":"worker_lost","cat":"darco","ph":"i","s":"p","ts":10,"pid":1,"tid":0,"args":{"worker":"h:1","reason":"eof"}},|};
        {|{"name":"steal","cat":"darco","ph":"i","s":"p","ts":20,"pid":1,"tid":0,"args":{"unit":"u1","from":"h:1","to":"h:2"}},|};
        {|{"name":"ckpt_hit","cat":"darco","ph":"i","s":"p","ts":30,"pid":1,"tid":0,"args":{"worker":"h:2","digest":"d1"}},|};
        {|{"name":"ckpt_push","cat":"darco","ph":"i","s":"p","ts":40,"pid":1,"tid":0,"args":{"worker":"h:2","digest":"d2","bytes":4096}},|};
        {|{"name":"dispatch_retry","cat":"darco","ph":"i","s":"p","ts":50,"pid":1,"tid":0,"args":{"unit":"u1","attempt":2,"delay":0.25}},|};
        {|{"name":"dispatch_fallback","cat":"darco","ph":"i","s":"p","ts":60,"pid":1,"tid":0,"args":{"reason":"no worker"}},|};
        {|{"name":"plan_round","cat":"darco","ph":"i","s":"p","ts":70,"pid":1,"tid":0,"args":{"round":1,"chosen":4,"completed":8,"mean":1.5,"ci95":0.125}},|};
        {|{"name":"plan_predict","cat":"darco","ph":"i","s":"p","ts":80,"pid":1,"tid":0,"args":{"offset":4096,"phase":16,"ipc":0.5}},|};
        {|{"name":"plan_stop","cat":"darco","ph":"i","s":"p","ts":90,"pid":1,"tid":0,"args":{"reason":"ci_target","windows":12,"mean":1.25,"ci95":0.0625}}],"displayTimeUnit":"ms"}|};
      ]
  in
  Alcotest.(check string) "instants render as before" want
    (Jsonx.to_string (Chrome.to_json c))

(* --- metrics hists section ----------------------------------------------- *)

let test_metrics_hists () =
  let h = Hist.create () in
  Hist.add h 5;
  let s = Stats.create () in
  let j = Jsonx.parse (Metrics.to_string ~hists:[ ("lat", h) ] s) in
  (match Jsonx.member "hists" j with
  | Some hs -> (
    match Jsonx.member "lat" hs with
    | Some lat -> Alcotest.(check int) "hist count" 1 (get_int "count" lat)
    | None -> Alcotest.fail "missing hists.lat")
  | None -> Alcotest.fail "missing hists section");
  (* absent when no hists are given: historical snapshots stay byte-stable *)
  Alcotest.(check bool) "no hists key by default" true
    (Jsonx.member "hists" (Jsonx.parse (Metrics.to_string s)) = None)

(* --- per-domain accumulate / merge --------------------------------------- *)

(* A stream with every counter-moving constructor except SBM retirement
   (startup marking depends on how much of the stream each instance saw,
   so [startup_insns] gets its own case below). *)
let merge_stream =
  let open Event in
  [
    Init { cost = 40 };
    Interp_block { pc = 0x400; insns = 12; cost = 30 };
    Bb_translated { pc = 0x400; guest_len = 12; host_len = 20; cost = 25 };
    Region_exec
      {
        pc = 0x400;
        guest_bb = 12;
        guest_sb = 0;
        host_bb = 18;
        host_sb = 0;
        chains_followed = 1;
        wasted_host = 2;
      };
    Interp_step { pc = 0x404; cost = 3 };
    Interp_exec { pc = 0x404; cost = 3 };
    Sb_translated
      { pc = 0x404; guest_len = 30; host_len = 44; cost = 60; unrolled = true };
    Chain_made { pc = 0x404 };
    Ibtc_miss { pc = 0x408 };
    Ibtc_fill { pc = 0x408 };
    Rollback { kind = Rb_assert; pc = 0x404 };
    Rollback { kind = Rb_alias; pc = 0x400 };
    Deopt_rebuild { kind = De_noassert; pc = 0x404 };
    Deopt_rebuild { kind = De_nomem; pc = 0x400 };
    Cache_flush { regions = 2; host_insns = 64 };
    Page_install { index = 3 };
    Syscall { eip = 0x40c; cost = 9 };
    Validation { kind = V_syscall };
    Clock_sync { retired = 100 };
    Slice_end
      { stop = St_halt; overheads = [ (Stats.Ov_chaining, 4); (Stats.Ov_other, 2) ] };
    Halt;
  ]

(* Splitting a stream across private instances and merging them must be
   indistinguishable from one instance having seen everything — the
   contract that lets each worker domain accumulate without locks. *)
let test_stats_merge_splits () =
  let whole = Stats.create () in
  List.iteri (fun i ev -> Agg.apply whole ~at:i ev) merge_stream;
  let a = Stats.create () and b = Stats.create () in
  List.iteri
    (fun i ev -> Agg.apply (if i mod 2 = 0 then a else b) ~at:i ev)
    merge_stream;
  Stats.merge ~into:a b;
  if not (Stats.equal whole a) then
    Alcotest.failf "merged halves drift from the whole stream:\n%s\nvs\n%s"
      (render whole) (render a);
  (* merging an empty instance is the identity *)
  Stats.merge ~into:a (Stats.create ());
  Alcotest.(check bool) "identity" true (Stats.equal whole a)

let test_stats_merge_startup () =
  let mark n =
    let s = Stats.create () in
    s.Stats.guest_im <- n;
    Stats.note_sbm_start s;
    s
  in
  let a = mark 500 and b = mark 300 in
  Stats.merge ~into:a b;
  Alcotest.(check (option int)) "earliest mark wins" (Some 300) a.Stats.startup_insns;
  let c = Stats.create () in
  Stats.merge ~into:c (mark 700);
  Alcotest.(check (option int)) "present beats absent" (Some 700) c.Stats.startup_insns;
  let d = mark 200 in
  Stats.merge ~into:d (Stats.create ());
  Alcotest.(check (option int)) "absent keeps present" (Some 200) d.Stats.startup_insns

let test_prof_merge_splits () =
  let feed p evs = List.iteri (fun i ev -> Prof.apply p ~at:i ev) evs in
  let whole = Prof.create () in
  feed whole merge_stream;
  let a = Prof.create () and b = Prof.create () in
  List.iteri
    (fun i ev -> Prof.apply (if i mod 2 = 0 then a else b) ~at:i ev)
    merge_stream;
  Prof.merge ~into:a b;
  Alcotest.(check string) "merged profile identical to whole-stream profile"
    (Jsonx.to_string (Prof.to_json whole))
    (Jsonx.to_string (Prof.to_json a));
  (* and it still reconciles against the equally-merged stats *)
  let sa = Stats.create () and sb = Stats.create () in
  List.iteri
    (fun i ev -> Agg.apply (if i mod 2 = 0 then sa else sb) ~at:i ev)
    merge_stream;
  Stats.merge ~into:sa sb;
  match Prof.reconciles a sa with
  | Ok () -> ()
  | Error e -> Alcotest.failf "merged profiler drifts from merged stats: %s" e

(* --- registry under domain contention ------------------------------------ *)

(* Spawns domains, so it must live in the fork-free tail of the suite
   with the clock test. *)
let test_registry_multicore () =
  let r = Registry.create () in
  let per = 10_000 and ndom = 4 in
  let doms =
    List.init ndom (fun i ->
        Domain.spawn (fun () ->
            let c = Registry.counter r "hits_total" in
            let g = Registry.gauge r (Printf.sprintf {|lane{d="%d"}|} i) in
            let h = Registry.hist r "obs_bytes" in
            for v = 1 to per do
              Registry.inc c 1;
              Registry.set g v;
              Registry.observe h v
            done))
  in
  List.iter Domain.join doms;
  let s = Registry.snapshot r in
  Alcotest.(check int) "counter exact under contention" (ndom * per)
    (List.assoc "hits_total" s.Registry.counters);
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "gauge lane %d holds its last write" i)
        per
        (List.assoc (Printf.sprintf {|lane{d="%d"}|} i) s.Registry.gauges))
    (List.init ndom Fun.id);
  let j = List.assoc "obs_bytes" s.Registry.hists in
  Alcotest.(check int) "hist count exact" (ndom * per) (get_int "count" j);
  Alcotest.(check int) "hist sum exact"
    (ndom * (per * (per + 1) / 2))
    (get_int "sum" j)

(* --- cross-domain clock --------------------------------------------------- *)

(* Must stay the suite's LAST test: once a domain has been spawned this
   process can never Unix.fork again (OCaml 5 runtime restriction), so no
   fork-based test may run after it. *)
let test_clock_multicore () =
  let per = 2_000 and ndom = 4 in
  let doms =
    List.init ndom (fun _ ->
        Domain.spawn (fun () -> List.init per (fun _ -> Clock.ticks ())))
  in
  let per_domain = List.map Domain.join doms in
  let all = List.concat per_domain in
  Alcotest.(check int) "all handed out" (ndom * per) (List.length all);
  let tbl = Hashtbl.create (ndom * per) in
  List.iter
    (fun t ->
      if Hashtbl.mem tbl t then Alcotest.failf "tick %d handed out twice" t;
      Hashtbl.add tbl t ())
    all;
  List.iter
    (fun ts ->
      ignore
        (List.fold_left
           (fun prev t ->
             if t <= prev then
               Alcotest.failf "ticks went %d -> %d within one domain" prev t;
             t)
           min_int ts))
    per_domain

let () =
  Alcotest.run "obs"
    [
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_jsonx_parse_errors;
          QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonx_string_exact;
          QCheck_alcotest.to_alcotest prop_jsonx_print_stable;
        ] );
      ( "aggregator",
        List.map
          (fun w ->
            Alcotest.test_case ("matches direct stats: " ^ w) `Quick
              (test_aggregator_matches w))
          workloads );
      ( "sinks",
        [
          Alcotest.test_case "trace JSONL parses back" `Quick test_trace_jsonl;
          Alcotest.test_case "no-sink run identical" `Quick test_no_sink_identical;
          Alcotest.test_case "one retire subscriber per bus" `Quick test_one_retire_subscriber;
          Alcotest.test_case "metrics snapshot" `Quick test_metrics_json;
          Alcotest.test_case "metrics hists section" `Quick test_metrics_hists;
        ] );
      ( "events",
        [ Alcotest.test_case "every constructor: name + JSON schema" `Quick
            test_event_schema ] );
      ( "clock",
        [
          Alcotest.test_case "ticks strictly monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "stamps sequence" `Quick test_clock_stamp;
        ] );
      ( "hist",
        [
          Alcotest.test_case "empty" `Quick test_hist_empty;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "json" `Quick test_hist_json;
        ] );
      ( "spans",
        [ Alcotest.test_case "roundtrip + malformed input" `Quick test_span_roundtrip ]
      );
      ( "profiler",
        List.map
          (fun w ->
            Alcotest.test_case ("reconciles with Stats.t: " ^ w) `Quick
              (test_prof_reconciles w))
          workloads );
      ( "registry",
        [
          Alcotest.test_case "cells + kind safety" `Quick test_registry_cells;
          Alcotest.test_case "exposition golden" `Quick test_registry_exposition;
          Alcotest.test_case "snapshot JSON roundtrip" `Quick
            test_registry_json_roundtrip;
          Alcotest.test_case "service series golden" `Quick
            test_registry_service_series;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring + dump on divergence" `Quick test_recorder_ring;
          Alcotest.test_case "rejects zero capacity" `Quick test_recorder_capacity;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "valid timeline validates" `Quick test_chrome_valid;
          Alcotest.test_case "rejects malformed timelines" `Quick
            test_chrome_rejects_unclosed;
          Alcotest.test_case "instants pinned" `Quick test_chrome_instants;
        ] );
      ( "merge",
        [
          Alcotest.test_case "stats: split stream = whole stream" `Quick
            test_stats_merge_splits;
          Alcotest.test_case "stats: startup mark" `Quick test_stats_merge_startup;
          Alcotest.test_case "prof: split stream = whole stream" `Quick
            test_prof_merge_splits;
        ] );
      (* keep last: spawns domains, which forbids fork for the rest of
         the process *)
      ( "multicore",
        [
          Alcotest.test_case "ticks unique across domains" `Quick
            test_clock_multicore;
          Alcotest.test_case "registry exact under domain contention" `Quick
            test_registry_multicore;
        ] );
    ]
