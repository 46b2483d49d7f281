(* The campaign service, tested against real processes: the [serve] loop
   runs in this process (so its bus is observable), real client processes
   are forked against its ephemeral port, and the artifact library is
   driven both through the service and directly — including the cold
   restart and corruption paths the crash-safety story depends on. *)

module Campaign = Darco_serve.Campaign
module Library = Darco_serve.Library
module Client = Darco_serve.Client
module Serve = Darco_serve.Serve
module Sweep = Darco_sampling.Sweep
module Work = Darco_sampling.Work
module Store = Darco_sampling.Store
module Driver = Darco_sampling.Driver
module Report = Darco_sampling.Report
module B = Darco_sampling.Buf
module Wire = Darco_dispatch.Wire
module Worker = Darco_dispatch.Worker
module Event = Darco_obs.Event
module J = Darco_obs.Jsonx

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* --- plumbing ---------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "darco_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let collecting_bus () =
  let events = ref [] in
  let bus = Darco_obs.Bus.create () in
  Darco_obs.Bus.attach bus ~name:"collect" (fun ~at:_ ev -> events := ev :: !events);
  (bus, events)

let count events p = List.length (List.filter p !events)

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Fork a client process that learns the server's kernel-assigned port
   through a pipe (written by [serve]'s [ready] callback), runs [job]
   against it, and exits.  Results come back through files — the child
   must not touch Alcotest state. *)
let fork_client (r, w) job =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close w;
    let buf = Bytes.create 16 in
    let n = Unix.read r buf 0 16 in
    Unix.close r;
    let port = int_of_string (String.trim (Bytes.sub_string buf 0 n)) in
    (try job { Darco_dispatch.host = "127.0.0.1"; port } with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close r;
    pid

(* The [ready] callback: announce the bound port to every waiting child. *)
let announce writers sa =
  let port = match sa with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
  let line = Bytes.of_string (string_of_int port ^ "\n") in
  List.iter
    (fun w ->
      ignore (Unix.write w line 0 (Bytes.length line));
      Unix.close w)
    writers

(* Same worker-daemon spawner as test_dispatch: ephemeral port reported
   through a pipe once the daemon is actually listening.  [exec] lets a
   test slow the worker down to hold a campaign observably in flight. *)
let spawn_worker ?exec ?store_dir () =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (try
       Worker.serve ~quiet:true ?exec ?store_dir
         ~ready:(fun sa ->
           let port = match sa with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
           let line = Bytes.of_string (string_of_int port ^ "\n") in
           ignore (Unix.write w line 0 (Bytes.length line));
           Unix.close w)
         ~host:"127.0.0.1" ~port:0 ()
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close w;
    let buf = Bytes.create 16 in
    let n = Unix.read r buf 0 16 in
    Unix.close r;
    let port = int_of_string (String.trim (Bytes.sub_string buf 0 n)) in
    (pid, { Darco_dispatch.host = "127.0.0.1"; port })

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let wait pid = ignore (Unix.waitpid [] pid)

(* The shared campaign: same physics workload and geometry as the
   dispatcher tests, so the windows are cheap and deterministic. *)
let spec1 =
  Campaign.normalize
    {
      Campaign.bench = "continuous";
      scale = 1;
      seed = 7;
      input = None;
      interval = 10_000;
      horizon = 40_000;
      offsets = [ 8_000; 16_000; 24_000 ];
      window = 2_000;
      warmup = 1_000;
      ci_target = None;
    }

let spec2 = Campaign.normalize { spec1 with offsets = [ 12_000; 20_000 ] }

(* Two windows at the edges of checkpoint selection: one whose warm-up
   starts on a checkpoint (10,000) and one that starts below its warm-up. *)
let spec_edges = Campaign.normalize { spec1 with offsets = [ 500; 11_000 ] }

(* What [darco sample --json] computes for [spec1] — the byte-identity
   reference for everything the service returns. *)
let checkpoints1 =
  lazy
    (Driver.functional_checkpoints ~seed:7 ~interval:10_000 ~horizon:40_000
       ((Darco_workloads.Registry.find "continuous").build ~scale:1 ()))

(* The unit [darco sample] builds for one window of a [spec1]-like
   campaign, its checkpoint added to [store]. *)
let sample_work ?(store = Store.create ()) (spec : Campaign.t) off =
  Work.of_window_stored ~store ~checkpoints:(Lazy.force checkpoints1)
    ~label:(Printf.sprintf "continuous@%d" off)
    ~offset:off ~window:spec.Campaign.window ~warmup:spec.Campaign.warmup

(* The library key of that window; [stand_in] maps its checkpoint's
   digest to the one a tampered library stores the checkpoint under. *)
let sample_key ?(stand_in = Fun.id) (spec : Campaign.t) off =
  {
    Library.bench = "continuous";
    cfg = Campaign.config_digest spec;
    snap = stand_in (Option.get (Work.digest (sample_work spec off)));
    offset = off;
    window = spec.Campaign.window;
    warmup = spec.Campaign.warmup;
  }

let expected_doc =
  lazy
    (let store = Store.create () in
     let works = List.map (sample_work ~store spec1) spec1.Campaign.offsets in
     let results = Sweep.run (Sweep.Backend.serial ~store ()) works in
     let rep =
       Report.sweep_json ~benchmark:"continuous" ~seed:7 ~interval:10_000
         ~window:2_000 ~warmup:1_000
         (List.combine spec1.Campaign.offsets results)
     in
     J.to_string rep.Report.doc)

(* --- the campaign codec ------------------------------------------------ *)

let test_campaign_codec () =
  let full =
    {
      Campaign.bench = "429.mcf";
      scale = 3;
      seed = 99;
      input = Some "line one\nline two\x00binary";
      interval = 5_000;
      horizon = 123_456;
      offsets = [ 10_000; 20_000; 30_000 ];
      window = 1_000;
      warmup = 500;
      ci_target = None;
    }
  in
  Alcotest.(check bool) "roundtrip is the identity" true
    (Campaign.of_string (Campaign.to_string full) = full);
  Alcotest.(check bool) "roundtrip without input" true
    (Campaign.of_string (Campaign.to_string spec1) = spec1);
  (* a confidence target bumps the frame to version 2 and survives the
     roundtrip; its absence keeps the version-1 bytes *)
  let planned = { full with Campaign.ci_target = Some 0.02 } in
  Alcotest.(check bool) "roundtrip with a ci target" true
    (Campaign.of_string (Campaign.to_string planned) = planned);
  Alcotest.(check bool) "v2 frame differs from v1" true
    (Campaign.to_string planned <> Campaign.to_string full);
  (* normalization: the flag discipline of [darco sample] *)
  let messy =
    Campaign.normalize
      { full with offsets = [ 30_000; 10_000; 10_000; 20_000 ]; horizon = 1 }
  in
  Alcotest.(check (list int)) "offsets sorted and deduplicated"
    [ 10_000; 20_000; 30_000 ] messy.Campaign.offsets;
  Alcotest.(check int) "horizon stretched over the last window" 31_000
    messy.Campaign.horizon;
  (* malformed specs are refused, never misread *)
  let corrupt s =
    match Campaign.of_string s with
    | _ -> Alcotest.fail "accepted a malformed campaign"
    | exception B.Corrupt _ -> ()
  in
  let enc = Campaign.to_string full in
  corrupt "";
  corrupt ("JUNK" ^ String.sub enc 4 (String.length enc - 4));
  corrupt (String.sub enc 0 (String.length enc - 3));
  corrupt (enc ^ "!");
  corrupt (Campaign.to_string { full with scale = 0 });
  corrupt (Campaign.to_string { full with interval = 0 });
  corrupt (Campaign.to_string { full with window = 0 });
  corrupt (Campaign.to_string { full with warmup = -1 });
  corrupt (Campaign.to_string { full with ci_target = Some 0.0 });
  corrupt (Campaign.to_string { full with ci_target = Some (-0.1) })

let test_campaign_digests () =
  let a = spec1 in
  (* the config digest pins a window's bytes: checkpointing parameters and
     the offset list must not perturb it, or campaigns stop sharing *)
  Alcotest.(check string) "config digest ignores interval/horizon/offsets"
    (Campaign.config_digest a)
    (Campaign.config_digest
       { a with interval = 777; horizon = 999_999; offsets = [ 1 ] });
  Alcotest.(check bool) "config digest sees the window length" true
    (Campaign.config_digest { a with window = 3_000 }
    <> Campaign.config_digest a);
  Alcotest.(check bool) "config digest sees the seed" true
    (Campaign.config_digest { a with seed = 8 } <> Campaign.config_digest a);
  (* the checkpoint digest pins a fast-forward, nothing about windows *)
  Alcotest.(check string) "ckpt digest ignores window/warmup/offsets"
    (Campaign.ckpt_digest a)
    (Campaign.ckpt_digest { a with window = 9; warmup = 0; offsets = [] });
  Alcotest.(check bool) "ckpt digest sees the interval" true
    (Campaign.ckpt_digest { a with interval = 5_000 } <> Campaign.ckpt_digest a);
  (* the input rendering is injective: empty input is not absent input *)
  Alcotest.(check bool) "empty input distinct from no input" true
    (Campaign.config_digest { a with input = Some "" }
    <> Campaign.config_digest a);
  (* the confidence target never reaches a digest: an adaptive campaign's
     windows must hit the exhaustive campaign's library entries *)
  Alcotest.(check string) "config digest ignores the ci target"
    (Campaign.config_digest a)
    (Campaign.config_digest { a with ci_target = Some 0.05 });
  Alcotest.(check string) "ckpt digest ignores the ci target"
    (Campaign.ckpt_digest a)
    (Campaign.ckpt_digest { a with ci_target = Some 0.05 })

(* --- the artifact library, driven directly ----------------------------- *)

let a_key =
  {
    Library.bench = "continuous";
    cfg = Store.digest "some config";
    snap = Store.digest "some snapshot";
    offset = 8_000;
    window = 2_000;
    warmup = 1_000;
  }

let test_library_windows () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir () in
  Alcotest.(check (option string)) "empty library misses" None
    (Library.find_window lib a_key);
  let json = "{\"offset\":8000,\"ipc\":1.25}" in
  Library.put_window lib a_key json;
  Library.put_window lib a_key json;
  Alcotest.(check (option string)) "warm hit" (Some json)
    (Library.find_window lib a_key);
  (* a cold open re-reads and re-verifies the file *)
  let cold = Library.create ~dir () in
  Alcotest.(check (option string)) "cold hit, verified" (Some json)
    (Library.find_window cold a_key);
  Alcotest.(check (option string)) "a different offset is a different key"
    None
    (Library.find_window cold { a_key with offset = 16_000 })

let test_library_corruption () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir () in
  let json = "{\"offset\":8000,\"ipc\":1.25}" in
  Library.put_window lib a_key json;
  let path = Filename.concat dir (Library.key_id a_key ^ ".dart") in
  (* one flipped payload byte must surface as Corrupt on a cold read *)
  let bytes = Bytes.of_string (read_file path) in
  let last = Bytes.length bytes - 1 in
  Bytes.set bytes last (Char.chr (Char.code (Bytes.get bytes last) lxor 0xff));
  write_file path (Bytes.to_string bytes);
  let cold = Library.create ~dir () in
  (match Library.find_window cold a_key with
  | _ -> Alcotest.fail "served a tampered window artifact"
  | exception B.Corrupt _ -> ());
  (* a valid artifact copied under the wrong name must also be refused:
     the embedded key is checked against the key looked up *)
  let lib2 = Library.create ~dir:(Filename.concat dir "two") () in
  Library.put_window lib2 a_key json;
  let wrong = { a_key with offset = 24_000 } in
  write_file
    (Filename.concat (Filename.concat dir "two") (Library.key_id wrong ^ ".dart"))
    (read_file
       (Filename.concat (Filename.concat dir "two") (Library.key_id a_key ^ ".dart")));
  let cold2 = Library.create ~dir:(Filename.concat dir "two") () in
  match Library.find_window cold2 wrong with
  | _ -> Alcotest.fail "served a window artifact under the wrong key"
  | exception B.Corrupt _ -> ()

let test_library_checkpoints () =
  with_temp_dir @@ fun dir ->
  let lib = Library.create ~dir () in
  let ck = Campaign.ckpt_digest spec1 in
  Alcotest.(check bool) "empty library has no checkpoint set" true
    (Library.find_checkpoints lib ~bench:"continuous" ~ckpt:ck = None);
  let b0 = "snapshot zero bytes" and b1 = "snapshot one bytes!" in
  let d0 = Store.add (Library.store lib) b0 in
  let d1 = Store.add (Library.store lib) b1 in
  Library.put_checkpoints lib ~bench:"continuous" ~ckpt:ck
    [ (0, d0); (10_000, d1) ];
  Alcotest.(check bool) "set restored in order, digests resolved" true
    (Library.find_checkpoints lib ~bench:"continuous" ~ckpt:ck
    = Some [ (0, d0); (10_000, d1) ]);
  let cold = Library.create ~dir () in
  Alcotest.(check bool) "cold restore identical" true
    (Library.find_checkpoints cold ~bench:"continuous" ~ckpt:ck
    = Some [ (0, d0); (10_000, d1) ]);
  Alcotest.(check (option string)) "cold restore verified the bytes" (Some b1)
    (Store.find (Library.store cold) d1);
  (* an evicted snapshot poisons the whole set: a partial restore would
     silently change warm-up distances, so the set reports absent *)
  Sys.remove (Filename.concat (Filename.concat dir "ckpt") (d1 ^ ".dsnp"));
  let cold2 = Library.create ~dir () in
  Alcotest.(check bool) "set with an evicted snapshot is absent" true
    (Library.find_checkpoints cold2 ~bench:"continuous" ~ckpt:ck = None)

(* --- the wire v4 SUBM frame, against its committed golden bytes -------- *)

let fixture_spec =
  {
    Campaign.bench = "429.mcf";
    scale = 1;
    seed = 42;
    input = None;
    interval = 50_000;
    horizon = 300_000;
    offsets = [ 130_000; 150_000 ];
    window = 25_000;
    warmup = 30_000;
    ci_target = None;
  }

let test_subm_golden () =
  let golden = read_file "fixtures/wire_subm_v4.bin" in
  let msg = Wire.Submit { id = 7; sweep = Campaign.to_string fixture_spec } in
  Alcotest.(check string) "encoder still emits the committed bytes" golden
    (Wire.encode msg);
  (* and the committed bytes still decode to the same submission *)
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  ignore (Unix.write_substring b golden 0 (String.length golden));
  Unix.close b;
  Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
  match Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) a with
  | Wire.Submit { id; sweep } ->
    Alcotest.(check int) "submission id" 7 id;
    Alcotest.(check bool) "campaign decodes to the fixture spec" true
      (Campaign.of_string sweep = fixture_spec)
  | _ -> Alcotest.fail "golden SUBM frame decoded to something else"

(* --- the other serve formats against committed bytes: a DCAM v2 campaign
   (v1 rides inside the SUBM fixture above), a DART window artifact and a
   DCKI checkpoint index.  Each decodes to its value and the writer still
   emits exactly its bytes. *)

let test_dcam_v2_golden () =
  let golden = read_file "fixtures/campaign_v2.dcam" in
  let spec =
    { fixture_spec with input = Some "stdin bytes"; ci_target = Some 0.05 }
  in
  Alcotest.(check bool) "decodes to the planned spec" true
    (Campaign.of_string golden = spec);
  Alcotest.(check string) "re-encodes byte-identically" golden
    (Campaign.to_string spec)

let test_library_golden () =
  with_temp_dir @@ fun dir ->
  let key =
    {
      Library.bench = "429.mcf";
      cfg = Campaign.config_digest fixture_spec;
      snap = Store.digest "golden snapshot";
      offset = 130_000;
      window = 25_000;
      warmup = 30_000;
    }
  in
  let json = {|{"offset":130000,"ipc":1.25}|} in
  let ckpt = Campaign.ckpt_digest fixture_spec in
  let b0 = "snapshot zero bytes" and b1 = "snapshot one bytes!" in
  let dart = read_file "fixtures/window_v1.dart" in
  let dcki = read_file "fixtures/ckpts_v1.dcki" in
  let dart_name = Library.key_id key ^ ".dart" in
  let dcki_name = "ckpts_" ^ ckpt ^ ".dcki" in
  let cold = Filename.concat dir "cold" in
  Unix.mkdir cold 0o755;
  write_file (Filename.concat cold dart_name) dart;
  write_file (Filename.concat cold dcki_name) dcki;
  let lib = Library.create ~dir:cold () in
  Alcotest.(check (option string)) "window artifact decodes" (Some json)
    (Library.find_window lib key);
  ignore (Store.add (Library.store lib) b0);
  ignore (Store.add (Library.store lib) b1);
  Alcotest.(check bool) "checkpoint index decodes" true
    (Library.find_checkpoints lib ~bench:"429.mcf" ~ckpt
    = Some [ (0, Store.digest b0); (50_000, Store.digest b1) ]);
  let fresh = Filename.concat dir "fresh" in
  let lib = Library.create ~dir:fresh () in
  Library.put_window lib key json;
  Library.put_checkpoints lib ~bench:"429.mcf" ~ckpt
    [ (0, Store.digest b0); (50_000, Store.digest b1) ];
  Alcotest.(check string) "window artifact re-encodes byte-identically" dart
    (read_file (Filename.concat fresh dart_name));
  Alcotest.(check string) "checkpoint index re-encodes byte-identically" dcki
    (read_file (Filename.concat fresh dcki_name))

(* --- the service end to end: resubmission, restore, restart ------------ *)

let parse_stats s = Scanf.sscanf s "%d %d %d %d" (fun a b c d -> (a, b, c, d))

let seq_client dir addr =
  let save name s = write_file (Filename.concat dir name) s in
  let submit name spec =
    match Client.submit addr spec with
    | Ok (st, doc) ->
      save (name ^ ".stats")
        (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
           st.Client.hits st.Client.dispatched);
      save (name ^ ".json") doc
    | Error e -> save (name ^ ".err") e
  in
  submit "first" spec1;
  submit "again" spec1;
  (match Client.status addr with
  | Ok (state, st, _info) ->
    save "status"
      (Printf.sprintf "%s %d %d %d %d" state st.Client.done_ st.Client.total
         st.Client.hits st.Client.dispatched)
  | Error e -> save "status.err" e);
  (match Client.fetch addr spec1 ~offset:8_000 with
  | Ok (Some j) -> save "fetch" j
  | Ok None -> save "fetch.err" "miss"
  | Error e -> save "fetch.err" e);
  (match Client.fetch addr spec1 ~offset:9_999 with
  | Ok None -> save "fetch_miss" "miss"
  | Ok (Some _) -> save "fetch_miss.err" "unexpected hit"
  | Error e -> save "fetch_miss.err" e);
  submit "sibling" spec_edges

let must_read dir name =
  let path = Filename.concat dir name in
  if Sys.file_exists path then read_file path
  else
    Alcotest.failf "client never wrote %s%s" name
      (let err = Filename.concat dir (Filename.remove_extension name ^ ".err") in
       if Sys.file_exists err then ": " ^ read_file err else "")

(* One worker daemon for a test's servers, stopped when the test ends. *)
let with_worker f =
  let pid, addr = spawn_worker () in
  Fun.protect ~finally:(fun () -> reap pid) (fun () -> f addr)

let test_serve_resubmit_and_restore () =
  with_temp_dir @@ fun dir ->
  with_worker @@ fun waddr ->
  let libdir = Filename.concat dir "lib" in
  let pipe = Unix.pipe () in
  let pid = fork_client pipe (seq_client dir) in
  let bus, events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~workers:(fun () -> [ waddr ]) ~jobs:2 ~credit:2
    ~max_submissions:3
    ~ready:(announce [ snd pipe ])
    ~library:libdir ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  (* the first submission dispatched everything, the resubmission nothing *)
  Alcotest.(check (list int)) "first run: 3 windows, all dispatched"
    [ 3; 3; 0; 3 ]
    (let a, b, c, d = parse_stats (must_read dir "first.stats") in
     [ a; b; c; d ]);
  Alcotest.(check (list int)) "resubmission: all hits, zero dispatched"
    [ 3; 3; 3; 0 ]
    (let a, b, c, d = parse_stats (must_read dir "again.stats") in
     [ a; b; c; d ]);
  (* byte-identical to each other AND to what [darco sample --json] says *)
  let doc0 = must_read dir "first.json" in
  Alcotest.(check string) "resubmitted document byte-identical" doc0
    (must_read dir "again.json");
  Alcotest.(check string) "document byte-identical to the serial backend"
    (Lazy.force expected_doc) doc0;
  (* the sibling campaign has new windows but the same checkpoint set *)
  Alcotest.(check (list int)) "sibling: new windows dispatched" [ 2; 2; 0; 2 ]
    (let a, b, c, d = parse_stats (must_read dir "sibling.stats") in
     [ a; b; c; d ]);
  (* mid-stream service queries worked *)
  (match String.split_on_char ' ' (must_read dir "status") with
  | state :: done_ :: total :: _ ->
    Alcotest.(check string) "service state" "serving" state;
    Alcotest.(check string) "completed submissions" "2" done_;
    Alcotest.(check string) "admitted submissions" "2" total
  | _ -> Alcotest.fail "malformed status line");
  Alcotest.(check bool) "fetch returned the stored window" true
    (let j = must_read dir "fetch" in
     let sub = "\"offset\":8000" in
     let rec find i =
       i + String.length sub <= String.length j
       && (String.sub j i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check string) "fetch of an unknown window is a clean miss" "miss"
    (must_read dir "fetch_miss");
  (* the decisions were all on the bus *)
  Alcotest.(check int) "three submissions observed" 3
    (count events (function Event.Submit _ -> true | _ -> false));
  Alcotest.(check int) "one checkpoint set stored" 1
    (count events (function
      | Event.Artifact_store { key; _ } -> has_prefix "ckpts:" key
      | _ -> false));
  Alcotest.(check bool) "the sibling restored checkpoints from the library"
    true
    (count events (function
       | Event.Artifact_hit { key } -> has_prefix "ckpts:" key
       | _ -> false)
    >= 1);
  Alcotest.(check bool) "three window hits for the resubmission" true
    (count events (function
       | Event.Artifact_hit { key } -> not (has_prefix "ckpts:" key)
       | _ -> false)
    >= 3);
  Alcotest.(check int) "five window artifacts stored" 5
    (count events (function
      | Event.Artifact_store { key; _ } -> not (has_prefix "ckpts:" key)
      | _ -> false));
  (* fair share: every scheduling round honoured the credit *)
  let admits =
    List.filter_map
      (function Event.Admit { units; credit; _ } -> Some (units, credit) | _ -> None)
      !events
  in
  Alcotest.(check bool) "admission rounds observed" true (admits <> []);
  List.iter
    (fun (units, credit) ->
      if units < 1 || units > credit then
        Alcotest.failf "admission round took %d units against credit %d" units
          credit)
    admits;
  Alcotest.(check int) "admitted units equal dispatched units" 5
    (List.fold_left (fun acc (u, _) -> acc + u) 0 admits);
  (* --- restart the service cold on the same library -------------------- *)
  let pipe2 = Unix.pipe () in
  let pid2 =
    fork_client pipe2 (fun addr ->
        List.iter
          (fun off ->
            let name = Printf.sprintf "edge_%d" off in
            match Client.fetch addr spec_edges ~offset:off with
            | Ok (Some j) -> write_file (Filename.concat dir name) j
            | Ok None -> write_file (Filename.concat dir (name ^ ".err")) "miss"
            | Error e -> write_file (Filename.concat dir (name ^ ".err")) e)
          spec_edges.Campaign.offsets;
        match Client.submit addr spec1 with
        | Ok (st, doc) ->
          write_file
            (Filename.concat dir "cold.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched);
          write_file (Filename.concat dir "cold.json") doc
        | Error e -> write_file (Filename.concat dir "cold.err") e)
  in
  Serve.serve ~quiet:true ~workers:(fun () -> [ waddr ]) ~jobs:2 ~max_submissions:1
    ~ready:(announce [ snd pipe2 ])
    ~library:libdir ~host:"127.0.0.1" ~port:0 ();
  wait pid2;
  Alcotest.(check (list int)) "after restart: all hits, zero dispatched"
    [ 3; 3; 3; 0 ]
    (let a, b, c, d = parse_stats (must_read dir "cold.stats") in
     [ a; b; c; d ]);
  Alcotest.(check string) "after restart: document still byte-identical" doc0
    (must_read dir "cold.json");
  (* a cold fetch chooses the checkpoint admission chose: it returns the
     very window the sibling stored, under the key [darco sample]'s unit
     gives it, on a warm-up start at a checkpoint and below the warm-up *)
  let lib = Library.create ~dir:libdir () in
  List.iter
    (fun off ->
      Alcotest.(check (option string))
        (Printf.sprintf "fetch at %d returns the stored window" off)
        (Library.find_window lib (sample_key spec_edges off))
        (Some (must_read dir (Printf.sprintf "edge_%d" off))))
    spec_edges.Campaign.offsets

(* --- checkpoint sets the daemon cannot decode --------------------------- *)

(* A library holding [spec1]'s checkpoint set with every snapshot's bytes
   passed through [tamper] and stored under their new digest, as a store
   accepts them.  Returns the library and the map from each real
   snapshot's digest to its stand-in's. *)
let tampered_library libdir tamper =
  let lib = Library.create ~dir:libdir () in
  let stand_ins = Hashtbl.create 8 in
  let entries =
    List.map
      (fun (c : Driver.checkpoint) ->
        let bytes = Darco_sampling.Snapshot.to_string c.Driver.snapshot in
        let d = Store.add (Library.store lib) (tamper bytes) in
        Hashtbl.replace stand_ins (Store.digest bytes) d;
        (c.Driver.at, d))
      (Lazy.force checkpoints1)
  in
  Library.put_checkpoints lib ~bench:"continuous"
    ~ckpt:(Campaign.ckpt_digest spec1) entries;
  (lib, Hashtbl.find stand_ins)

let ckpts_events events =
  ( count events (function
      | Event.Artifact_hit { key } -> has_prefix "ckpts:" key
      | _ -> false),
    count events (function
      | Event.Artifact_store { key; _ } -> has_prefix "ckpts:" key
      | _ -> false) )

(* Submit each (name, spec) in turn against a fresh daemon on [libdir],
   saving stats and documents under [dir]; the bus's events come back. *)
let serve_submissions dir libdir waddr subs =
  let pipe = Unix.pipe () in
  let pid =
    fork_client pipe (fun addr ->
        List.iter
          (fun (name, spec) ->
            match Client.submit addr spec with
            | Ok (st, doc) ->
              write_file
                (Filename.concat dir (name ^ ".stats"))
                (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
                   st.Client.hits st.Client.dispatched);
              write_file (Filename.concat dir (name ^ ".json")) doc
            | Error e -> write_file (Filename.concat dir (name ^ ".err")) e)
          subs)
  in
  let bus, events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~workers:(fun () -> [ waddr ]) ~jobs:2
    ~max_submissions:(List.length subs)
    ~ready:(announce [ snd pipe ])
    ~library:libdir ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  events

let stats_of dir name =
  let a, b, c, d = parse_stats (must_read dir (name ^ ".stats")) in
  [ a; b; c; d ]

(* A checkpoint set the daemon cannot use — snapshot bytes whose digests
   match but whose version this build does not read, or an index that
   lists no checkpoint — is regenerated, and the daemon keeps serving. *)
let test_serve_unreadable_checkpoints () =
  let future_version libdir =
    ignore
      (tampered_library libdir (fun bytes ->
           let b = Bytes.of_string bytes in
           Bytes.set_uint8 b 4 (Darco_sampling.Snapshot.version + 1);
           Bytes.to_string b))
  and empty_index libdir =
    Library.put_checkpoints (Library.create ~dir:libdir ()) ~bench:"continuous"
      ~ckpt:(Campaign.ckpt_digest spec1) []
  in
  List.iter
    (fun (what, setup) ->
      with_temp_dir @@ fun dir ->
      with_worker @@ fun waddr ->
      let libdir = Filename.concat dir "lib" in
      setup libdir;
      let events =
        serve_submissions dir libdir waddr [ ("first", spec1); ("second", spec2) ]
      in
      let check_stats name want =
        Alcotest.(check (list int)) (what ^ ": " ^ name) want (stats_of dir name)
      in
      check_stats "first" [ 3; 3; 0; 3 ];
      Alcotest.(check string) (what ^ ": the serial backend's document")
        (Lazy.force expected_doc) (must_read dir "first.json");
      check_stats "second" [ 2; 2; 0; 2 ];
      Alcotest.(check (pair int int))
        (what ^ ": the set regenerated once, then restored") (1, 1)
        (ckpts_events events))
    [ ("a future snapshot version", future_version); ("an empty index", empty_index) ]

(* Snapshot bytes with a valid header but a section that fails its CRC,
   and every window of [spec1] stored against them: admission works from
   digests alone, so the submission is answered from the library with
   nothing decoded.  A planned submission must decode its phase markers:
   that decode fails, and the set is regenerated. *)
let test_serve_admission_decodes_nothing () =
  with_temp_dir @@ fun dir ->
  with_worker @@ fun waddr ->
  let libdir = Filename.concat dir "lib" in
  let lib, stand_in =
    tampered_library libdir (fun bytes ->
        let b = Bytes.of_string bytes in
        let last = Bytes.length b - 1 in
        Bytes.set_uint8 b last (Bytes.get_uint8 b last lxor 0xff);
        Bytes.to_string b)
  in
  let store = Store.create () in
  List.iter
    (fun off ->
      Library.put_window lib (sample_key ~stand_in spec1 off)
        (J.to_string (Work.exec ~store (sample_work ~store spec1 off))))
    spec1.Campaign.offsets;
  let planned = Campaign.normalize { spec1 with ci_target = Some 0.10 } in
  let events =
    serve_submissions dir libdir waddr [ ("stored", spec1); ("planned", planned) ]
  in
  Alcotest.(check (list int)) "every window a hit, nothing dispatched"
    [ 3; 3; 3; 0 ] (stats_of dir "stored");
  Alcotest.(check string) "the stored texts make the serial document"
    (Lazy.force expected_doc) (must_read dir "stored.json");
  Alcotest.(check (list int)) "the planned submission ran on a regenerated set"
    [ 3; 3; 0; 3 ] (stats_of dir "planned");
  Alcotest.(check (pair int int))
    "restored for the first, regenerated for the planner" (1, 1)
    (ckpts_events events)

(* --- a dead fleet worker is restarted between rounds -------------------- *)

(* [darco serve] without [--workers]: a loopback fleet worker killed
   between two submissions is started again before the next round, so
   the second submission still runs on a worker and none of it falls
   back to the daemon's own domains. *)
let test_serve_revives_fleet_worker () =
  with_temp_dir @@ fun dir ->
  Darco_dispatch.with_fleet ~exe:Fleet.exe 1 @@ fun fleet ->
  let victim_addr, victim = List.hd (Darco_dispatch.fleet_members fleet) in
  let refuses port =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    match Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> false
    | exception Unix.Unix_error _ -> true
  in
  let submit addr name spec =
    match Client.submit addr spec with
    | Ok (st, _) ->
      write_file
        (Filename.concat dir (name ^ ".stats"))
        (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
           st.Client.hits st.Client.dispatched)
    | Error e -> write_file (Filename.concat dir (name ^ ".err")) e
  in
  let pipe = Unix.pipe () in
  let pid =
    fork_client pipe (fun addr ->
        submit addr "first" spec1;
        Unix.kill victim Sys.sigkill;
        while not (refuses victim_addr.Darco_dispatch.port) do
          Unix.sleepf 0.01
        done;
        submit addr "second" spec2)
  in
  let bus, events = collecting_bus () in
  Serve.serve ~bus ~quiet:true
    ~workers:(fun () -> Darco_dispatch.fleet_revive fleet)
    ~max_submissions:2
    ~ready:(announce [ snd pipe ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  let stats name =
    let a, b, c, d = parse_stats (must_read dir (name ^ ".stats")) in
    [ a; b; c; d ]
  in
  Alcotest.(check (list int)) "first submission dispatched" [ 3; 3; 0; 3 ]
    (stats "first");
  Alcotest.(check (list int)) "second submission dispatched" [ 2; 2; 0; 2 ]
    (stats "second");
  Alcotest.(check bool) "the killed worker was replaced" true
    (snd (List.hd (Darco_dispatch.fleet_members fleet)) <> victim);
  Alcotest.(check int) "every window ran on a worker" 5
    (count events (function Event.Dispatch_done { ok; _ } -> ok | _ -> false));
  Alcotest.(check int) "nothing fell back to the daemon" 0
    (count events (function Event.Dispatch_fallback _ -> true | _ -> false))

(* --- an adaptive campaign exits early ---------------------------------- *)

(* A wide campaign with a loose confidence target: the planner should
   settle the sweep from a handful of windows and skip the rest, and the
   document should say so. *)
let adaptive_spec =
  Campaign.normalize
    {
      spec1 with
      Campaign.offsets = List.init 16 (fun i -> 2_000 + (i * 2_500));
      ci_target = Some 0.10;
    }

let test_serve_adaptive_campaign () =
  with_temp_dir @@ fun dir ->
  with_worker @@ fun waddr ->
  let pipe = Unix.pipe () in
  let pid =
    fork_client pipe (fun addr ->
        match Client.submit addr adaptive_spec with
        | Ok (st, doc) ->
          write_file
            (Filename.concat dir "adaptive.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched);
          write_file (Filename.concat dir "adaptive.json") doc
        | Error e -> write_file (Filename.concat dir "adaptive.err") e)
  in
  let bus, events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~workers:(fun () -> [ waddr ]) ~jobs:2 ~credit:4
    ~max_submissions:1
    ~ready:(announce [ snd pipe ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  let total = List.length adaptive_spec.Campaign.offsets in
  let done_, total', _hits, dispatched =
    parse_stats (must_read dir "adaptive.stats")
  in
  Alcotest.(check int) "status reports the full campaign" total total';
  Alcotest.(check bool)
    (Printf.sprintf "early exit measured a strict subset (%d of %d)" done_
       total)
    true
    (done_ > 0 && done_ < total);
  Alcotest.(check bool) "dispatch stopped with the plan" true
    (dispatched <= done_ && dispatched < total);
  (* the document carries the planner verdict *)
  let doc = J.parse (must_read dir "adaptive.json") in
  Alcotest.(check bool) "document is an adaptive plan" true
    (J.member "plan" doc = Some (J.String "adaptive"));
  Alcotest.(check bool) "ci target recorded" true
    (J.member "ci_target" doc = Some (J.Float 0.10));
  (match J.member "windows_used" doc with
  | Some (J.Int n) -> Alcotest.(check int) "windows_used matches status" done_ n
  | _ -> Alcotest.fail "windows_used missing");
  Alcotest.(check bool) "ci target met" true
    (J.member "ci_target_met" doc = Some (J.Bool true));
  (* unmeasured offsets are absent from the rows, not reported as failed *)
  (match J.member "samples" doc with
  | Some (J.List rows) ->
    Alcotest.(check int) "one row per measured window" done_ (List.length rows)
  | _ -> Alcotest.fail "samples missing");
  (* the planner narrated its early exit on the bus *)
  Alcotest.(check bool) "Plan_round observed" true
    (count events (function Event.Plan_round _ -> true | _ -> false) >= 1);
  Alcotest.(check int) "Plan_stop on ci_target" 1
    (count events (function
      | Event.Plan_stop { reason; _ } -> reason = "ci_target"
      | _ -> false))

(* --- two concurrent clients share in-flight work ----------------------- *)

let test_serve_concurrent_sharing () =
  with_temp_dir @@ fun dir ->
  let libdir = Filename.concat dir "lib" in
  let spec =
    Campaign.normalize
      { spec1 with offsets = [ 8_000; 16_000; 24_000; 32_000 ] }
  in
  let p1, a1 = spawn_worker () in
  let p2, a2 = spawn_worker () in
  Fun.protect
    ~finally:(fun () -> reap p1; reap p2)
    (fun () ->
      let client name delay addr =
        if delay > 0.0 then Unix.sleepf delay;
        match Client.submit addr spec with
        | Ok (st, doc) ->
          write_file
            (Filename.concat dir (name ^ ".stats"))
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched);
          write_file (Filename.concat dir (name ^ ".json")) doc
        | Error e -> write_file (Filename.concat dir (name ^ ".err")) e
      in
      let pipe1 = Unix.pipe () and pipe2 = Unix.pipe () in
      let pid1 = fork_client pipe1 (client "one" 0.0) in
      let pid2 = fork_client pipe2 (client "two" 0.75) in
      let bus, events = collecting_bus () in
      (* the staggered client submits 0.75 s later and finds each window
         either still in flight (a join) or in the library (a hit); either
         way it dispatches nothing.  The join path itself is pinned by the
         in-flight test below. *)
      Serve.serve ~bus ~quiet:true ~workers:(fun () -> [ a1; a2 ]) ~credit:1
        ~max_submissions:2
        ~ready:(announce [ snd pipe1; snd pipe2 ])
        ~library:libdir ~host:"127.0.0.1" ~port:0 ();
      wait pid1;
      wait pid2;
      let s1 = parse_stats (must_read dir "one.stats") in
      let s2 = parse_stats (must_read dir "two.stats") in
      let (_, _, h1, d1) = s1 and (_, _, h2, d2) = s2 in
      (* every window ran exactly once, whoever got there first *)
      Alcotest.(check int) "four units dispatched in total" 4 (d1 + d2);
      Alcotest.(check int) "four windows served without dispatch" 4 (h1 + h2);
      Alcotest.(check int) "the staggered client dispatched nothing" 0 d2;
      Alcotest.(check string) "both clients got byte-identical documents"
        (must_read dir "one.json") (must_read dir "two.json");
      Alcotest.(check int) "both submissions observed" 2
        (count events (function Event.Submit _ -> true | _ -> false));
      Alcotest.(check bool) "the shared windows were observed as hits" true
        (count events (function
           | Event.Artifact_hit { key } -> not (has_prefix "ckpts:" key)
           | _ -> false)
        >= 4))

(* --- queued work goes out as soon as a slot frees ----------------------- *)

(* Six windows through one one-slot worker at [credit 2]: each time a unit
   settles, the next queued one must leave at once.  A daemon that sleeps
   on a timer while units wait shows the timer's period in the gap from a
   [Dispatch_done] to the next [Dispatch_sent]; the windows themselves
   take a few milliseconds. *)
let test_serve_no_idle_gap () =
  with_temp_dir @@ fun dir ->
  with_worker @@ fun waddr ->
  let spec =
    Campaign.normalize
      { spec1 with offsets = List.init 6 (fun i -> 4_000 + (i * 5_000)) }
  in
  let pipe = Unix.pipe () in
  let pid =
    fork_client pipe (fun addr ->
        match Client.submit addr spec with
        | Ok (st, _) ->
          write_file
            (Filename.concat dir "six.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched)
        | Error e -> write_file (Filename.concat dir "six.err") e)
  in
  let bus = Darco_obs.Bus.create () in
  let stamps = ref [] in
  Darco_obs.Bus.attach bus ~name:"stamps" (fun ~at ev ->
      match ev with
      | Event.Dispatch_sent _ -> stamps := (`Sent, at) :: !stamps
      | Event.Dispatch_done _ -> stamps := (`Done, at) :: !stamps
      | _ -> ());
  Serve.serve ~bus ~quiet:true ~workers:(fun () -> [ waddr ]) ~credit:2
    ~max_submissions:1
    ~ready:(announce [ snd pipe ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait pid;
  Alcotest.(check (list int)) "six windows dispatched" [ 6; 6; 0; 6 ]
    (let a, b, c, d = parse_stats (must_read dir "six.stats") in
     [ a; b; c; d ]);
  (* every settled unit followed by another send, in stamp order *)
  let rec gaps acc = function
    | (`Done, d) :: rest -> (
      match List.find_opt (fun (k, _) -> k = `Sent) rest with
      | Some (_, s) -> gaps ((s - d) :: acc) rest
      | None -> List.rev acc)
    | _ :: rest -> gaps acc rest
    | [] -> List.rev acc
  in
  let gaps = gaps [] (List.rev !stamps) in
  Alcotest.(check int) "a gap after every window but the last" 5
    (List.length gaps);
  List.iter
    (fun g ->
      if g >= 50_000 then
        Alcotest.failf "%d us from a dispatch_done to the next dispatch_sent" g)
    gaps

(* --- clients are served, and joined, while a unit runs ------------------ *)

(* A one-slot worker that holds each unit [hold] seconds before running
   it.  Its store spills to a directory, so the unit resolves its
   checkpoint from the copy the daemon pushed. *)
let slow_worker dir hold =
  let store_dir = Filename.concat dir "wstore" in
  Unix.mkdir store_dir 0o755;
  spawn_worker ~store_dir
    ~exec:(fun w ->
      Unix.sleepf hold;
      Work.exec ~store:(Store.create ~dir:store_dir ()) w)
    ()

let geti k j = Option.value ~default:(-1) (Option.bind (J.member k j) J.to_int)
let gets k j = Option.value ~default:"" (Option.bind (J.member k j) J.to_str)
let getl k j = match J.member k j with Some (J.List l) -> l | _ -> []

(* Wait until HLTH shows the campaign with a unit in flight, ask STAT, and
   look again: the answer counts once no window settled in between (the
   same [done] on both looks).  Then submit the same campaign, which must
   join the windows still pending. *)
let in_flight_probe dir addr =
  let save name s = write_file (Filename.concat dir name) s in
  let look () =
    match Client.health addr with
    | Error _ -> None
    | Ok doc -> (
      let j = J.parse doc in
      match
        List.find_opt
          (fun c -> gets "benchmark" c = "continuous")
          (getl "campaigns" j)
      with
      | Some c
        when List.exists (fun w -> geti "in_flight" w >= 1) (getl "workers" j) ->
        Some (geti "done" c)
      | _ -> None)
  in
  let rec ask tries =
    if tries = 0 then save "stat.err" "never saw a unit in flight"
    else
      match look () with
      | None ->
        Unix.sleepf 0.01;
        ask (tries - 1)
      | Some before -> (
        let asked = Unix.gettimeofday () in
        match Client.status addr with
        | Error e -> save "stat.err" e
        | Ok _ -> (
          let answered = Unix.gettimeofday () in
          match look () with
          | Some after when after = before ->
            save "stat_at" (Printf.sprintf "%.6f %.6f" asked answered)
          | _ -> ask (tries - 1)))
  in
  ask 300;
  match Client.submit addr spec1 with
  | Ok (st, doc) ->
    save "join.stats"
      (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
         st.Client.hits st.Client.dispatched);
    save "join.json" doc
  | Error e -> save "join.err" e

let test_serve_in_flight () =
  with_temp_dir @@ fun dir ->
  let wp, waddr = slow_worker dir 0.3 in
  Fun.protect ~finally:(fun () -> reap wp) @@ fun () ->
  let pipe1 = Unix.pipe () and pipe2 = Unix.pipe () in
  let first =
    fork_client pipe1 (fun addr ->
        match Client.submit addr spec1 with
        | Ok (st, doc) ->
          write_file
            (Filename.concat dir "first.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched);
          write_file (Filename.concat dir "first.json") doc
        | Error e -> write_file (Filename.concat dir "first.err") e)
  in
  let probe = fork_client pipe2 (in_flight_probe dir) in
  let bus, events = collecting_bus () in
  (* wall times on this side of the wire, comparable with the probe's *)
  let wall = ref [] in
  Darco_obs.Bus.attach bus ~name:"wall" (fun ~at:_ ev ->
      match ev with
      | Event.Dispatch_sent { unit_label; _ } ->
        wall := (`Sent, unit_label, Unix.gettimeofday ()) :: !wall
      | Event.Dispatch_done { unit_label; _ } ->
        wall := (`Done, unit_label, Unix.gettimeofday ()) :: !wall
      | _ -> ());
  Serve.serve ~bus ~quiet:true ~workers:(fun () -> [ waddr ]) ~max_submissions:2
    ~ready:(announce [ snd pipe1; snd pipe2 ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait first;
  wait probe;
  let stats name =
    let a, b, c, d = parse_stats (must_read dir (name ^ ".stats")) in
    [ a; b; c; d ]
  in
  Alcotest.(check (list int)) "first client dispatched every window"
    [ 3; 3; 0; 3 ] (stats "first");
  (* STAT was answered before the unit in flight when it was asked
     settled *)
  let asked, answered =
    Scanf.sscanf (must_read dir "stat_at") "%f %f" (fun a b -> (a, b))
  in
  let wall = List.rev !wall in
  let unit_ =
    List.fold_left
      (fun acc (k, l, t) -> if k = `Sent && t <= asked then Some l else acc)
      None wall
  in
  (match unit_ with
  | None -> Alcotest.fail "no unit was sent before STAT was asked"
  | Some l -> (
    match List.find_opt (fun (k, l', _) -> k = `Done && l' = l) wall with
    | Some (_, _, done_at) ->
      if answered >= done_at then
        Alcotest.failf "STAT answered %.1f ms after %s settled"
          ((answered -. done_at) *. 1e3) l
    | None -> Alcotest.failf "%s never settled" l));
  (* the second client joined the windows in flight *)
  Alcotest.(check (list int)) "the joining client dispatched nothing"
    [ 3; 3; 3; 0 ] (stats "join");
  Alcotest.(check int) "one dispatch per window" 3
    (count events (function Event.Dispatch_sent _ -> true | _ -> false));
  Alcotest.(check int) "joins are not library hits" 0
    (count events (function
      | Event.Artifact_hit { key } -> not (has_prefix "ckpts:" key)
      | _ -> false));
  Alcotest.(check string) "first document byte-identical to serial"
    (Lazy.force expected_doc) (must_read dir "first.json");
  Alcotest.(check string) "joined document byte-identical"
    (must_read dir "first.json") (must_read dir "join.json")

(* --- live telemetry end to end ----------------------------------------- *)

module Top = Darco_serve.Top
module Reg = Darco_obs.Registry
module Version = Darco_util.Version

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A campaign long enough to still be in flight when the probe looks:
   ten wide windows, dispatched one per round ([credit 1]). *)
let spec_slow =
  Campaign.normalize
    {
      spec1 with
      Campaign.offsets = List.init 10 (fun i -> 2_000 + (i * 2_000));
      window = 120_000;
    }

(* A probe client: poll [darco top]'s exact fetch until the campaign is
   visibly in flight, persist that one view (top text, METR snapshot, HLTH
   document), ask for STAT, and only then submit the second campaign that
   lets the service exit.  [Top.fetch] scrapes METR and HLTH over two
   connections, so the METR half can predate the admission that the HLTH
   half shows: a view counts only once both halves show the campaign. *)
let in_flight (v : Top.view) =
  contains (Top.render v) "continuous"
  && Option.value ~default:0
       (List.assoc_opt "serve_campaigns_active" v.Top.metrics.Reg.gauges)
     >= 1

let telemetry_probe dir addr =
  let save name s = write_file (Filename.concat dir name) s in
  let rec grab tries =
    match Top.fetch addr with
    | Ok v when tries = 0 || in_flight v -> Ok v
    | Error e when tries = 0 -> Error e
    | _ ->
      Unix.sleepf 0.05;
      grab (tries - 1)
  in
  (match grab 100 with
  | Error e -> save "probe.err" e
  | Ok v ->
    save "top.txt" (Top.render v);
    save "scrape.json" (J.to_string (Reg.to_json v.Top.metrics));
    save "scrape.prom" (Reg.exposition v.Top.metrics);
    save "health.json" (J.to_string v.Top.health));
  (match Client.status addr with
  | Ok (state, _, info) ->
    save "status.txt"
      (Printf.sprintf "%s %d %s" state info.Client.uptime_s
         info.Client.version)
  | Error e -> save "status.err" e);
  match Client.submit addr spec1 with
  | Ok (st, doc) ->
    save "work.stats"
      (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
         st.Client.hits st.Client.dispatched);
    save "work.json" doc
  | Error e -> save "work.err" e

let test_serve_telemetry () =
  with_temp_dir @@ fun dir ->
  let metrics_file = Filename.concat dir "metrics.prom" in
  let wp, waddr = spawn_worker () in
  Fun.protect ~finally:(fun () -> reap wp) @@ fun () ->
  let pipe1 = Unix.pipe () and pipe2 = Unix.pipe () in
  let slow_pid =
    fork_client pipe1 (fun addr ->
        match Client.submit addr spec_slow with
        | Ok (st, _) ->
          write_file
            (Filename.concat dir "slow.stats")
            (Printf.sprintf "%d %d %d %d" st.Client.done_ st.Client.total
               st.Client.hits st.Client.dispatched)
        | Error e -> write_file (Filename.concat dir "slow.err") e)
  in
  let probe_pid = fork_client pipe2 (telemetry_probe dir) in
  let bus, _events = collecting_bus () in
  Serve.serve ~bus ~quiet:true ~workers:(fun () -> [ waddr ]) ~credit:1 ~max_submissions:2
    ~metrics_file ~metrics_interval:0.2
    ~ready:(announce [ snd pipe1; snd pipe2 ])
    ~library:(Filename.concat dir "lib") ~host:"127.0.0.1" ~port:0 ();
  wait slow_pid;
  wait probe_pid;
  (* the slow campaign measured everything *)
  Alcotest.(check (list int)) "slow campaign settled every window"
    [ 10; 10; 0; 10 ]
    (let a, b, c, d = parse_stats (must_read dir "slow.stats") in
     [ a; b; c; d ]);
  (* the campaign itself is untouched by telemetry: byte-identical to
     what [darco sample --json] computes with no registry anywhere *)
  Alcotest.(check string) "document byte-identical with telemetry on"
    (Lazy.force expected_doc)
    (must_read dir "work.json");
  (* the probe's single consistent view, taken mid-campaign *)
  let top = must_read dir "top.txt" in
  Alcotest.(check bool) "top names the build" true
    (contains top ("darco serve " ^ Version.string));
  Alcotest.(check bool) "top shows the campaign row" true
    (contains top "continuous");
  Alcotest.(check bool) "top shows the worker table" true
    (contains top "up");
  let prom = must_read dir "scrape.prom" in
  Alcotest.(check bool) "exposition types the submissions counter" true
    (contains prom "# TYPE darco_submissions_total counter\n");
  Alcotest.(check (option string)) "one submission at probe time"
    (Some "darco_submissions_total 1")
    (List.find_opt
       (fun l -> has_prefix "darco_submissions_total " l)
       (String.split_on_char '\n' prom));
  (match Reg.of_json (J.parse (must_read dir "scrape.json")) with
  | Error e -> Alcotest.failf "scraped snapshot does not parse: %s" e
  | Ok s ->
    let counter n = Option.value ~default:0 (List.assoc_opt n s.Reg.counters) in
    let gauge n = Option.value ~default:0 (List.assoc_opt n s.Reg.gauges) in
    Alcotest.(check bool) "events flowed" true (counter "events_total" > 0);
    Alcotest.(check int) "one campaign active mid-flight" 1
      (gauge "serve_campaigns_active");
    Alcotest.(check bool) "windows still unsettled mid-flight" true
      (gauge "serve_windows_unsettled" > 0);
    Alcotest.(check string) "client-side exposition is the same document"
      prom (Reg.exposition s));
  let health = J.parse (must_read dir "health.json") in
  Alcotest.(check string) "health: serving" "serving" (gets "state" health);
  Alcotest.(check string) "health: build version" Version.string
    (gets "version" health);
  Alcotest.(check int) "health: protocol" Wire.protocol_version
    (geti "protocol" health);
  Alcotest.(check bool) "health: uptime counted" true
    (geti "uptime_s" health >= 0);
  Alcotest.(check bool) "health: the campaign is listed" true
    (List.exists (fun c -> gets "benchmark" c = "continuous")
       (getl "campaigns" health));
  Alcotest.(check bool) "health: the worker is up" true
    (List.exists (fun w -> gets "state" w = "up") (getl "workers" health));
  (* STAT carries the v5 tail *)
  (match String.split_on_char ' ' (must_read dir "status.txt") with
  | [ state; up; version ] ->
    Alcotest.(check string) "status state" "serving" state;
    Alcotest.(check string) "status version" Version.string version;
    Alcotest.(check bool) "status uptime" true (int_of_string up >= 0)
  | _ -> Alcotest.fail "malformed status line");
  (* the periodic dump: valid exposition text, final state on disk *)
  let dump = must_read dir "metrics.prom" in
  Alcotest.(check bool) "metrics file dumped" true (String.length dump > 0);
  Alcotest.(check bool) "final dump counts both submissions" true
    (contains dump "darco_submissions_total 2\n");
  List.iter
    (fun line ->
      if line <> "" && not (has_prefix "# TYPE darco_" line)
         && not (has_prefix "darco_" line)
      then Alcotest.failf "stray exposition line %S" line)
    (String.split_on_char '\n' dump)

let () =
  Alcotest.run "serve"
    [
      ( "campaign",
        [
          Alcotest.test_case "codec roundtrip and rejection" `Quick
            test_campaign_codec;
          Alcotest.test_case "content digests" `Quick test_campaign_digests;
          Alcotest.test_case "golden SUBM frame" `Quick test_subm_golden;
          Alcotest.test_case "golden DCAM v2" `Quick test_dcam_v2_golden;
        ] );
      ( "library",
        [
          Alcotest.test_case "window artifacts" `Quick test_library_windows;
          Alcotest.test_case "corruption refused" `Quick
            test_library_corruption;
          Alcotest.test_case "checkpoint sets" `Quick test_library_checkpoints;
          Alcotest.test_case "golden DART and DCKI" `Quick test_library_golden;
        ] );
      ( "service",
        [
          Alcotest.test_case "resubmit, restore, restart" `Quick
            test_serve_resubmit_and_restore;
          Alcotest.test_case "unreadable checkpoint set regenerated" `Quick
            test_serve_unreadable_checkpoints;
          Alcotest.test_case "admission decodes no checkpoint" `Quick
            test_serve_admission_decodes_nothing;
          Alcotest.test_case "concurrent clients share work" `Quick
            test_serve_concurrent_sharing;
          Alcotest.test_case "adaptive campaign exits early" `Quick
            test_serve_adaptive_campaign;
          Alcotest.test_case "no idle gap between queued units" `Quick
            test_serve_no_idle_gap;
          Alcotest.test_case "clients served and joined while a unit runs"
            `Quick test_serve_in_flight;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "scrape, top, health, metrics file" `Quick
            test_serve_telemetry;
        ] );
      (* last: should the revival fail, the round falls back to domains in
         this process, after which no test may fork *)
      ( "fleet",
        [
          Alcotest.test_case "dead worker restarted between rounds" `Quick
            test_serve_revives_fleet_worker;
        ] );
    ]
