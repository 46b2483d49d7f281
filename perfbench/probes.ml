(* Direct calls into the sampling, dispatch and serve layers, one at a
   time, on the campaign's own programs, checkpoints and windows; plus the
   checkpoint and library figures the daemon's registry reports. *)

open Darco_sampling
module Jsonx = Darco_obs.Jsonx
module Wire = Darco_dispatch.Wire
module Library = Darco_serve.Library

(* Mean wall time of one [f x], over rounds of every [x] repeated until
   [min_s] seconds have passed. *)
let per_call ?(min_s = 0.05) f xs =
  let t0 = Util.now_ns () in
  let calls = ref 0 in
  while !calls = 0 || Util.secs (Util.now_ns () - t0) < min_s do
    List.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    calls := !calls + List.length xs
  done;
  float_of_int (Util.now_ns () - t0) /. float_of_int !calls

let send_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let sampling ~seed (shape : Service.shape) =
  let per_bench =
    List.map
      (fun bench ->
        let a, _ = Service.specs ~seed shape bench in
        let program = (Darco_workloads.Registry.find bench).build ~scale:1 () in
        let cps, ff_s =
          Util.time (fun () ->
              Driver.functional_checkpoints ~seed ~interval:Service.interval
                ~horizon:Service.horizon program)
        in
        (a, cps, ff_s))
      shape.benches
  in
  let ff_s = Util.sum (List.map (fun (_, _, s) -> s) per_bench) in
  let ff_insns = List.length per_bench * Service.horizon in
  let cps = List.concat_map (fun (_, c, _) -> c) per_bench in
  let snaps = List.map (fun (c : Driver.checkpoint) -> c.snapshot) cps in
  let encoded = List.map Snapshot.to_string snaps in
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  let mean_bytes = float_of_int bytes /. float_of_int (List.length encoded) in
  let encode_ns = per_call Snapshot.to_string snaps in
  let decode_ns = per_call Snapshot.of_string encoded in
  let store = Store.create () in
  let digests = List.map (Store.add store) encoded in
  let find_ns = per_call (Store.find store) digests in
  (* the frames one campaign puts on the wire: a work unit per window and
     each checkpoint once *)
  let frames =
    List.concat_map
      (fun ((a : Darco_serve.Campaign.t), cps, _) ->
        List.mapi
          (fun i off ->
            let w =
              Work.of_window_stored ~store ~checkpoints:cps
                ~label:(Printf.sprintf "%s@%d" a.bench off)
                ~offset:off ~window:a.window ~warmup:a.warmup
            in
            Wire.Work { id = i; unit_ = Work.to_string w })
          a.offsets)
      per_bench
    @ List.map2 (fun digest bytes -> Wire.Ckpt { digest; bytes }) digests encoded
  in
  let encode_us = per_call Wire.encode frames /. 1e3 in
  let wires = List.map Wire.encode frames in
  let decode_us =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
    let ns = ref 0 and n = ref 0 in
    let t0 = Util.now_ns () in
    while !n = 0 || Util.secs (Util.now_ns () - t0) < 0.05 do
      List.iter
        (fun w ->
          send_all a w;
          let t = Util.now_ns () in
          ignore (Wire.recv b);
          ns := !ns + (Util.now_ns () - t);
          incr n)
        wires
    done;
    float_of_int !ns /. float_of_int !n /. 1e3
  in
  [ ("sampling.driver.ff_mips", float_of_int ff_insns /. (ff_s *. 1e6), "insn/us");
    ("sampling.snapshot.bytes", mean_bytes, "B");
    ("sampling.snapshot.encode_ns_per_byte", encode_ns /. mean_bytes, "ns/B");
    ("sampling.snapshot.decode_ns_per_byte", decode_ns /. mean_bytes, "ns/B");
    ("sampling.store.find_ns", find_ns, "ns");
    ("dispatch.wire.encode_us", encode_us, "us");
    ("dispatch.wire.decode_us", decode_us, "us") ]

(* Put, warm find and cold find on a temporary library, with the window
   texts the campaign produced. *)
let library ~dir texts =
  Util.rm_rf dir;
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let keyed =
    List.mapi
      (fun i text ->
        ( { Library.bench = "probe"; cfg = Store.digest "probe";
            snap = Store.digest (string_of_int i); offset = i;
            window = Service.window; warmup = Service.warmup },
          text ))
      texts
  in
  let lib = Library.create ~dir () in
  let t0 = Util.now_ns () in
  List.iter (fun (k, text) -> Library.put_window lib k text) keyed;
  let put_us = float_of_int (Util.now_ns () - t0) /. 1e3 /. float_of_int (List.length keyed) in
  let keys = List.map fst keyed in
  let warm_us = per_call (Library.find_window lib) keys /. 1e3 in
  (* a fresh handle per round, opened outside the timing: every read goes
     to disk and re-verifies *)
  let cold_us =
    let ns = ref 0 and n = ref 0 in
    while !n = 0 || Util.secs !ns < 0.05 do
      let fresh = Library.create ~dir () in
      let t0 = Util.now_ns () in
      List.iter (fun k -> ignore (Library.find_window fresh k)) keys;
      ns := !ns + (Util.now_ns () - t0);
      n := !n + List.length keys
    done;
    float_of_int !ns /. 1e3 /. float_of_int !n
  in
  [ ("serve.library.put_window_us", put_us, "us");
    ("serve.library.find_window_us.warm", warm_us, "us");
    ("serve.library.find_window_us.cold", cold_us, "us") ]

(* Checkpoint shipping and library hit figures from the daemon's registry. *)
let scraped text =
  let j = Jsonx.parse text in
  let find path =
    List.fold_left (fun acc k -> Option.bind acc (Jsonx.member k)) (Some j) path
    |> fun v -> Option.value ~default:0 (Option.bind v Jsonx.to_int)
  in
  let c name = float_of_int (find [ "counters"; name ]) in
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  [ ("dispatch.ckpt_push_bytes", float_of_int (find [ "hists"; "ckpt_push_bytes"; "sum" ]), "B");
    ("dispatch.ckpt_hit_ratio", ratio (c "ckpt_hits_total") (c "ckpt_pushes_total"), "frac");
    ("serve.library.hit_ratio", ratio (c "artifact_hits_total") (c "artifact_stores_total"), "frac") ]
