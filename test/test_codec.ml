(* One law for every binary format (DSNP, DWRK, DCAM, DART/DCKI and the
   wire frames):

   - round trip: decoding an encoding gives back the value, on generated
     values and on real snapshot captures (which must also re-encode to
     the very same bytes);
   - truncation: every proper prefix of an encoding is refused;
   - single-byte changes: a change inside a CRC-covered payload, or in a
     length or CRC field, is refused — and in a DSNP file a change
     anywhere;
   - totality: a payload changed and sealed again under a recomputed CRC
     (and any change to a DCAM, which has no CRC) decodes or is refused
     with [Buf.Corrupt], never any other exception.

   "Refused" means [Buf.Corrupt]; a wire frame is read from a socket,
   where a frame cut short may also surface as [Wire.Closed].  Every
   property runs a fixed count from a fixed seed. *)

open Darco_sampling
module Code = Darco_host.Code
module Tconfig = Darco_timing.Tconfig
module Stats = Darco_obs.Stats
module Wire = Darco_dispatch.Wire
module Campaign = Darco_serve.Campaign
module Library = Darco_serve.Library
module G = QCheck.Gen

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let fixture name = read_file (Filename.concat "fixtures" name)

let temp_dir () =
  let dir = Filename.temp_file "darco_codec" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let law ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2017 |])
    (QCheck.Test.make ~count ~name (QCheck.make gen) prop)

(* --- generators ------------------------------------------------------- *)

let g_int = G.oneof [ G.small_signed_int; G.int ]
let g_str = G.(string_size ~gen:char (int_bound 24))
let g_digest = G.map Store.digest g_str

let g_campaign =
  G.(
    map
      (fun ((bench, scale, seed, input), (interval, horizon, offsets), (window, warmup, ci)) ->
        {
          Campaign.bench;
          scale;
          seed;
          input;
          interval;
          horizon;
          offsets;
          window;
          warmup;
          ci_target = ci;
        })
      (triple
         (quad g_str (int_range 1 8) g_int (opt g_str))
         (triple (int_range 1 1_000_000) g_int (small_list g_int))
         (triple (int_range 1 100_000) (int_bound 100_000) (opt (float_range 0.001 1.0)))))

let g_work =
  G.(
    map
      (fun ((label, inline), (offset, window, warmup)) ->
        {
          Work.label;
          ckpt = (if inline then Work.Inline label else Work.Stored (Store.digest label));
          offset;
          window;
          warmup;
        })
      (pair (pair g_str bool) (triple g_int (int_range 1 100_000) (int_bound 100_000))))

let g_msg =
  G.(
    oneof
      [
        map2 (fun version slots -> Wire.Hello { version; slots }) g_int g_int;
        return Wire.Ping;
        return Wire.Pong;
        map2 (fun id unit_ -> Wire.Work { id; unit_ }) g_int g_str;
        map3 (fun id text spans -> Wire.Result { id; text; spans }) g_int g_str g_str;
        map2 (fun id reason -> Wire.Fail { id; reason }) g_int g_str;
        map (fun digest -> Wire.Need { digest }) g_digest;
        map (fun bytes -> Wire.Ckpt { digest = Store.digest bytes; bytes }) g_str;
        map2 (fun id sweep -> Wire.Submit { id; sweep }) g_int g_str;
        map
          (fun ((id, state, done_, total), (hits, dispatched, (uptime_s, version))) ->
            Wire.Status { id; state; done_; total; hits; dispatched; uptime_s; version })
          (pair (quad g_int g_str g_int g_int)
             (triple g_int g_int (oneof [ return (0, ""); pair g_int g_str ])));
        map3 (fun id key json -> Wire.Artifact { id; key; json }) g_int g_str g_str;
        map2 (fun id json -> Wire.Done { id; json }) g_int g_str;
        map (fun json -> Wire.Metrics { json }) g_str;
        map (fun json -> Wire.Health { json }) g_str;
      ])

let g_key =
  G.(
    map
      (fun ((bench, cfg, snap), (offset, window, warmup)) ->
        { Library.bench; cfg; snap; offset; window; warmup })
      (pair (triple g_str g_digest g_digest) (triple g_int g_int g_int)))

let g_width = G.oneofl [ Darco_guest.Isa.W8; W16; W32 ]
let g_reg = G.int_bound 63

let g_insn : Code.insn G.t =
  let open G in
  let cmp = oneofl [ Code.Beq; Bne; Blt; Bge; Bltu; Bgeu ] in
  let binop =
    oneofl
      [ Code.Add; Sub; Mul; Mulhu; Mulhs; And; Or; Xor; Shl; Shr; Sar; Slt; Sltu; Seq; Sne ]
  in
  let exit_kind =
    oneof
      [
        map (fun pc -> Code.Exit_direct pc) g_int;
        map (fun r -> Code.Exit_indirect r) g_reg;
        map (fun pc -> Code.Exit_syscall pc) g_int;
        map (fun pc -> Code.Exit_interp pc) g_int;
        map (fun pc -> Code.Exit_promote pc) g_int;
        return Code.Exit_halt;
      ]
  in
  oneof
    [
      return Code.Nop;
      map2 (fun rd v -> Code.Li (rd, v)) g_reg g_int;
      map3 (fun op (rd, ra) rb -> Code.Bin (op, rd, ra, rb)) binop (pair g_reg g_reg) g_reg;
      map3 (fun op (rd, ra) v -> Code.Bini (op, rd, ra, v)) binop (pair g_reg g_reg) g_int;
      map3 (fun (w, s) (rd, ra) d -> Code.Load (w, s, rd, ra, d)) (pair g_width bool)
        (pair g_reg g_reg) g_int;
      map3 (fun (w, s) (rd, ra) d -> Code.Sload (w, s, rd, ra, d)) (pair g_width bool)
        (pair g_reg g_reg) g_int;
      map3 (fun w (rv, ra) d -> Code.Store (w, rv, ra, d)) g_width (pair g_reg g_reg) g_int;
      map2 (fun fd v -> Code.Fli (fd, v)) g_reg float;
      map2 (fun fd fs -> Code.Fmov (fd, fs)) g_reg g_reg;
      map3 (fun op fd (fa, fb) -> Code.Fbin (op, fd, fa, fb))
        (oneofl [ Code.Fadd; Fsub; Fmul; Fdiv ]) g_reg (pair g_reg g_reg);
      map3 (fun op fd fa -> Code.Fun (op, fd, fa)) (oneofl [ Code.Fsqrt; Fabs; Fneg ]) g_reg g_reg;
      map3 (fun fd ra d -> Code.Fload (fd, ra, d)) g_reg g_reg g_int;
      map3 (fun fv ra d -> Code.Fstore (fv, ra, d)) g_reg g_reg g_int;
      map3 (fun rd fa fb -> Code.Fcmp (rd, fa, fb)) g_reg g_reg g_reg;
      map2 (fun fd ra -> Code.Cvtif (fd, ra)) g_reg g_reg;
      map2 (fun rd fa -> Code.Cvtfi (rd, fa)) g_reg g_reg;
      map3 (fun k (rd, a) (b, c) -> Code.Mkfl (k, rd, a, b, c))
        (oneofl
           [ Code.Fl_add; Fl_adc; Fl_sub; Fl_sbb; Fl_logic; Fl_shl; Fl_shr; Fl_sar; Fl_rol;
             Fl_ror; Fl_inc; Fl_dec; Fl_neg; Fl_mulu; Fl_muls ])
        (pair g_reg g_reg) (pair g_reg g_reg);
      map2 (fun (rd, rc) (ra, rb) -> Code.Isel (rd, rc, ra, rb)) (pair g_reg g_reg)
        (pair g_reg g_reg);
      map3 (fun fn fd fs -> Code.Callrt_f (fn, fd, fs))
        (oneofl [ Code.Rt_sin; Rt_cos; Rt_divu; Rt_divs ]) g_reg g_reg;
      map3 (fun signed (q, r) (hi, lo, d) -> Code.Callrt_div { signed; q; r; hi; lo; d }) bool
        (pair g_reg g_reg) (triple g_reg g_reg g_reg);
      map3 (fun c (ra, rb) t -> Code.B (c, ra, rb, t)) cmp (pair g_reg g_reg) g_int;
      map (fun t -> Code.J t) g_int;
      map2 (fun ra rg -> Code.Jr (ra, rg)) g_reg g_reg;
      map3 (fun c ra rb -> Code.Assert (c, ra, rb)) cmp g_reg g_reg;
      return Code.Chk;
      map (fun n -> Code.Commit n) g_int;
      (* chain links only resolve inside a whole CODE section; the real
         captures below carry them *)
      map3
        (fun (exit_id, kind) guest_retired prefer_bb ->
          Code.Exit { exit_id; kind; guest_retired; chain = None; prefer_bb })
        (pair g_int exit_kind) g_int bool;
    ]

let g_region : Code.region G.t =
  G.(
    map
      (fun ((id, entry_pc, mode), (base, invalidated, code)) ->
        { Code.id; entry_pc; mode; base; code; incoming = []; invalidated })
      (pair
         (triple g_int g_int (oneofl [ `Bb; `Super ]))
         (triple g_int bool (array_size (int_bound 12) g_insn))))

let g_tconfig : Tconfig.t G.t =
  let open G in
  let geom = map (fun (sets, ways, line, latency) -> { Tconfig.sets; ways; line; latency })
      (quad g_int g_int g_int g_int) in
  let tlb = map2 (fun entries latency -> { Tconfig.entries; latency }) g_int g_int in
  map
    (fun ((ints, prefetch), (il1, dl1, l2), (itlb, dtlb, l2tlb)) ->
      let i k = ints.(k) in
      {
        Tconfig.fetch_width = i 0;
        decode_depth = i 1;
        issue_width = i 2;
        iq_size = i 3;
        phys_regs = i 4;
        n_simple = i 5;
        n_complex = i 6;
        n_vector = i 7;
        mem_read_ports = i 8;
        mem_write_ports = i 9;
        complex_mul_latency = i 10;
        fp_latency = i 11;
        fp_div_latency = i 12;
        gshare_bits = i 13;
        btb_entries = i 14;
        mispredict_penalty = i 15;
        il1;
        dl1;
        l2;
        itlb;
        dtlb;
        l2tlb;
        tlb_walk_latency = i 16;
        mem_latency = i 17;
        prefetch;
        prefetch_table = i 18;
        prefetch_degree = i 19;
        vector_length = i 20;
      })
    (triple (pair (array_repeat 21 g_int) bool) (triple geom geom geom) (triple tlb tlb tlb))

let g_stats : Stats.t G.t =
  G.(
    map
      (fun ((ints, overhead), startup_insns) ->
        let i k = ints.(k) in
        {
          Stats.guest_im = i 0;
          guest_bbm = i 1;
          guest_sbm = i 2;
          host_app_bbm = i 3;
          host_app_sbm = i 4;
          overhead;
          bb_translations = i 5;
          sb_translations = i 6;
          sb_rebuilds_noassert = i 7;
          sb_rebuilds_nomem = i 8;
          assert_rollbacks = i 9;
          alias_rollbacks = i 10;
          page_requests = i 11;
          syscalls = i 12;
          chains_made = i 13;
          chains_followed = i 14;
          ibtc_fills = i 15;
          ibtc_misses = i 16;
          code_cache_flushes = i 17;
          wasted_host = i 18;
          validations = i 19;
          startup_insns;
          unrolled_superblocks = i 20;
        })
      (pair (pair (array_repeat 21 g_int) (array_repeat 7 g_int)) (opt g_int)))

(* --- the law's subjects ------------------------------------------------ *)

(* A format under the law: encodings to corrupt, the full decoder (which
   refuses by raising), the offsets of each sealed payload's length
   field, and the first offset from which any change must be refused. *)
type subject = {
  name : string;
  samples : string list;
  decode : string -> unit;
  frames : string -> int list;
  guarded_from : int option;
}

let refused ?(closed_ok = false) decode s =
  match decode s with
  | () -> false
  | exception Buf.Corrupt _ -> true
  | exception Wire.Closed when closed_ok -> true

(* Decode raw bytes exactly as a peer would: through a socket. *)
let recv_bytes bytes =
  let a, b = Unix.socketpair PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a)
    (fun () ->
      ignore (Unix.write_substring b bytes 0 (String.length bytes));
      Unix.close b;
      Wire.recv ~deadline:(Unix.gettimeofday () +. 10.0) a)

let le64 at s = Int64.to_int (String.get_int64_le s at)

(* Every section of a DSNP file, after its 7-byte header. *)
let dsnp_frames s =
  let rec go at n = if n = 0 then [] else (at + 4) :: go (at + 20 + le64 (at + 4) s) (n - 1) in
  go 7 (Char.code s.[6])

let decode_snapshot s =
  let snap = Snapshot.of_string s in
  ignore (Snapshot.retired snap, Snapshot.guest_eip snap, Snapshot.manifest snap);
  ignore (Snapshot.restore_reference snap);
  ignore (Snapshot.restore snap);
  ignore (Snapshot.restore_pipeline snap)

(* Real captures: the committed corpus plus a timed capture taken now. *)
let captures =
  lazy
    (let program = (Darco_workloads.Registry.find "462.libquantum").build ~scale:1 () in
     let bus = Darco_obs.Bus.create () in
     let pipe = Darco_timing.Pipeline.create Tconfig.default in
     Darco_timing.Pipeline.attach pipe bus;
     let ctl = Darco.Controller.create ~bus ~seed:3 program in
     ignore (Darco.Controller.run ~max_insns:30_000 ctl);
     Snapshot.to_string (Snapshot.capture ~pipeline:pipe ctl)
     :: List.map fixture
          [ "mcf_40k_functional_v1.dsnp"; "mcf_40k_full_v1.dsnp"; "mcf_40k_timed_v1.dsnp" ])

let sample gen n = QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n gen

let subjects =
  lazy
    (let framed_at k _ = [ k ] in
     let lib_dir = temp_dir () in
     at_exit (fun () -> rm_rf lib_dir);
     let lib = Library.create ~dir:lib_dir () in
     (* a cold library holding just [s], filed as [file] *)
     let cold_library name file s =
       let dir = Filename.concat lib_dir name in
       if Sys.file_exists dir then rm_rf dir;
       Unix.mkdir dir 0o755;
       write_file (Filename.concat dir file) s;
       Library.create ~dir ()
     in
     let key = List.hd (sample g_key 1) in
     let dart = Library.key_id key ^ ".dart" in
     (* the checkpoint-set digest the committed index is filed under *)
     let ckpt = String.sub (fixture "ckpts_v1.dcki") 51 32 in
     let dcki = "ckpts_" ^ ckpt ^ ".dcki" in
     let stored write file = write (); read_file (Filename.concat lib_dir file) in
     [
       {
         name = "DSNP";
         samples = Lazy.force captures;
         decode = decode_snapshot;
         frames = dsnp_frames;
         guarded_from = Some 0;
       };
       {
         name = "DWRK";
         samples =
           List.map Work.to_string (sample g_work 20)
           @ [ fixture "mcf_40k_work_v1.dwrk"; fixture "mcf_40k_work_v2.dwrk" ];
         decode = (fun s -> ignore (Work.of_string s));
         frames = framed_at 5;
         guarded_from = Some 5;
       };
       {
         name = "DCAM";
         samples = List.map Campaign.to_string (sample g_campaign 20) @ [ fixture "campaign_v2.dcam" ];
         decode = (fun s -> ignore (Campaign.of_string s));
         frames = (fun _ -> []);
         guarded_from = None;
       };
       {
         name = "DART";
         samples =
           List.map
             (fun json -> stored (fun () -> Library.put_window lib key json) dart)
             (sample g_str 8);
         decode = (fun s -> ignore (Library.find_window (cold_library "dart" dart s) key));
         frames = framed_at 4;
         guarded_from = Some 4;
       };
       {
         name = "DCKI";
         samples =
           fixture "ckpts_v1.dcki"
           :: List.map
                (fun entries ->
                  stored (fun () -> Library.put_checkpoints lib ~bench:"429.mcf" ~ckpt entries) dcki)
                (sample G.(small_list (pair g_int g_digest)) 8);
         decode =
           (fun s ->
             ignore
               (Library.find_checkpoints (cold_library "dcki" dcki s) ~bench:"429.mcf" ~ckpt));
         frames = framed_at 4;
         guarded_from = Some 4;
       };
       {
         name = "wire";
         samples =
           List.map Wire.encode (sample g_msg 40)
           @ List.map fixture
               [ "wire_helo_v5.bin"; "wire_work_v5.bin"; "wire_ckpt_v5.bin"; "wire_stat_v5.bin";
                 "wire_subm_v4.bin" ];
         decode = (fun s -> ignore (recv_bytes s));
         frames = framed_at 4;
         guarded_from = Some 4;
       };
     ])

let is_wire sub = sub.name = "wire"

(* Pick a subject, one of its encodings, a position and a non-zero mask. *)
let g_site =
  G.(
    int_bound 1_000_000 >>= fun pick ->
    int_bound 1_000_000 >>= fun at ->
    int_range 1 255 >|= fun mask -> (pick, at, mask))

let choose pick xs = List.nth xs (pick mod List.length xs)

let flip s at mask =
  let b = Bytes.of_string s in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor mask));
  Bytes.to_string b

(* Change byte [off] of the sealed payload whose length field is at
   [len_at], and seal it again under a recomputed CRC. *)
let reseal s len_at off mask =
  let payload_at = len_at + 16 in
  let b = Bytes.of_string (flip s (payload_at + off) mask) in
  Bytes.set_int64_le b (len_at + 8)
    (Int64.of_int (Buf.crc32 (Bytes.sub_string b payload_at (le64 len_at s))));
  Bytes.to_string b

(* --- the law ----------------------------------------------------------- *)

let round_trips () =
  let check name gen encode decode =
    law name gen (fun v ->
        match decode (encode v) with
        | v' -> compare v v' = 0
        | exception Buf.Corrupt msg -> QCheck.Test.fail_reportf "refused its own encoding: %s" msg)
  in
  [
    check "campaign" g_campaign Campaign.to_string Campaign.of_string;
    check "work unit" g_work Work.to_string Work.of_string;
    check "wire message" g_msg Wire.encode recv_bytes;
    check "insn" g_insn (Buf.encode Snapshot.insn) (Buf.decode Snapshot.insn);
    check "region" g_region (Buf.encode Snapshot.region) (Buf.decode Snapshot.region);
    check "timing config" g_tconfig (Buf.encode Snapshot.tconfig) (Buf.decode Snapshot.tconfig);
    check "stats" g_stats (Buf.encode Snapshot.stats) (Buf.decode Snapshot.stats);
    law ~count:50 "library key and checkpoint index"
      G.(pair (pair g_key g_str) (small_list (pair g_int g_str)))
      (fun ((k, json), entries) ->
        with_dir @@ fun dir ->
        let lib = Library.create ~dir () in
        Library.put_window lib k json;
        let index = List.map (fun (at, bytes) -> (at, Store.add (Library.store lib) bytes)) entries in
        Library.put_checkpoints lib ~bench:k.bench ~ckpt:k.cfg index;
        let cold = Library.create ~dir () in
        Library.find_window cold k = Some json
        && Library.find_checkpoints cold ~bench:k.bench ~ckpt:k.cfg = Some index
        && List.for_all2
             (fun (_, d) (_, bytes) -> Store.find (Library.store cold) d = Some bytes)
             index entries);
  ]

(* Real captures decode section by section and re-encode to their bytes. *)
let test_captures_reencode () =
  List.iter
    (fun s ->
      let snap = Snapshot.of_string s in
      let again =
        match Snapshot.kind snap with
        | Snapshot.Functional -> Snapshot.capture_reference (Snapshot.restore_reference snap)
        | Full ->
          Snapshot.capture ?pipeline:(Snapshot.restore_pipeline snap) (Snapshot.restore snap)
      in
      Alcotest.(check bool) "capture re-encodes byte-identically" true
        (Snapshot.to_string again = s))
    (Lazy.force captures)

(* The law's own inputs must decode intact, or every refusal below would
   prove nothing. *)
let test_samples_decode () =
  List.iter
    (fun sub ->
      List.iter
        (fun s ->
          match sub.decode s with
          | () -> ()
          | exception e -> Alcotest.failf "%s sample refused: %s" sub.name (Printexc.to_string e))
        sub.samples)
    (Lazy.force subjects)

let truncation () =
  law ~count:600 "truncation is refused" g_site (fun (pick, at, _) ->
      let sub = choose pick (Lazy.force subjects) in
      let s = choose (pick / 7) sub.samples in
      let n = at mod String.length s in
      refused ~closed_ok:(is_wire sub) sub.decode (String.sub s 0 n)
      || QCheck.Test.fail_reportf "%s: a %d-byte prefix of %d was accepted" sub.name n
           (String.length s))

let single_byte () =
  law ~count:600 "a guarded single-byte change is refused" g_site (fun (pick, at, mask) ->
      let guarded = List.filter (fun sub -> sub.guarded_from <> None) (Lazy.force subjects) in
      let sub = choose pick guarded in
      let s = choose (pick / 7) sub.samples in
      let from = Option.get sub.guarded_from in
      (* half the changes land in headers: the container's, and each
         frame's tag, length and CRC *)
      let headers =
        List.init 7 Fun.id
        @ List.concat_map (fun len_at -> List.init 20 (fun i -> len_at - 4 + i)) (sub.frames s)
        |> List.filter (fun i -> i >= from && i < String.length s)
      in
      let at =
        if mask land 1 = 1 && headers <> [] then choose at headers
        else from + (at mod (String.length s - from))
      in
      refused ~closed_ok:(is_wire sub) sub.decode (flip s at mask)
      || QCheck.Test.fail_reportf "%s: changing byte %d of %d was accepted" sub.name at
           (String.length s))

let totality () =
  law ~count:600 "a resealed or DCAM change decodes or is refused" g_site
    (fun (pick, at, mask) ->
      let sub = choose pick (Lazy.force subjects) in
      let s = choose (pick / 7) sub.samples in
      let mutated =
        match sub.frames s with
        | [] -> flip s (at mod String.length s) mask
        | frames ->
          let len_at = choose (at / 13) frames in
          let len = le64 len_at s in
          if len = 0 then s else reseal s len_at (at mod len) mask
      in
      match sub.decode mutated with
      | () -> true
      | exception Buf.Corrupt _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s: raised %s" sub.name (Printexc.to_string e))

(* The timing configuration leads the TIMG section and sizes every
   structure a restored pipeline allocates.  Each of its bytes, changed and
   sealed again, must decode or be refused at once — a corrupt cache
   geometry once made restore allocate gigabytes or run out of memory. *)
let test_timing_geometry () =
  let timed = fixture "mcf_40k_timed_v1.dsnp" in
  let len_at = List.nth (dsnp_frames timed) 2 in
  let config_bytes = String.length (Buf.encode Snapshot.tconfig Tconfig.default) in
  for off = 0 to config_bytes - 1 do
    List.iter
      (fun mask ->
        match Snapshot.restore_pipeline (Snapshot.of_string (reseal timed len_at off mask)) with
        | _ | (exception Buf.Corrupt _) -> ())
      [ 0x01; 0x10; 0x80 ]
  done

let () =
  Alcotest.run "codec"
    [
      ("round trip", round_trips ());
      ( "captures",
        [
          Alcotest.test_case "re-encode byte-identically" `Quick test_captures_reencode;
          Alcotest.test_case "law samples decode intact" `Quick test_samples_decode;
        ] );
      ( "corruption",
        [
          truncation ();
          single_byte ();
          totality ();
          Alcotest.test_case "timing geometry checked before allocation" `Quick
            test_timing_geometry;
        ] );
    ]
