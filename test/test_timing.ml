open Darco_timing
module Code = Darco_host.Code
module Retire = Darco_host.Retire

(* --- cache --------------------------------------------------------------- *)

let small_geom : Tconfig.cache_geom = { sets = 4; ways = 2; line = 64; latency = 2 }

let mk_cache ?(geom = small_geom) () =
  Cache.create ~name:"test" geom ~parent:(fun _ ~is_write:_ -> 100)

let test_cache_hit_miss () =
  let c = mk_cache () in
  Alcotest.(check int) "cold miss" 102 (Cache.access c 0x1000 ~is_write:false);
  Alcotest.(check int) "hit" 2 (Cache.access c 0x1000 ~is_write:false);
  Alcotest.(check int) "same line hit" 2 (Cache.access c 0x1020 ~is_write:false);
  Alcotest.(check int) "different line misses" 102 (Cache.access c 0x1040 ~is_write:false);
  let st = Cache.stats c in
  Alcotest.(check int) "accesses" 4 st.accesses;
  Alcotest.(check int) "misses" 2 st.misses

let test_cache_lru_eviction () =
  let c = mk_cache () in
  (* set 0 with 2 ways: three conflicting lines *)
  let addr k = k * small_geom.line * small_geom.sets in
  ignore (Cache.access c (addr 1) ~is_write:false);
  ignore (Cache.access c (addr 2) ~is_write:false);
  ignore (Cache.access c (addr 1) ~is_write:false);
  (* 2 is now LRU; 3 evicts it *)
  ignore (Cache.access c (addr 3) ~is_write:false);
  Alcotest.(check bool) "1 survives" true (Cache.contains c (addr 1));
  Alcotest.(check bool) "2 evicted" false (Cache.contains c (addr 2))

let test_cache_writeback () =
  let c = mk_cache () in
  let addr k = k * small_geom.line * small_geom.sets in
  ignore (Cache.access c (addr 1) ~is_write:true);
  ignore (Cache.access c (addr 2) ~is_write:false);
  ignore (Cache.access c (addr 3) ~is_write:false);
  Alcotest.(check int) "dirty eviction wrote back" 1 (Cache.stats c).writebacks

let test_cache_prefetch_fill () =
  let c = mk_cache () in
  Cache.prefetch c 0x4000;
  Alcotest.(check bool) "present" true (Cache.contains c 0x4000);
  Alcotest.(check int) "demand hit after prefetch" 2
    (Cache.access c 0x4000 ~is_write:false);
  Alcotest.(check int) "no demand miss counted" 0 (Cache.stats c).misses

(* --- tlb ------------------------------------------------------------------ *)

let test_tlb () =
  let t = Tlb.create { entries = 2; latency = 0 } ~parent:(fun _ -> 30) in
  Alcotest.(check int) "cold" 30 (Tlb.access t 0x1000);
  Alcotest.(check int) "hit" 0 (Tlb.access t 0x1abc);
  ignore (Tlb.access t 0x2000);
  ignore (Tlb.access t 0x3000);
  (* 0x1000 was LRU-evicted by the third page *)
  Alcotest.(check int) "evicted" 30 (Tlb.access t 0x1000);
  Alcotest.(check bool) "miss rate sane" true (Tlb.miss_rate t > 0.5)

(* --- branch predictor ------------------------------------------------------ *)

let test_predictor_learns_bias () =
  let p = Predictor.create Tconfig.default in
  let pc = 0x1000 in
  for _ = 1 to 100 do
    ignore (Predictor.observe p ~pc ~taken:true ~target:0x2000)
  done;
  let taken, target = Predictor.predict p ~pc in
  Alcotest.(check bool) "predicts taken" true taken;
  Alcotest.(check (option int)) "btb target" (Some 0x2000) target;
  Alcotest.(check bool) "high accuracy" true (Predictor.accuracy p > 0.9)

let test_predictor_alternating_pattern () =
  (* gshare with history should learn a strict alternation *)
  let p = Predictor.create Tconfig.default in
  let pc = 0x3000 in
  let mispredicts_late = ref 0 in
  for i = 1 to 400 do
    let taken = i mod 2 = 0 in
    match Predictor.observe p ~pc ~taken ~target:0x4000 with
    | `Mispredict when i > 200 -> incr mispredicts_late
    | _ -> ()
  done;
  Alcotest.(check bool) "pattern learned" true (!mispredicts_late < 20)

let test_predictor_btb_miss_counts () =
  let p = Predictor.create Tconfig.default in
  (* taken branch with no BTB entry: mispredict even if direction right *)
  for _ = 1 to 5 do
    ignore (Predictor.observe p ~pc:0x1000 ~taken:true ~target:0x2000)
  done;
  Alcotest.(check bool) "btb misses recorded" true ((Predictor.stats p).btb_misses >= 1)

(* --- prefetcher ------------------------------------------------------------ *)

let test_stride_prefetcher () =
  let dl1 = mk_cache ~geom:{ sets = 64; ways = 4; line = 64; latency = 2 } () in
  let pf = Prefetch.create Tconfig.default ~into:dl1 in
  (* constant stride of 256 bytes from one load PC *)
  for i = 0 to 9 do
    Prefetch.observe pf ~pc:0x1000 ~addr:(0x10000 + (i * 256))
  done;
  Alcotest.(check bool) "prefetches issued" true ((Prefetch.stats pf).issued > 0);
  (* the next strided line should already be resident *)
  Alcotest.(check bool) "next line resident" true (Cache.contains dl1 (0x10000 + (10 * 256)))

let test_prefetcher_ignores_random () =
  let dl1 = mk_cache () in
  let pf = Prefetch.create Tconfig.default ~into:dl1 in
  let rng = Darco_util.Rng.create 4 in
  for _ = 0 to 30 do
    Prefetch.observe pf ~pc:0x1000 ~addr:(Darco_util.Rng.int rng 0x100000)
  done;
  Alcotest.(check bool) "no stable stride, few prefetches" true
    ((Prefetch.stats pf).issued <= 4)

(* --- pipeline --------------------------------------------------------------- *)

let ri ?(pc = 0xC0000000) ?mem ?branch insn : Ref_pipeline.retire_info =
  { host_pc = pc; insn; mem_access = mem; branch }

let feed cfg stream =
  let p = Pipeline.create cfg in
  Ref_pipeline.consume_all p stream;
  p

let nop_stream n = List.init n (fun i -> ri ~pc:(0xC0000000 + (4 * i)) (Code.Li (20, i)))

let test_pipeline_width_bound () =
  let p = feed Tconfig.default (nop_stream 1000) in
  let s = Pipeline.summary p in
  Alcotest.(check bool) "IPC less than issue width" true
    (s.ipc <= float_of_int Tconfig.default.issue_width +. 0.001);
  Alcotest.(check int) "all retired" 1000 s.instructions;
  (* wider core must not be slower *)
  let pw = feed Tconfig.wide (nop_stream 1000) in
  Alcotest.(check bool) "wide >= narrow IPC" true
    ((Pipeline.summary pw).ipc >= s.ipc -. 0.001)

let test_pipeline_dependency_chain () =
  (* a serial dependency chain cannot exceed IPC 1 *)
  let chain = List.init 600 (fun i -> ri ~pc:(0xC0000000 + (4 * i)) (Code.Bini (Add, 20, 20, 1))) in
  let p = feed Tconfig.wide chain in
  Alcotest.(check bool) "chain serializes" true ((Pipeline.summary p).ipc <= 1.01);
  (* independent instructions on a wide core do better *)
  let par =
    List.init 600 (fun i -> ri ~pc:(0xC0000000 + (4 * i)) (Code.Bini (Add, 20 + (i mod 8), 21, 1)))
  in
  let p2 = feed Tconfig.wide par in
  Alcotest.(check bool) "parallel faster" true
    ((Pipeline.summary p2).ipc > (Pipeline.summary p).ipc)

let test_pipeline_memory_latency () =
  (* dependent loads with cache-hostile strides are slower than hits *)
  let loads stride =
    List.init 500 (fun i ->
        ri ~pc:0xC0000000
          ~mem:(0x10000 + (i * stride), `Load)
          (Code.Load (W32, false, 20, 21, 0)))
  in
  let hot = feed Tconfig.default (loads 0) in
  let cold = feed { Tconfig.default with prefetch = false } (loads 8192) in
  Alcotest.(check bool) "misses cost cycles" true
    (Pipeline.cycles cold > Pipeline.cycles hot);
  Alcotest.(check bool) "miss rates ordered" true
    ((Pipeline.summary cold).dl1_miss_rate > (Pipeline.summary hot).dl1_miss_rate)

let test_pipeline_mispredict_penalty () =
  let branchy taken_fn =
    List.init 800 (fun i ->
        ri ~pc:0xC0000000
          ~branch:(taken_fn i, 0xC0001000)
          (Code.B (Beq, 20, 21, 5)))
  in
  let predictable = feed Tconfig.default (branchy (fun _ -> true)) in
  (* adversarial: pseudo-random direction *)
  let rng = Darco_util.Rng.create 9 in
  let random = feed Tconfig.default (branchy (fun _ -> Darco_util.Rng.bool rng)) in
  Alcotest.(check bool) "mispredicts slow the core" true
    (Pipeline.cycles random > Pipeline.cycles predictable)

let test_pipeline_long_ops () =
  let sins =
    List.init 50 (fun _ -> ri (Code.Callrt_f (Rt_sin, 8, 9)))
  in
  let p = feed Tconfig.default sins in
  Alcotest.(check bool) "transcendentals occupy the unit" true
    (Pipeline.cycles p >= 50 * Code.rt_cost Rt_sin);
  Alcotest.(check int) "stream weight" (50 * Code.rt_cost Rt_sin) (Pipeline.instructions p)

let prop_pipeline_monotone_cycles =
  QCheck.Test.make ~name:"cycles grow monotonically with the stream" ~count:50
    QCheck.small_int (fun seed ->
      let rng = Darco_util.Rng.create seed in
      let p = Pipeline.create Tconfig.default in
      let b = Retire.create 1 in
      let ok = ref true in
      let last = ref 0 in
      for i = 0 to 300 do
        let insn : Code.insn =
          match Darco_util.Rng.int rng 5 with
          | 0 -> Code.Li (20, i)
          | 1 -> Code.Bin (Add, 21, 20, 21)
          | 2 -> Code.Load (W32, false, 22, 21, 0)
          | 3 -> Code.Store (W32, 22, 21, 0)
          | _ -> Code.Fbin (Fmul, 8, 9, 10)
        in
        let mem =
          match insn with
          | Code.Load _ -> Some (Darco_util.Rng.int rng 0x40000, `Load)
          | Code.Store _ -> Some (Darco_util.Rng.int rng 0x40000, `Store)
          | _ -> None
        in
        b.length <- 0;
        Ref_pipeline.add b (ri ?mem ~pc:(0xC0000000 + (4 * i)) insn);
        Pipeline.consume p b;
        let c = Pipeline.cycles p in
        if c < !last then ok := false;
        last := c
      done;
      !ok)

let test_events_populated () =
  let p =
    feed Tconfig.default
      (List.init 100 (fun i ->
           ri ~pc:(0xC0000000 + (4 * i))
             ~mem:(0x5000 + (4 * i), `Load)
             (Code.Load (W32, false, 20, 21, 0))))
  in
  let e = Pipeline.events p in
  Alcotest.(check int) "mem reads" 100 e.e_mem_reads;
  Alcotest.(check bool) "cycles" true (e.e_cycles > 0);
  Alcotest.(check bool) "regfile activity" true (e.e_regfile_writes > 0)

(* --- differential test against the reference model ------------------------ *)

(* Every [Code.insn] constructor has an index, by an exhaustive match: a new
   constructor fails to compile here, and then fails the coverage test
   until the stream generator below produces it. *)
let n_constructors = 27

let constructor_index : Code.insn -> int = function
  | Nop -> 0 | Li _ -> 1 | Bin _ -> 2 | Bini _ -> 3 | Load _ -> 4 | Sload _ -> 5
  | Store _ -> 6 | Fli _ -> 7 | Fmov _ -> 8 | Fbin _ -> 9 | Fun _ -> 10 | Fload _ -> 11
  | Fstore _ -> 12 | Fcmp _ -> 13 | Cvtif _ -> 14 | Cvtfi _ -> 15 | Mkfl _ -> 16
  | Isel _ -> 17 | Callrt_f _ -> 18 | Callrt_div _ -> 19 | B _ -> 20 | J _ -> 21
  | Jr _ -> 22 | Assert _ -> 23 | Chk -> 24 | Commit _ -> 25 | Exit _ -> 26

(* One instruction of constructor [i], with random operands.  r0 is among
   the registers, so the operand sets' r0 filtering is exercised. *)
let gen_insn_of i st : Code.insn =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let reg () = Random.State.int st 64 and freg () = Random.State.int st 32 in
  let imm () = Random.State.int st 2048 - 1024 in
  let width () = pick Darco_guest.Isa.[ W8; W16; W32 ] in
  let binop () =
    pick Code.[ Add; Sub; Mul; Mulhu; Mulhs; And; Or; Xor; Shl; Shr; Sar; Slt; Sltu; Seq; Sne ]
  in
  let cmp () = pick Code.[ Beq; Bne; Blt; Bge; Bltu; Bgeu ] in
  let rt () = pick Code.[ Rt_sin; Rt_cos; Rt_divu; Rt_divs ] in
  match i with
  | 0 -> Nop
  | 1 -> Li (reg (), imm ())
  | 2 -> Bin (binop (), reg (), reg (), reg ())
  | 3 -> Bini (binop (), reg (), reg (), imm ())
  | 4 -> Load (width (), Random.State.bool st, reg (), reg (), imm ())
  | 5 -> Sload (width (), Random.State.bool st, reg (), reg (), imm ())
  | 6 -> Store (width (), reg (), reg (), imm ())
  | 7 -> Fli (freg (), 1.5)
  | 8 -> Fmov (freg (), freg ())
  | 9 -> Fbin (pick Code.[ Fadd; Fsub; Fmul; Fdiv ], freg (), freg (), freg ())
  | 10 -> Fun (pick Code.[ Fsqrt; Fabs; Fneg ], freg (), freg ())
  | 11 -> Fload (freg (), reg (), imm ())
  | 12 -> Fstore (freg (), reg (), imm ())
  | 13 -> Fcmp (reg (), freg (), freg ())
  | 14 -> Cvtif (freg (), reg ())
  | 15 -> Cvtfi (reg (), freg ())
  | 16 ->
    Mkfl
      ( pick
          Code.
            [ Fl_add; Fl_adc; Fl_sub; Fl_sbb; Fl_logic; Fl_shl; Fl_shr; Fl_sar; Fl_rol;
              Fl_ror; Fl_inc; Fl_dec; Fl_neg; Fl_mulu; Fl_muls ],
        reg (), reg (), reg (), reg () )
  | 17 -> Isel (reg (), reg (), reg (), reg ())
  | 18 -> Callrt_f (rt (), freg (), freg ())
  | 19 ->
    Callrt_div
      { signed = Random.State.bool st; q = reg (); r = reg (); hi = reg (); lo = reg (); d = reg () }
  | 20 -> B (cmp (), reg (), reg (), Random.State.int st 16)
  | 21 -> J (Random.State.int st 16)
  | 22 -> Jr (reg (), reg ())
  | 23 -> Assert (cmp (), reg (), reg ())
  | 24 -> Chk
  | 25 -> Commit (Random.State.int st 8)
  | _ ->
    let kind : Code.exit_kind =
      match Random.State.int st 6 with
      | 0 -> Exit_direct (imm ())
      | 1 -> Exit_indirect (reg ())
      | 2 -> Exit_syscall (imm ())
      | 3 -> Exit_interp (imm ())
      | 4 -> Exit_promote (imm ())
      | _ -> Exit_halt
    in
    Exit { exit_id = 0; kind; guest_retired = 1; chain = None; prefer_bb = false }

(* A retire stream: a random walk over a random program of blocks spread
   over many code pages (I-TLB and I-cache misses).  Each memory
   instruction follows its own address pattern — a stride (the prefetcher
   locks on), random over a D-cache-sized or an L2/TLB-busting range
   (misses, evictions, dirty writebacks), or one fixed address — and each
   conditional branch its own bias; indirect jumps pick a new target each
   time.  The program holds at least one
   instruction of every constructor. *)
let gen_stream ~len st =
  let nblocks = 1 + Random.State.int st 10 in
  let code =
    Array.init nblocks (fun _ ->
        Array.init (1 + Random.State.int st 40) (fun _ ->
            gen_insn_of (Random.State.int st n_constructors) st))
  in
  (* every constructor at least once, at random places *)
  for i = 0 to n_constructors - 1 do
    let b = code.(Random.State.int st nblocks) in
    b.(Random.State.int st (Array.length b)) <- gen_insn_of i st
  done;
  let base =
    Array.init nblocks (fun _ ->
        0x4000_0000 + (Random.State.int st 200 * 4096) + (Random.State.int st 64 * 4))
  in
  let per_insn f = Array.map (Array.map (fun _ -> f ())) code in
  let pattern =
    per_insn (fun () ->
        match Random.State.int st 4 with
        | 0 -> `Stride (List.nth [ 4; 8; 64; 256; 4096; -64 ] (Random.State.int st 6))
        | 1 -> `Random 0x4_0000
        | 2 -> `Random 0x40_0000
        | _ -> `Fixed)
  in
  let origin = per_insn (fun () -> 0x10_0000 + Random.State.int st 0x10_0000) in
  let visits = per_insn (fun () -> 0) in
  let bias = per_insn (fun () -> Random.State.int st 4) in
  let target = per_insn (fun () -> Random.State.int st nblocks) in
  let b = ref 0 and i = ref 0 in
  Array.init len (fun _ ->
      let blk = !b and ix = !i in
      let insn = code.(blk).(ix) in
      let pc = base.(blk) + (4 * ix) in
      let addr () =
        let k = visits.(blk).(ix) in
        visits.(blk).(ix) <- k + 1;
        let a =
          match pattern.(blk).(ix) with
          | `Stride s -> origin.(blk).(ix) + (k * s)
          | `Random range -> Random.State.int st range
          | `Fixed -> origin.(blk).(ix)
        in
        a land 0x3FFF_FFFF
      in
      let mem =
        match insn with
        | Load _ | Sload _ | Fload _ -> Some (addr (), `Load)
        | Store _ | Fstore _ -> Some (addr (), `Store)
        | _ -> None
      in
      let go_to t =
        b := t;
        i := 0;
        Some (true, base.(t))
      in
      let fall_through () =
        if ix + 1 < Array.length code.(blk) then i := ix + 1
        else begin
          b := (blk + 1) mod nblocks;
          i := 0
        end
      in
      let branch =
        match insn with
        | B _ ->
          let taken =
            match bias.(blk).(ix) with
            | 0 -> true
            | 1 -> false
            | 2 -> visits.(blk).(ix) land 1 = 0
            | _ -> Random.State.bool st
          in
          visits.(blk).(ix) <- visits.(blk).(ix) + 1;
          if taken then go_to target.(blk).(ix)
          else begin
            fall_through ();
            Some (false, base.(target.(blk).(ix)))
          end
        | J _ -> go_to target.(blk).(ix)
        (* indirect: the target varies, so a BTB hit can be stale *)
        | Jr _ -> go_to (Random.State.int st nblocks)
        | Exit _ when Random.State.bool st -> go_to (Random.State.int st nblocks)
        | Exit _ ->
          (* unchained, as the walker records it: the TOL dispatches next *)
          b := Random.State.int st nblocks;
          i := 0;
          Some (true, 0xE000_0000)
        | _ ->
          fall_through ();
          None
      in
      ({ host_pc = pc; insn; mem_access = mem; branch } : Ref_pipeline.retire_info))

(* Valid geometries unlike the default's, for the flat cache index
   arithmetic where a set has one way or a cache one set. *)
let odd_geometry =
  let d = Tconfig.default in
  {
    d with
    il1 = { d.il1 with sets = 1; ways = 8; line = 16 };
    dl1 = { d.dl1 with sets = 16; ways = 1; line = 32 };
    l2 = { d.l2 with sets = 64; ways = 2; line = 128 };
    itlb = { d.itlb with entries = 2 };
    dtlb = { d.dtlb with entries = 3 };
    l2tlb = { d.l2tlb with entries = 8 };
    btb_entries = 8;
    prefetch_table = 4;
    gshare_bits = 4;
  }

let configs =
  [
    ("default", Tconfig.default);
    ("narrow", Tconfig.narrow);
    ("wide", Tconfig.wide);
    ("odd geometry", odd_geometry);
  ]

(* One stream, record by record into the reference and in batches cut at
   random sizes into the production pipeline, which is also persisted and
   restored at a random batch boundary: neither may change anything. *)
let prop_matches_reference (name, cfg) =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "pipeline equals the reference model (%s)" name)
    QCheck.(make ~print:string_of_int Gen.nat)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let stream = gen_stream ~len:(500 + Random.State.int st 3500) st in
      let n = Array.length stream in
      let split = Random.State.int st n in
      let r = Ref_pipeline.create cfg in
      Array.iter (Ref_pipeline.step r) stream;
      let p = ref (Pipeline.create cfg) in
      let b = Retire.create n in
      let k = ref 0 in
      while !k < n do
        let stop = Int.min n (!k + 1 + Random.State.int st 300) in
        b.length <- 0;
        for j = !k to stop - 1 do
          Ref_pipeline.add b stream.(j)
        done;
        if !k <= split && split < stop then p := Pipeline.restore (Pipeline.persist !p);
        Pipeline.consume !p b;
        k := stop
      done;
      let p = !p in
      Pipeline.persist p = Ref_pipeline.persist r
      && Pipeline.summary p = Ref_pipeline.summary r
      && Pipeline.events p = Ref_pipeline.events r)

(* The streams above do reach every constructor, and every structure's
   miss, eviction and misprediction paths, under each configuration. *)
let test_streams_cover_constructors () =
  let seen = Array.make n_constructors false in
  List.iter
    (fun (name, cfg) ->
      let p = Pipeline.create cfg in
      for seed = 0 to 39 do
        let stream = gen_stream ~len:4000 (Random.State.make [| seed |]) in
        Array.iter
          (fun (r : Ref_pipeline.retire_info) -> seen.(constructor_index r.insn) <- true)
          stream;
        Ref_pipeline.consume_all ~size:1000 p (Array.to_list stream)
      done;
      let s = Pipeline.summary p and e = Pipeline.events p in
      let q = Pipeline.persist p in
      List.iter
        (fun (what, n) -> if n <= 0 then Alcotest.failf "%s: no %s" name what)
        [
          ("I-TLB misses", q.p_itlb.p_misses);
          ("D-TLB misses", q.p_dtlb.p_misses);
          ("L2 TLB misses", q.p_l2tlb.p_misses);
          ("I-cache misses", e.e_il1.misses);
          ("D-cache writebacks", e.e_dl1.writebacks);
          ("L2 misses", e.e_l2.misses);
          ("prefetches", s.prefetches);
          ("mispredicts", s.mispredicts);
          ("BTB misses", q.p_bp.p_btb_misses);
          ("stores", e.e_mem_writes);
          ("multiplies", e.e_mul_ops);
          ("FP operations", e.e_fp_ops);
        ])
    configs;
  Array.iteri
    (fun i s -> if not s then Alcotest.failf "constructor %d never retired" i)
    seen

(* Consuming a batch allocates nothing once the pipeline exists (latency
   histogram off). *)
let test_consume_allocates_nothing () =
  List.iter
    (fun (name, cfg) ->
      let stream = gen_stream ~len:20_000 (Random.State.make [| 11 |]) in
      let b = Retire.create (Array.length stream) in
      Array.iter (Ref_pipeline.add b) stream;
      let p = Pipeline.create cfg in
      let before = Gc.minor_words () in
      Pipeline.consume p b;
      let words = Gc.minor_words () -. before in
      Alcotest.(check (float 0.)) (name ^ ": minor words over a 20k-entry batch") 0. words)
    configs

(* The executor's loop allocates nothing per host instruction, with and
   without a sink: a warm self-chained region that uses every packed
   operation class (ALU, loads, a speculative load, stores, FP arithmetic
   and conversions, 64-bit FP memory, flag assists, select, branches and a
   jump) allocates as many minor words over 100,000 host instructions as
   over 1,000 (the result and its stop, per call). *)
let test_executor_allocates_nothing () =
  let e : Code.exit_info =
    { exit_id = 0; kind = Exit_direct 0x1000; guest_retired = 1; chain = None; prefer_bb = false }
  in
  let code : Code.insn array =
    [|
      Chk; Li (20, 0x4000); Bini (Add, 21, 21, 1); Store (W32, 21, 20, 8);
      Load (W32, false, 22, 20, 8); Sload (W16, true, 23, 20, 8); Bin (Mul, 24, 22, 23);
      Fload (3, 20, 16); Fbin (Fadd, 4, 3, 3); Fun (Fsqrt, 6, 4); Fstore (4, 20, 24);
      Cvtif (5, 21); Cvtfi (25, 5); Fcmp (26, 4, 5); Mkfl (Fl_add, 27, 21, 22, 0);
      Isel (28, 27, 21, 22); B (Beq, 21, 0, 18); J 18; Commit 1; Exit e;
    |]
  in
  let r : Code.region =
    { id = 0; entry_pc = 0x1000; mode = `Super; base = 0xC000_0000; code; incoming = [];
      invalidated = false }
  in
  e.chain <- Some r;
  let packed = Darco.Threaded.compile r in
  let get _ = packed in
  let m = Darco_host.Machine.create (Darco_guest.Memory.create `Auto_zero) in
  let sink : Retire.sink =
    { batch = Retire.create 1024; consume = ignore; describe = Pipeline.describe }
  in
  let words ?retire fuel =
    let before = Gc.minor_words () in
    let res = Darco.Threaded.run m ~resolve:(fun _ -> None) ~get ~fuel ?retire r in
    (Gc.minor_words () -. before, res.host_retired)
  in
  List.iter
    (fun (what, retire) ->
      ignore (words ?retire 1_000);
      let short, n_short = words ?retire 1_000 in
      let long, n_long = words ?retire 100_000 in
      Alcotest.(check bool) (what ^ ": ran 100 times longer") true (n_long > 90 * n_short);
      Alcotest.(check (float 0.)) (what ^ ": minor words independent of length") short long)
    [ ("without a sink", None); ("with a sink", Some sink) ]

(* A warm timed window, end to end: the walker appends to the batch and
   the pipeline consumes it, and neither allocates per retired
   instruction.  The window starts where the first 200k-instruction slice
   stops; what remains (about 0.07 words) is per-slice and per-region
   work that a functional run pays too. *)
let test_warm_timed_window_allocation () =
  let ctl =
    Darco.Controller.create ~seed:42
      ((Darco_workloads.Registry.find "401.bzip2").build ())
  in
  Pipeline.attach (Pipeline.create Tconfig.default) (Darco.Controller.bus ctl);
  let retired () = Darco.Stats.guest_total (Darco.Controller.stats ctl) in
  ignore (Darco.Controller.run ~max_insns:100_000 ctl);
  let from = retired () in
  let before = Gc.minor_words () in
  ignore (Darco.Controller.run ~max_insns:(from + 200_000) ctl);
  let per_insn = (Gc.minor_words () -. before) /. float_of_int (retired () - from) in
  if not (per_insn <= 0.1) then
    Alcotest.failf "%.3f minor words per guest instruction (bound 0.1)" per_insn

(* --- restore refuses states the fast paths assume away ---------------------- *)

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted" what

let test_restore_rejects_negative_ring () =
  let good = Pipeline.persist (feed Tconfig.default (nop_stream 100)) in
  ignore (Pipeline.restore good);
  let buf, _ = good.p_iq_ring in
  expect_invalid "negative IQ ring count" (fun () ->
      Pipeline.restore { good with p_iq_ring = (buf, -1) });
  let buf, _ = good.p_inflight_ring in
  expect_invalid "negative in-flight ring count" (fun () ->
      Pipeline.restore { good with p_inflight_ring = (buf, min_int) })

let test_restore_rejects_duplicate_tlb_page () =
  let fresh () = Tlb.create { entries = 4; latency = 0 } ~parent:(fun _ -> 30) in
  let t = fresh () in
  ignore (Tlb.access t 0x1000);
  ignore (Tlb.access t 0x2000);
  let p = Tlb.persist t in
  (* invalid entries may name any page; only two valid ones conflict *)
  Tlb.apply (fresh ())
    { p with p_entries = [| (1, true, 1); (1, false, 2); (2, true, 3); (0, false, 0) |] };
  let dup = { p with p_entries = [| (1, true, 1); (2, true, 2); (1, true, 3); (0, false, 0) |] } in
  expect_invalid "Tlb.apply" (fun () -> Tlb.apply (fresh ()) dup);
  let good = Pipeline.persist (feed Tconfig.default (nop_stream 100)) in
  let e = good.p_dtlb.p_entries in
  let e = Array.mapi (fun i x -> if i < 2 then (7, true, i + 1) else x) e in
  expect_invalid "Pipeline.restore" (fun () ->
      Pipeline.restore { good with p_dtlb = { good.p_dtlb with p_entries = e } })

(* A configuration naming a far larger L2 than the persisted arrays hold
   (65,536 sets of 16 ways: about 50 MB of lines) is refused before
   [create] allocates any of it. *)
let test_restore_checks_geometry_first () =
  let good = Pipeline.persist (feed Tconfig.default (nop_stream 100)) in
  let cfg = good.p_cfg in
  let big = { cfg with l2 = { cfg.l2 with sets = 1 lsl 16; ways = 16 } } in
  let before = Gc.allocated_bytes () in
  expect_invalid "L2 geometry larger than its state" (fun () ->
      Pipeline.restore { good with p_cfg = big });
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "refused before allocating (%.0f bytes allocated)" allocated)
    true (allocated < 1e6)

(* A persisted cache whose sets differ in way count, or a predictor whose
   BTB targets differ in number from its tags, is refused whole: [apply]
   raises before it writes anything. *)
let test_ragged_apply_changes_nothing () =
  let warm addrs =
    let c = mk_cache () in
    List.iter (fun a -> ignore (Cache.access c a ~is_write:(a land 0x40 <> 0))) addrs;
    c
  in
  let c = warm [ 0x1000; 0x1040; 0x1080; 0x10c0; 0x2000; 0x2080 ] in
  let before = Cache.persist c in
  let p = Cache.persist (warm [ 0x5000; 0x5040; 0x5080; 0x50c0; 0x6000; 0x60c0 ]) in
  let set2 ways = { p with p_lines = Array.mapi (fun s l -> if s = 2 then ways l else l) p.p_lines } in
  List.iter
    (fun (what, q) ->
      expect_invalid what (fun () -> Cache.apply c q);
      if Cache.persist c <> before then Alcotest.failf "%s: the cache changed" what)
    [
      ("set 2 with one way", set2 (fun l -> [| l.(0) |]));
      ("set 2 with three ways", set2 (fun l -> Array.append l [| l.(0) |]));
    ];
  let trained () =
    let b = Predictor.create Tconfig.default in
    for i = 0 to 63 do
      ignore (Predictor.observe b ~pc:(0x1000 + (4 * i)) ~taken:true ~target:(0x9000 + i))
    done;
    b
  in
  let b = Predictor.create Tconfig.default in
  let before = Predictor.persist b in
  let q = Predictor.persist (trained ()) in
  let n = Array.length q.p_btb_target in
  List.iter
    (fun (what, targets) ->
      expect_invalid what (fun () -> Predictor.apply b { q with p_btb_target = targets });
      if Predictor.persist b <> before then Alcotest.failf "%s: the predictor changed" what)
    [
      ("one BTB target short", Array.sub q.p_btb_target 0 (n - 1));
      ("one BTB target over", Array.append q.p_btb_target [| 0 |]);
    ]

(* --- geometries the structures cannot index ------------------------------------ *)

(* Sets and BTB/prefetch tables are indexed by mask, lines by shift, and
   victims are searched from entry 0: each of these would alias entries or
   fail on the first access, so [create] refuses it. *)
let bad_geometries =
  let d = Tconfig.default in
  let cache name get set =
    let g : Tconfig.cache_geom = get d in
    [
      (name ^ " 48 sets", set d { g with sets = 48 });
      (name ^ " 0 sets", set d { g with sets = 0 });
      (name ^ " 48-byte line", set d { g with line = 48 });
      (name ^ " 0-byte line", set d { g with line = 0 });
      (name ^ " 0 ways", set d { g with ways = 0 });
    ]
  and tlb name get set =
    let g : Tconfig.tlb_geom = get d in
    [ (name ^ " 0 entries", set d { g with entries = 0 }) ]
  in
  cache "IL1" (fun c -> c.Tconfig.il1) (fun c g -> { c with il1 = g })
  @ cache "DL1" (fun c -> c.Tconfig.dl1) (fun c g -> { c with dl1 = g })
  @ cache "L2" (fun c -> c.Tconfig.l2) (fun c g -> { c with l2 = g })
  @ tlb "I-TLB" (fun c -> c.Tconfig.itlb) (fun c g -> { c with itlb = g })
  @ tlb "D-TLB" (fun c -> c.Tconfig.dtlb) (fun c g -> { c with dtlb = g })
  @ tlb "L2 TLB" (fun c -> c.Tconfig.l2tlb) (fun c g -> { c with l2tlb = g })
  @ [
      ("0 BTB entries", { d with btb_entries = 0 });
      ("48 BTB entries", { d with btb_entries = 48 });
      ("0 prefetch-table entries", { d with prefetch_table = 0 });
      ("48 prefetch-table entries", { d with prefetch_table = 48 });
    ]

let test_create_refuses_bad_geometry () =
  List.iter (fun (_, cfg) -> ignore (Pipeline.create cfg)) configs;
  List.iter
    (fun (what, cfg) -> expect_invalid what (fun () -> Pipeline.create cfg))
    bad_geometries

(* Persisted states whose arrays match their (bad) configuration: the size
   check alone would accept them. *)
let test_restore_refuses_bad_geometry () =
  let good = Pipeline.persist (feed Tconfig.default (nop_stream 100)) in
  let cfg = good.p_cfg in
  let dl1 = { cfg.dl1 with sets = 48 } in
  let lines = Array.init 48 (fun _ -> Array.make dl1.ways (0, false, false, 0)) in
  expect_invalid "48-set DL1" (fun () ->
      Pipeline.restore
        { good with p_cfg = { cfg with dl1 }; p_dl1 = { good.p_dl1 with p_lines = lines } });
  expect_invalid "0 BTB entries" (fun () ->
      Pipeline.restore
        {
          good with
          p_cfg = { cfg with btb_entries = 0 };
          p_bp = { good.p_bp with p_btb_tag = [||]; p_btb_target = [||] };
        })

let () =
  Alcotest.run "timing"
    [
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "writeback" `Quick test_cache_writeback;
          Alcotest.test_case "prefetch fill" `Quick test_cache_prefetch_fill;
        ] );
      ("tlb", [ Alcotest.test_case "two-level behaviour" `Quick test_tlb ]);
      ( "predictor",
        [
          Alcotest.test_case "learns bias" `Quick test_predictor_learns_bias;
          Alcotest.test_case "alternating pattern" `Quick test_predictor_alternating_pattern;
          Alcotest.test_case "btb misses" `Quick test_predictor_btb_miss_counts;
        ] );
      ( "prefetcher",
        [
          Alcotest.test_case "stride detection" `Quick test_stride_prefetcher;
          Alcotest.test_case "ignores random" `Quick test_prefetcher_ignores_random;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "width bound" `Quick test_pipeline_width_bound;
          Alcotest.test_case "dependency chain" `Quick test_pipeline_dependency_chain;
          Alcotest.test_case "memory latency" `Quick test_pipeline_memory_latency;
          Alcotest.test_case "mispredict penalty" `Quick test_pipeline_mispredict_penalty;
          Alcotest.test_case "long operations" `Quick test_pipeline_long_ops;
          Alcotest.test_case "events" `Quick test_events_populated;
          QCheck_alcotest.to_alcotest prop_pipeline_monotone_cycles;
        ] );
      ( "reference",
        List.map (fun c -> QCheck_alcotest.to_alcotest (prop_matches_reference c)) configs
        @ [
            Alcotest.test_case "streams cover every constructor and path" `Quick
              test_streams_cover_constructors;
            Alcotest.test_case "consume allocates nothing" `Quick
              test_consume_allocates_nothing;
            Alcotest.test_case "executor loop allocates nothing" `Quick
              test_executor_allocates_nothing;
            Alcotest.test_case "warm timed window of 401.bzip2 allocates little" `Quick
              test_warm_timed_window_allocation;
          ] );
      ( "restore",
        [
          Alcotest.test_case "negative ring count" `Quick test_restore_rejects_negative_ring;
          Alcotest.test_case "two TLB entries for one page" `Quick
            test_restore_rejects_duplicate_tlb_page;
          Alcotest.test_case "geometry checked before allocation" `Quick
            test_restore_checks_geometry_first;
          Alcotest.test_case "refuses geometries the structures cannot index" `Quick
            test_restore_refuses_bad_geometry;
          Alcotest.test_case "ragged persisted state changes nothing" `Quick
            test_ragged_apply_changes_nothing;
        ] );
      ( "geometry",
        [
          Alcotest.test_case "create refuses what the structures cannot index" `Quick
            test_create_refuses_bad_geometry;
        ] );
    ]
