open Darco_obs

let apply (s : Stats.t) ~at:_ (ev : Event.t) =
  match ev with
  | Init { cost } -> Stats.charge s Ov_other cost
  | Clock_sync { retired } -> s.guest_im <- s.guest_im + retired
  | Slice_start | Divergence _ | Halt -> ()
  (* dispatch infrastructure events carry no simulated-machine counters *)
  | Worker_up _ | Worker_lost _ | Dispatch_sent _ | Dispatch_done _
  | Dispatch_retry _ | Dispatch_fallback _ | Ckpt_push _ | Ckpt_hit _
  | Steal _ | Dispatch_inflight _ | Span_begin _ | Span_end _
  | Submit _ | Admit _ | Artifact_hit _ | Artifact_store _ | Store_evict _
  | Plan_round _ | Plan_predict _ | Plan_stop _ | Straggler _ -> ()
  | Slice_end { overheads; _ } ->
    List.iter (fun (cat, n) -> Stats.charge s cat n) overheads
  | Interp_block { insns; cost; _ } ->
    s.guest_im <- s.guest_im + insns;
    Stats.charge s Ov_interp cost
  | Interp_step { cost; _ } | Interp_exec { cost; _ } ->
    s.guest_im <- s.guest_im + 1;
    Stats.charge s Ov_interp cost
  | Bb_translated { cost; _ } ->
    s.bb_translations <- s.bb_translations + 1;
    Stats.charge s Ov_bb_translate cost
  | Sb_translated { cost; unrolled; _ } ->
    s.sb_translations <- s.sb_translations + 1;
    if unrolled then s.unrolled_superblocks <- s.unrolled_superblocks + 1;
    Stats.charge s Ov_sb_translate cost
  | Region_exec
      { guest_bb; guest_sb; host_bb; host_sb; chains_followed; wasted_host; _ }
    ->
    (* mirror Tol.account: the startup mark is taken before this region's
       retirement is added *)
    if s.guest_sbm = 0 && guest_sb > 0 then Stats.note_sbm_start s;
    s.guest_bbm <- s.guest_bbm + guest_bb;
    s.guest_sbm <- s.guest_sbm + guest_sb;
    s.host_app_bbm <- s.host_app_bbm + host_bb;
    s.host_app_sbm <- s.host_app_sbm + host_sb;
    s.chains_followed <- s.chains_followed + chains_followed;
    s.wasted_host <- s.wasted_host + wasted_host
  | Chain_made _ -> s.chains_made <- s.chains_made + 1
  | Ibtc_miss _ -> s.ibtc_misses <- s.ibtc_misses + 1
  | Ibtc_fill _ -> s.ibtc_fills <- s.ibtc_fills + 1
  | Rollback { kind = Rb_assert; _ } -> s.assert_rollbacks <- s.assert_rollbacks + 1
  | Rollback { kind = Rb_alias; _ } -> s.alias_rollbacks <- s.alias_rollbacks + 1
  | Deopt_rebuild { kind = De_noassert; _ } ->
    s.sb_rebuilds_noassert <- s.sb_rebuilds_noassert + 1
  | Deopt_rebuild { kind = De_nomem; _ } ->
    s.sb_rebuilds_nomem <- s.sb_rebuilds_nomem + 1
  | Cache_flush _ -> s.code_cache_flushes <- s.code_cache_flushes + 1
  | Page_install _ -> s.page_requests <- s.page_requests + 1
  | Syscall { cost; _ } ->
    s.syscalls <- s.syscalls + 1;
    s.guest_im <- s.guest_im + 1;
    Stats.charge s Ov_other cost
  | Validation _ -> s.validations <- s.validations + 1

let attach bus =
  let s = Stats.create () in
  Bus.attach bus ~name:"aggregator" (apply s);
  s
