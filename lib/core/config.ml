type costs = {
  interp_per_insn : int;
  interp_profile_bb : int;
  bb_translate_base : int;
  bb_translate_per_insn : int;
  sb_translate_base : int;
  sb_translate_per_insn : int;
  prologue : int;
  cc_lookup : int;
  chain_attempt : int;
  ibtc_fill : int;
  dispatch_other : int;
  init_once : int;
}

type fault = No_fault | Opt_drop_store | Sched_break_dep

type t = {
  bb_threshold : int;
  sb_threshold : int;
  sb_max_insns : int;
  sb_max_bbs : int;
  branch_bias : float;
  min_reach_prob : float;
  unroll_factor : int;
  assert_fail_limit : int;
  use_asserts : bool;
  use_mem_speculation : bool;
  opt_const_fold : bool;
  opt_copy_prop : bool;
  opt_cse : bool;
  opt_dce : bool;
  opt_rle : bool;
  opt_schedule : bool;
  use_chaining : bool;
  use_ibtc : bool;
  ibtc_bits : int;
  inject_fault : fault;
  slice_fuel : int;
  code_cache_capacity : int;
  costs : costs;
}

let default_costs = {
  interp_per_insn = 26;
  interp_profile_bb = 6;
  bb_translate_base = 140;
  bb_translate_per_insn = 30;
  sb_translate_base = 420;
  sb_translate_per_insn = 95;
  prologue = 12;
  cc_lookup = 14;
  chain_attempt = 10;
  ibtc_fill = 12;
  dispatch_other = 6;
  init_once = 5_000;
}

let default = {
  bb_threshold = 8;
  sb_threshold = 64;
  sb_max_insns = 200;
  sb_max_bbs = 16;
  branch_bias = 0.85;
  min_reach_prob = 0.45;
  unroll_factor = 4;
  assert_fail_limit = 4;
  use_asserts = true;
  use_mem_speculation = true;
  opt_const_fold = true;
  opt_copy_prop = true;
  opt_cse = true;
  opt_dce = true;
  opt_rle = true;
  opt_schedule = true;
  use_chaining = true;
  use_ibtc = true;
  ibtc_bits = 9;
  inject_fault = No_fault;
  slice_fuel = 200_000;
  code_cache_capacity = 2_000_000;
  costs = default_costs;
}

let quick = { default with bb_threshold = 2; sb_threshold = 6; slice_fuel = 20_000 }
