type stats = {
  mutable branches : int;
  mutable mispredicts : int;
  mutable btb_misses : int;
}

type t = {
  pht : int array;         (* 2-bit saturating counters *)
  mutable ghr : int;
  ghr_mask : int;
  btb_tag : int array;
  btb_target : int array;
  btb_mask : int;
  stats : stats;
}

let create (cfg : Tconfig.t) =
  let pht_size = 1 lsl cfg.gshare_bits in
  {
    pht = Array.make pht_size 2 (* weakly taken *);
    ghr = 0;
    ghr_mask = pht_size - 1;
    btb_tag = Array.make cfg.btb_entries (-1);
    btb_target = Array.make cfg.btb_entries 0;
    btb_mask = cfg.btb_entries - 1;
    stats = { branches = 0; mispredicts = 0; btb_misses = 0 };
  }

let[@inline] pht_index t pc = (pc lsr 2) lxor t.ghr land t.ghr_mask
let[@inline] btb_index t pc = (pc lsr 2) land t.btb_mask

let[@inline] predicted_taken t ~pc = t.pht.(pht_index t pc) >= 2

let[@inline] btb_hit t ~pc ~target =
  let i = btb_index t pc in
  t.btb_tag.(i) = pc && t.btb_target.(i) = target

let predict t ~pc =
  let i = btb_index t pc in
  (predicted_taken t ~pc, if t.btb_tag.(i) = pc then Some t.btb_target.(i) else None)

let[@inline] update t ~pc ~taken ~target =
  let i = pht_index t pc in
  t.pht.(i) <- (if taken then Int.min 3 (t.pht.(i) + 1) else Int.max 0 (t.pht.(i) - 1));
  t.ghr <- ((t.ghr lsl 1) lor if taken then 1 else 0) land t.ghr_mask;
  if taken then begin
    let bi = btb_index t pc in
    t.btb_tag.(bi) <- pc;
    t.btb_target.(bi) <- target
  end

(* The per-branch path: {!predict}'s pair is never built.  Inlined into
   the caller (DESIGN.md §8). *)
let[@inline] observe t ~pc ~taken ~target =
  t.stats.branches <- t.stats.branches + 1;
  let correct =
    if predicted_taken t ~pc <> taken then false
    else if taken && not (btb_hit t ~pc ~target) then begin
      t.stats.btb_misses <- t.stats.btb_misses + 1;
      false
    end
    else true
  in
  if not correct then t.stats.mispredicts <- t.stats.mispredicts + 1;
  update t ~pc ~taken ~target;
  if correct then `Correct else `Mispredict

let stats t = t.stats

type persisted = {
  p_pht : int array;
  p_ghr : int;
  p_btb_tag : int array;
  p_btb_target : int array;
  p_branches : int;
  p_mispredicts : int;
  p_btb_misses : int;
}

let persist t =
  {
    p_pht = Array.copy t.pht;
    p_ghr = t.ghr;
    p_btb_tag = Array.copy t.btb_tag;
    p_btb_target = Array.copy t.btb_target;
    p_branches = t.stats.branches;
    p_mispredicts = t.stats.mispredicts;
    p_btb_misses = t.stats.btb_misses;
  }

let apply t p =
  if
    Array.length p.p_pht <> Array.length t.pht
    || Array.length p.p_btb_tag <> Array.length t.btb_tag
    || Array.length p.p_btb_target <> Array.length t.btb_target
  then invalid_arg "Predictor.apply: persisted predictor geometry mismatch";
  Array.blit p.p_pht 0 t.pht 0 (Array.length t.pht);
  Array.blit p.p_btb_tag 0 t.btb_tag 0 (Array.length t.btb_tag);
  Array.blit p.p_btb_target 0 t.btb_target 0 (Array.length t.btb_target);
  t.ghr <- p.p_ghr;
  t.stats.branches <- p.p_branches;
  t.stats.mispredicts <- p.p_mispredicts;
  t.stats.btb_misses <- p.p_btb_misses

let accuracy t =
  if t.stats.branches = 0 then 1.0
  else 1.0 -. (float_of_int t.stats.mispredicts /. float_of_int t.stats.branches)
