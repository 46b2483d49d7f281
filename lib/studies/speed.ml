type t = {
  guest_mips_emulated : float;
  guest_mips_timing : float;
  host_mips_emulated : float;
  host_mips_timing : float;
  minor_words_emulated : float;
  minor_words_timing : float;
}

let run_once ~timing ~insns program ~seed =
  let ctl = Darco.Controller.create ~seed program in
  if timing then begin
    let pipe = Darco_timing.Pipeline.create Darco_timing.Tconfig.default in
    Darco_timing.Pipeline.attach pipe (Darco.Controller.bus ctl)
  end;
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  ignore (Darco.Controller.run ~max_insns:insns ctl);
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  let st = Darco.Controller.stats ctl in
  let guest = float_of_int (Darco.Stats.guest_total st) in
  (guest /. dt, float_of_int (Darco.Stats.host_total st) /. dt, words /. guest)

let measure ?(insns = 400_000) program ~seed =
  let g_emu, h_emu, w_emu = run_once ~timing:false ~insns program ~seed in
  let g_tim, h_tim, w_tim = run_once ~timing:true ~insns program ~seed in
  {
    guest_mips_emulated = g_emu /. 1e6;
    guest_mips_timing = g_tim /. 1e6;
    host_mips_emulated = h_emu /. 1e6;
    host_mips_timing = h_tim /. 1e6;
    minor_words_emulated = w_emu;
    minor_words_timing = w_tim;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>guest ISA: %.2f MIPS emulated, %.0f KIPS with timing@ \
     host ISA:  %.2f MIPS emulated, %.2f MIPS with timing@ \
     minor words per guest insn: %.2f emulated, %.2f with timing@]"
    t.guest_mips_emulated
    (1000. *. t.guest_mips_timing)
    t.host_mips_emulated t.host_mips_timing t.minor_words_emulated t.minor_words_timing
