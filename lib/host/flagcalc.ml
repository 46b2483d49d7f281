open Darco_guest

let compute (k : Code.flkind) ~a ~b ~c =
  Semantics.flags_of
    (match k with
    | Fl_add -> Semantics.alu Add ~cf_in:false a b
    | Fl_adc -> Semantics.alu Adc ~cf_in:(c <> 0) a b
    | Fl_sub -> Semantics.alu Sub ~cf_in:false a b
    | Fl_sbb -> Semantics.alu Sbb ~cf_in:(c <> 0) a b
    | Fl_logic -> Semantics.alu Or ~cf_in:false a 0
    | Fl_shl -> Semantics.shift Shl a ~count:b ~flags:c
    | Fl_shr -> Semantics.shift Shr a ~count:b ~flags:c
    | Fl_sar -> Semantics.shift Sar a ~count:b ~flags:c
    | Fl_rol -> Semantics.shift Rol a ~count:b ~flags:c
    | Fl_ror -> Semantics.shift Ror a ~count:b ~flags:c
    | Fl_inc -> Semantics.inc a ~flags:c
    | Fl_dec -> Semantics.dec a ~flags:c
    | Fl_neg -> Semantics.neg a
    | Fl_mulu -> Semantics.mul_u a b
    | Fl_muls -> Semantics.mul_s a b)
