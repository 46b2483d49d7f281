let[@inline] mask32 v = v land 0xFFFFFFFF
let bit31 v = v land 0x80000000 <> 0
let signed v = if bit31 v then v - 0x100000000 else v

let truncate_width (w : Isa.width) v =
  match w with W8 -> v land 0xFF | W16 -> v land 0xFFFF | W32 -> mask32 v

let sign_extend (w : Isa.width) v =
  match w with
  | W8 -> if v land 0x80 <> 0 then mask32 (v lor 0xFFFFFF00) else v land 0xFF
  | W16 -> if v land 0x8000 <> 0 then mask32 (v lor 0xFFFF0000) else v land 0xFFFF
  | W32 -> mask32 v

(* A flag-producing operation returns its 32-bit result and the packed
   {!Flags} word in one immediate int, the flags above bit 31, so no tuple
   is allocated per guest ALU operation. *)
let[@inline] pack res f = res lor (f lsl 32)
let result_of p = p land 0xFFFFFFFF
let flags_of p = p lsr 32

let[@inline] logic res =
  pack res (Flags.make ~cf:false ~zf:(res = 0) ~sf:(bit31 res) ~of_:false)

let[@inline] add_like a b cf_in =
  let full = a + b + cf_in in
  let res = mask32 full in
  let cf = full > 0xFFFFFFFF in
  let of_ = bit31 a = bit31 b && bit31 res <> bit31 a in
  pack res (Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)

let[@inline] sub_like a b cf_in =
  let full = a - b - cf_in in
  let res = mask32 full in
  let cf = full < 0 in
  let of_ = bit31 a <> bit31 b && bit31 res <> bit31 a in
  pack res (Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)

let alu (op : Isa.alu_op) ~cf_in a b =
  let carry = if cf_in then 1 else 0 in
  match op with
  | Add -> add_like a b 0
  | Adc -> add_like a b carry
  | Sub -> sub_like a b 0
  | Sbb -> sub_like a b carry
  | And -> logic (a land b)
  | Or -> logic (a lor b)
  | Xor -> logic (a lxor b)

(* INC/DEC preserve CF: recompute the other flags and splice CF back in. *)
let keep_cf flags p = p land lnot (Flags.cf_bit lsl 32) lor ((flags land Flags.cf_bit) lsl 32)

let inc v ~flags = keep_cf flags (add_like v 1 0)
let dec v ~flags = keep_cf flags (sub_like v 1 0)
let neg v = sub_like 0 v 0
let not32 v = mask32 (lnot v)

let rotl32 v c = mask32 ((v lsl c) lor (v lsr (32 - c)))
let rotr32 v c = mask32 ((v lsr c) lor (v lsl (32 - c)))

let shift (op : Isa.shift_op) v ~count ~flags =
  let c = count land 31 in
  if c = 0 then pack v flags
  else begin
    let res, cf, of_ =
      match op with
      | Shl ->
        let res = mask32 (v lsl c) in
        let cf = v land (1 lsl (32 - c)) <> 0 in
        (res, cf, bit31 res <> cf)
      | Shr ->
        let res = v lsr c in
        (res, v land (1 lsl (c - 1)) <> 0, bit31 v)
      | Sar ->
        let res = mask32 (signed v asr c) in
        (res, v land (1 lsl (c - 1)) <> 0, false)
      | Rol ->
        let res = rotl32 v c in
        let cf = res land 1 <> 0 in
        (res, cf, bit31 res <> cf)
      | Ror ->
        let res = rotr32 v c in
        (res, bit31 res, false)
    in
    pack res (Flags.make ~cf ~zf:(res = 0) ~sf:(bit31 res) ~of_)
  end

let mul_u a b =
  let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
  let lo = mask32 (Int64.to_int p) in
  let wide = Int64.shift_right_logical p 32 <> 0L in
  pack lo (Flags.make ~cf:wide ~zf:(lo = 0) ~sf:(bit31 lo) ~of_:wide)

let mulhi_u a b =
  let p = Int64.mul (Int64.of_int a) (Int64.of_int b) in
  mask32 (Int64.to_int (Int64.shift_right_logical p 32))

let mul_s a b =
  let p = Int64.mul (Int64.of_int (signed a)) (Int64.of_int (signed b)) in
  let lo = mask32 (Int64.to_int p) in
  let wide = p <> Int64.of_int (signed lo) in
  pack lo (Flags.make ~cf:wide ~zf:(lo = 0) ~sf:(bit31 lo) ~of_:wide)

let mulhi_s a b =
  let p = Int64.mul (Int64.of_int (signed a)) (Int64.of_int (signed b)) in
  mask32 (Int64.to_int (Int64.shift_right_logical p 32))

let div_u ~hi ~lo d =
  if d = 0 then (0xFFFFFFFF, lo)
  else begin
    let full =
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
    in
    let d64 = Int64.of_int d in
    let q = Int64.unsigned_div full d64 and r = Int64.unsigned_rem full d64 in
    (mask32 (Int64.to_int q), mask32 (Int64.to_int r))
  end

let div_s ~hi ~lo d =
  if d = 0 then (0xFFFFFFFF, lo)
  else begin
    let full =
      Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)
    in
    let d64 = Int64.of_int (signed d) in
    let q = Int64.div full d64 and r = Int64.rem full d64 in
    (mask32 (Int64.to_int q), mask32 (Int64.to_int r))
  end

let fp_bin (op : Isa.fp_bin) a b =
  match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b

let fp_un (op : Isa.fp_un) a =
  match op with
  | Fsqrt -> sqrt a
  | Fsin -> sin a
  | Fcos -> cos a
  | Fabs -> abs_float a
  | Fchs -> -.a

let[@inline] fcmp_flags a b =
  if Float.is_nan a || Float.is_nan b then
    Flags.make ~cf:true ~zf:true ~sf:false ~of_:false
  else if a < b then Flags.make ~cf:true ~zf:false ~sf:false ~of_:false
  else if a = b then Flags.make ~cf:false ~zf:true ~sf:false ~of_:false
  else Flags.make ~cf:false ~zf:false ~sf:false ~of_:false

let[@inline] f2i x =
  if Float.is_nan x || x >= 2147483648.0 || x < -2147483648.0 then 0x80000000
  else mask32 (int_of_float x)

let[@inline] i2f v = float_of_int (signed v)
