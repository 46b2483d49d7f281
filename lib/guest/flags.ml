let cf_bit = 1
let zf_bit = 2
let sf_bit = 4
let of_bit = 8
let mask = 15

let[@inline] make ~cf ~zf ~sf ~of_ =
  (if cf then cf_bit else 0)
  lor (if zf then zf_bit else 0)
  lor (if sf then sf_bit else 0)
  lor if of_ then of_bit else 0

let cf f = f land cf_bit <> 0
let zf f = f land zf_bit <> 0
let sf f = f land sf_bit <> 0
let of_ f = f land of_bit <> 0

let eval_cond (c : Isa.cond) f =
  match c with
  | E -> zf f
  | NE -> not (zf f)
  | L -> sf f <> of_ f
  | GE -> sf f = of_ f
  | LE -> zf f || sf f <> of_ f
  | G -> (not (zf f)) && sf f = of_ f
  | B -> cf f
  | AE -> not (cf f)
  | BE -> cf f || zf f
  | A -> (not (cf f)) && not (zf f)
  | S -> sf f
  | NS -> not (sf f)
  | O -> of_ f
  | NO -> not (of_ f)

let to_string f =
  let parts =
    List.filter_map
      (fun (b, n) -> if b then Some n else None)
      [ (cf f, "CF"); (zf f, "ZF"); (sf f, "SF"); (of_ f, "OF") ]
  in
  "[" ^ String.concat " " parts ^ "]"
