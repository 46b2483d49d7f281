exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

(* A writer appends to [bytes] up to [len]; a sealed payload is written in
   place, and its length and CRC are filled in after it.  A reader consumes
   [data] from [pos] up to [limit]; a sealed payload is decoded in place
   too, as a window of the enclosing input. *)
type writer = { mutable bytes : Bytes.t; mutable len : int }
type reader = { data : string; mutable pos : int; limit : int }
type 'a t = { write : writer -> 'a -> unit; read : reader -> 'a }

(* Make room for [n] more bytes and return their offset. *)
let reserve w n =
  let at = w.len in
  if at + n > Bytes.length w.bytes then begin
    let b = Bytes.create (max (2 * Bytes.length w.bytes) (at + n)) in
    Bytes.blit w.bytes 0 b 0 at;
    w.bytes <- b
  end;
  w.len <- at + n;
  at

let encode c v =
  let w = { bytes = Bytes.create 256; len = 0 } in
  c.write w v;
  Bytes.sub_string w.bytes 0 w.len

let run c data pos limit =
  let r = { data; pos; limit } in
  let v = c.read r in
  if r.pos <> limit then corrupt "trailing bytes";
  v

let decode c s = run c s 0 (String.length s)
let decode_prefix c s = c.read { data = s; pos = 0; limit = String.length s }

let need r n =
  if n < 0 || n > r.limit - r.pos then
    corrupt
      (Printf.sprintf "truncated input (need %d bytes at offset %d of %d)" n r.pos
         r.limit)

(* Read [n] bytes with [get], which finds them at [r.pos]. *)
let fixed n get r =
  need r n;
  let v = get r.data r.pos in
  r.pos <- r.pos + n;
  v

let take r n = fixed n (fun s pos -> String.sub s pos n) r

let conv enc dec c =
  { write = (fun w v -> c.write w (enc v)); read = (fun r -> dec (c.read r)) }

(* --- scalars ------------------------------------------------------------- *)

let u8 =
  { write = (fun w v -> let at = reserve w 1 in Bytes.set_uint8 w.bytes at (v land 0xff));
    read = fixed 1 String.get_uint8 }

let i64 =
  { write = (fun w v -> let at = reserve w 8 in Bytes.set_int64_le w.bytes at v);
    read = fixed 8 String.get_int64_le }

let int =
  { write = (fun w v -> i64.write w (Int64.of_int v));
    read =
      (fun r ->
        let v = i64.read r in
        let n = Int64.to_int v in
        if Int64.of_int n <> v then corrupt "integer out of native int range";
        n) }

let f64 = conv Int64.bits_of_float Int64.float_of_bits i64
let length = conv Fun.id (fun n -> if n < 0 then corrupt "negative length" else n) int

let add_string w s =
  let at = reserve w (String.length s) in
  Bytes.blit_string s 0 w.bytes at (String.length s)

let str =
  { write = (fun w s -> int.write w (String.length s); add_string w s);
    read = (fun r -> take r (length.read r)) }

(* Neither copy escapes: the writer appends at once, and the reader's
   string is fresh. *)
let bytes = conv Bytes.unsafe_to_string Bytes.unsafe_of_string str

let tag4 =
  { write =
      (fun w s ->
        if String.length s <> 4 then invalid_arg "Buf.tag4: tag must be 4 bytes";
        add_string w s);
    read = (fun r -> take r 4) }

let raw = { write = add_string; read = (fun r -> take r (r.limit - r.pos)) }
let unit = { write = (fun _ () -> ()); read = (fun _ -> ()) }

(* --- composites ---------------------------------------------------------- *)

let option c =
  { write =
      (fun w -> function None -> u8.write w 0 | Some v -> u8.write w 1; c.write w v);
    read =
      (fun r ->
        match u8.read r with
        | 0 -> None
        | 1 -> Some (c.read r)
        | n -> corrupt (Printf.sprintf "invalid option byte %d" n)) }

(* A count, then the elements.  Every element takes at least one byte, so
   a count the remaining input cannot hold is refused before anything is
   built. *)
let seq len length iter init c =
  { write = (fun w xs -> len.write w (length xs); iter (c.write w) xs);
    read =
      (fun r ->
        let n = len.read r in
        if n < 0 || n > r.limit - r.pos then corrupt "length exceeds input";
        init n (fun _ -> c.read r)) }

let list ?(len = int) c = seq len List.length List.iter List.init c
let array c = seq int Array.length Array.iter Array.init c

let array_n n c =
  conv Fun.id
    (fun xs ->
      if Array.length xs <> n then
        corrupt (Printf.sprintf "array of %d where %d belong" (Array.length xs) n);
      xs)
    (array c)

let pair ca cb =
  { write = (fun w (x, y) -> ca.write w x; cb.write w y);
    read = (fun r -> let x = ca.read r in (x, cb.read r)) }

let triple ca cb cc =
  { write = (fun w (x, y, z) -> ca.write w x; cb.write w y; cc.write w z);
    read = (fun r -> let x = ca.read r in let y = cb.read r in (x, y, cc.read r)) }

let quad ca cb cc cd =
  { write =
      (fun w (x, y, z, u) -> ca.write w x; cb.write w y; cc.write w z; cd.write w u);
    read =
      (fun r ->
        let x = ca.read r in
        let y = cb.read r in
        let z = cc.read r in
        (x, y, z, cd.read r)) }

let tail default c =
  { write = (fun w v -> if v <> default then c.write w v);
    read = (fun r -> if r.pos = r.limit then default else c.read r) }

let const c k body =
  { write = (fun w v -> c.write w k; body.write w v);
    read =
      (fun r ->
        if c.read r <> k then corrupt "unexpected magic or version";
        body.read r) }

(* --- records ------------------------------------------------------------- *)

type ('r, 'k) fields = { fwrite : writer -> 'r -> unit; fread : reader -> 'k }

let record k = { fwrite = (fun _ _ -> ()); fread = (fun _ -> k) }

let ( |+ ) f (c, get) =
  { fwrite = (fun w v -> f.fwrite w v; c.write w (get v));
    fread = (fun r -> let k = f.fread r in k (c.read r)) }

let seal f = { write = f.fwrite; read = f.fread }

(* --- enums and variants -------------------------------------------------- *)

let enum name values to_int =
  Array.iteri
    (fun i v ->
      if to_int v <> i then invalid_arg ("Buf.enum: table out of order: " ^ name))
    values;
  conv to_int
    (fun n ->
      if n < Array.length values then values.(n)
      else corrupt (Printf.sprintf "invalid %s tag %d" name n))
    u8

let bool = enum "boolean" [| false; true |] (function false -> 0 | true -> 1)

type ('k, 'v, 'a) case = { key : 'k; payload : 'a t; inject : 'a -> 'v }
type ('k, 'v) tagged = Tagged : ('k, 'v, 'a) case * 'a -> ('k, 'v) tagged
type ('k, 'v) any = Case : ('k, 'v, 'a) case -> ('k, 'v) any

let case key payload inject = { key; payload; inject }
let tag c a = Tagged (c, a)

let variant key cases enc =
  let table = Hashtbl.create 16 in
  List.iter
    (fun (Case c) ->
      if Hashtbl.mem table c.key then invalid_arg "Buf.variant: duplicate key";
      Hashtbl.replace table c.key (fun r -> c.inject (c.payload.read r)))
    cases;
  { write =
      (fun w v ->
        let (Tagged (c, a)) = enc v in
        key.write w c.key;
        c.payload.write w a);
    read =
      (fun r ->
        match Hashtbl.find_opt table (key.read r) with
        | Some read -> read r
        | None -> corrupt "unknown tag") }

(* --- integrity ----------------------------------------------------------- *)

(* CRC-32, reflected polynomial 0xEDB88320 (IEEE 802.3), table-driven. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_sub s pos len =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let byte = Char.code (String.unsafe_get s i) in
    crc := crc_table.((!crc lxor byte) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let crc32 s = crc_sub s 0 (String.length s)

let sealed c =
  { write =
      (fun w v ->
        let at = reserve w 16 in
        c.write w v;
        let len = w.len - at - 16 in
        Bytes.set_int64_le w.bytes at (Int64.of_int len);
        let crc = crc_sub (Bytes.unsafe_to_string w.bytes) (at + 16) len in
        Bytes.set_int64_le w.bytes (at + 8) (Int64.of_int crc));
    read =
      (fun r ->
        let len = length.read r in
        let crc = int.read r in
        need r len;
        let pos = r.pos in
        if crc_sub r.data pos len <> crc then corrupt "checksum mismatch";
        r.pos <- pos + len;
        run c r.data pos (pos + len)) }

let frame_header_bytes = 4 + 8 + 8
let frame_head = pair tag4 int
let frame_length header = snd (decode_prefix frame_head header)
