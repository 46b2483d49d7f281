(** Binary codecs for every Darco format, built from combinators.

    An ['a t] pairs a little-endian writer with a reader of the same
    layout, so each field of a format is described once and both
    directions derive from that one description: an encoder cannot drift
    apart from its decoder.  Decoding validates bounds, tags and lengths
    and raises {!Corrupt} (never an out-of-bounds crash) on malformed
    input — corrupted snapshots, work units, campaigns, artifacts and
    wire frames fail cleanly.

    Every container shares {e the frame}: a 4-byte tag, then {!sealed}
    — [i64 payload length | i64 CRC-32 of payload | payload]. *)

exception Corrupt of string

val corrupt : string -> 'a

type 'a t

val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> 'a
(** Raises {!Corrupt} on malformed input, including trailing bytes. *)

val decode_prefix : 'a t -> string -> 'a
(** Decode the leading bytes only; whatever follows is not read. *)

(** {1 Scalars} *)

val u8 : int t
val int : int t
(** Full OCaml [int], as a little-endian signed 64-bit value. *)

val i64 : int64 t
val f64 : float t
(** Bit-exact (via [Int64.bits_of_float]). *)

val bool : bool t
val str : string t
(** Length-prefixed. *)

val bytes : Bytes.t t
(** Length-prefixed, like {!str}. *)

val tag4 : string t
(** Exactly four raw bytes. *)

val raw : string t
(** The bytes verbatim; decoding takes everything left, so it only ends
    a {!sealed} payload. *)

val unit : unit t
(** Zero bytes. *)

(** {1 Composites} *)

val option : 'a t -> 'a option t

val list : ?len:int t -> 'a t -> 'a list t
(** Count ([len], default {!int}) then the elements. *)

val array : 'a t -> 'a array t

val array_n : int -> 'a t -> 'a array t
(** Laid out as {!array}; decoding refuses any other length. *)

val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t
val quad : 'a t -> 'b t -> 'c t -> 'd t -> ('a * 'b * 'c * 'd) t

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv enc dec c] carries ['a] as its image under [enc]; [dec] may
    raise {!Corrupt} to refuse a decoded value. *)

val tail : 'a -> 'a t -> 'a t
(** [tail default c]: a trailing field written only when it differs from
    [default], and decoded as [default] when the input has ended — how a
    newer version extends a payload whose older bytes must not change. *)

val const : 'k t -> 'k -> 'a t -> 'a t
(** [const c k body]: [k] (a magic or a version) written with [c], then
    [body]; decoding refuses any other leading value. *)

(** {1 Records}

    A product in wire order: the constructor, then one codec and getter
    per field.
    {[
      record (fun eip halted -> { eip; halted })
      |+ (int, fun c -> c.eip)
      |+ (bool, fun c -> c.halted)
      |> seal
    ]} *)

type ('r, 'k) fields

val record : 'k -> ('r, 'k) fields
val ( |+ ) : ('r, 'a -> 'k) fields -> 'a t * ('r -> 'a) -> ('r, 'k) fields
val seal : ('r, 'r) fields -> 'r t

(** {1 Enums and variants} *)

val enum : string -> 'a array -> ('a -> int) -> 'a t
(** One {!u8} tag per constant, from the table of values in tag order.
    The encoder is an exhaustive match, so a new constructor does not
    compile until it has a tag; the table and the match are checked
    against each other when the codec is built. *)

type ('k, 'v, 'a) case
(** One constructor of a variant ['v]: its key ['k] and the codec of its
    payload ['a]. *)

val case : 'k -> 'a t -> ('a -> 'v) -> ('k, 'v, 'a) case

type ('k, 'v) tagged

val tag : ('k, 'v, 'a) case -> 'a -> ('k, 'v) tagged
type ('k, 'v) any = Case : ('k, 'v, 'a) case -> ('k, 'v) any

val variant : 'k t -> ('k, 'v) any list -> ('v -> ('k, 'v) tagged) -> 'v t
(** The key, written with the given codec, then that case's payload.  The
    encoder is an exhaustive match naming each value's case; decoding
    looks the key up in the case table and refuses unknown keys. *)

(** {1 Integrity} *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3 polynomial) of the whole string, in [0, 2^32). *)

val sealed : 'a t -> 'a t
(** [i64 length | i64 CRC-32 | payload]: the payload is encoded alone, and
    decoding checks its checksum before decoding it, whole. *)

val frame_header_bytes : int
(** Bytes before a frame's payload: tag, length and CRC (20). *)

val frame_length : string -> int
(** The payload length a frame header announces; the caller bounds it
    before reading that many bytes. *)
