(** Byte-addressable paged memory (4 KiB pages), little-endian.

    Two allocation policies mirror the two DARCO components:
    - the authoritative x86 component allocates zeroed pages on demand
      ([`Auto_zero]), as a real OS would;
    - the co-designed component raises {!Page_fault} on the first touch of a
      page ([`Fault]); the controller services the fault by copying the page
      from the authoritative memory (the paper's "data request"
      synchronization event).

    Pages live in a two-level table (a directory of lazily allocated
    1024-page leaves), so a lookup is two array loads: no hashing, and an
    integer access to a present page allocates nothing.  The table spans every page a 32-bit
    address reaches, including page [0x100000] that an access straddling
    4 GiB touches; every other index remains valid through a small
    overflow table. *)

type t

exception Page_fault of int
(** Carries the faulting page index. *)

val page_size : int
val create : [ `Auto_zero | `Fault ] -> t
val page_index : int -> int
val page_base : int -> int

val read : t -> Isa.width -> int -> int
(** Little-endian read of 1/2/4 bytes, zero-extended to a canonical 32-bit
    value.  May straddle a page boundary. *)

val write : t -> Isa.width -> int -> int -> unit

val read8 : t -> int -> int
val read32 : t -> int -> int
val write8 : t -> int -> int -> unit
val write32 : t -> int -> int -> unit

val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit

val has_page : t -> int -> bool
val get_page : t -> int -> bytes
(** Raw page contents; faults/allocates according to policy. *)

val install_page : t -> int -> bytes -> unit
(** [install_page t idx data] copies [data] (page-sized) in as page [idx]. *)

val touched_pages : t -> int list
(** Sorted indices of all materialized pages (a walk of the table in index
    order).  Under [`Auto_zero] a read materializes the page it touches,
    as a write does. *)

val blit_bytes : t -> int -> bytes -> unit
(** [blit_bytes t addr b] writes the whole of [b] starting at [addr]
    (loader use). *)

val equal_page : t -> t -> int -> bool
(** Compare one page across two memories; an absent page equals a zero
    page. *)
