(** Resident-set measurement from [/proc] — how much physical memory a
    run (and the worker processes it starts) actually holds.

    Sizes are in kilobytes, as the kernel reports them.  Every reader
    returns [None] where [/proc] is absent or unreadable (non-Linux,
    hardened mounts), so callers degrade to "not measured" rather than
    failing the run.

    The per-process readers prefer {b PSS} (proportional set size, from
    [smaps_rollup]) over VmRSS when summing a process {e tree}: PSS
    divides each shared physical page among its mappers, so pages a
    forked child still shares with its parent (the program image, a
    checkpoint loaded before the fork) count once.  Plain VmRSS would
    charge them to every process and overstate a process tree's
    footprint. *)

val peak_kb : int -> int option
(** The process's high-water resident mark ([VmHWM]); not
    sharing-adjusted (the kernel keeps no PSS high-water mark). *)

val tree_rss_kb : int -> int option
(** Current resident total of [pid] plus all its live descendants (PSS
    when [smaps_rollup] is readable, VmRSS otherwise), found by scanning
    [/proc] for [PPid] chains.  Racy by nature: processes may appear or
    die mid-scan; callers sample repeatedly.  [None] only when nothing
    was readable. *)
