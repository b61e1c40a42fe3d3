(** Durable artifact IO: atomic writes, a versioned + CRC32-checksummed
    envelope, typed load failures, recursive directory creation and a bounded
    retry wrapper.  The contract every adopter inherits: {e after a crash at
    any write point, loading yields either the previous complete artifact or
    a clean typed error — never garbage}.  [Faults] provides the deterministic
    injection hooks the test harness uses to prove it. *)

module Faults = Faults

(** {2 Clocks} *)

val mono_now : unit -> float
(** Monotonic seconds (CLOCK_MONOTONIC; arbitrary epoch).  {e Every}
    deadline and elapsed-time computation must use this clock: the wall
    clock steps under NTP or a manual change, and a step blows in-flight
    deadlines or silently disables timeout reapers (DESIGN.md §12).  Falls
    back to a never-backward-clamped wall clock where the monotonic source
    is unavailable. *)

val wall_now : unit -> float
(** The wall clock (Unix epoch seconds), for human-facing timestamps only —
    e.g. the serving daemon's [started] stat.  Routed through
    {!Faults.arm_clock_skew} so chaos tests can step it and prove nothing
    load-bearing depends on it. *)

(** {2 Typed load failures} *)

type load_error =
  | Missing of { file : string; reason : string }
      (** file absent or unreadable (maps to lint code WACO-A001) *)
  | Not_an_artifact of { file : string }
      (** no envelope header — possibly a legacy raw dump *)
  | Truncated of { file : string; expected_bytes : int; got_bytes : int }
  | Bad_checksum of { file : string; expected : string; actual : string }
      (** maps to lint code WACO-A006 *)
  | Version_mismatch of { file : string; found : int; expected : int }
      (** maps to lint code WACO-A007 *)
  | Wrong_kind of { file : string; found : string; expected : string }
      (** a valid artifact of the wrong kind (also WACO-A007) *)
  | Malformed of { file : string; reason : string }

exception Load_error of load_error

val load_error_file : load_error -> string

val load_error_to_string : load_error -> string

(** {2 Checksums} *)

val crc32 : string -> int
(** CRC32 (IEEE 802.3 / zlib convention) as a non-negative int. *)

val crc32_hex : string -> string
(** Zero-padded 8-digit lowercase hex of {!crc32}. *)

(** {2 Filesystem primitives} *)

val mkdir_p : string -> unit
(** Recursive [mkdir] (mode 0o755); existing directories are fine. *)

val write_atomic_string : string -> string -> unit
(** [write_atomic_string path content]: temp file in [path]'s directory →
    flush/fsync → [Sys.rename].  Carries the {!Faults} write points. *)

val write_atomic : string -> (Buffer.t -> unit) -> unit
(** Same, with the content built in a buffer by the callback. *)

val read_file : string -> (string, load_error) result
(** Whole-file read; [Error (Missing _)] when absent or unreadable. *)

(** {2 The artifact envelope} *)

val magic : string
(** First bytes of every enveloped artifact. *)

(** Artifact kind strings shared by writers and the lint passes. *)
module Kind : sig
  val model : string
  val index : string
  val checkpoint : string

  val cache : string
  (** The serving daemon's persistent schedule cache ([lib/serve]). *)
end

val write_artifact : kind:string -> ?version:int -> string -> string -> unit
(** [write_artifact ~kind path payload] writes
    ["%%WACO-ARTIFACT v1 kind=... bytes=... crc32=...\n" ^ payload]
    atomically. *)

val read_artifact :
  ?expected_kind:string -> string -> (string, load_error) result
(** Verifies envelope version (the one this build writes), kind, byte
    count and checksum, returning the payload.  [Not_an_artifact] signals a
    pre-envelope legacy file the caller may fall back on. *)

val read_artifact_exn : ?expected_kind:string -> string -> string
(** Raising variant ({!Load_error}). *)

val lines : string -> string array
(** Payload split on newlines, without the empty fragment a trailing newline
    produces. *)

(** {2 Append-only journals} *)

(** A file of newline-terminated records that is only ever appended to —
    the dataset's [tuples.txt] under [collect --append] and the serving
    cache's [<file>.journal].  A crash costs at most the record being
    written, and the reader sees it as a torn tail. *)
module Journal : sig
  val append :
    ?header:string -> ?truncate:bool -> string ->
    ((string -> unit) -> unit) -> unit
  (** [append path fill] opens [path] for appending (creating it) and hands
      [fill] an [emit] function: each [emit record] passes the {!Faults}
      write point [path ^ ":append"], writes [record] (which must end in a
      newline) and flushes it.  [header] is written first, unguarded, when
      the file starts empty — created by this call, or emptied by
      [truncate].  One fsync follows [fill]. *)

  val split : string -> string array * bool
  (** [split contents] is the journal's records, without their newlines,
      and whether the last one is torn (the contents do not end in a
      newline).  Only a torn last record may be dropped as a crash's
      leftovers; damage anywhere else was done in place. *)
end

(** {2 Retry} *)

val backoff_delay :
  ?base_s:float -> ?max_s:float -> ?seed:int -> attempt:int -> unit -> float
(** The delay before retry [attempt] (1-based): exponential from [base_s]
    (default 10 ms), capped at [max_s] (default 2 s), then shrunk by up to
    half of itself using a
    deterministic hash of [(seed, attempt)] — seedable, clock-free jitter,
    so retry schedules are exactly reproducible yet different seeds never
    hammer a shared resource in lockstep.  Jitter only shortens the delay,
    so the cap and any wall-clock budget still hold. *)

val with_retry :
  ?attempts:int -> ?backoff_s:float -> ?budget_s:float ->
  ?on_retry:(int -> string -> unit) -> label:string ->
  (unit -> 'a) -> ('a, string) result
(** Run [f] up to [attempts] times (default 3), sleeping
    {!backoff_delay} between attempts — exponential from [backoff_s], the
    default 2 s cap, and a jitter seed derived from [label] (per-label
    deterministic, desynchronized across call sites) — and stopping early
    once [budget_s] seconds have elapsed.  [on_retry attempt msg] fires
    before each retry sleep (so callers — e.g. the serving daemon's
    metrics — can count absorbed transients).  {!Faults.Injected} (a
    simulated crash) is re-raised, never retried. *)
