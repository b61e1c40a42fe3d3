(** Deterministic fault injection behind the durability layer's write and
    measurement paths.  Disabled (the default) the hooks cost one mutable
    check; armed, they drive crash-at-every-write-point sweeps and transient
    measurement failures from plain counters, so every failure scenario in
    [test_robust] is exactly reproducible.

    Counter updates are serialized behind a mutex, so the hooks may fire from
    several domains at once (the parallel top-k measurement path): [n] armed
    transients injure exactly [n] ticks regardless of which domains take
    them. *)

exception Injected of string
(** A simulated crash at a named write point.  Recovery wrappers (e.g.
    {!Robust.with_retry}) must re-raise it: the process is "dead". *)

exception Transient of string
(** A recoverable hiccup; retry wrappers may absorb it. *)

val reset : unit -> unit
(** Disarm everything and zero the write counter. *)

val arm_fail_nth_write : int -> unit
(** Raise {!Injected} at the [n]th (1-based) write point reached from now on,
    then disarm.  Write points are counted across all artifacts. *)

val arm_truncate_at : int -> unit
(** Truncate the next written blob at this byte offset (one-shot). *)

val arm_corrupt_byte : int -> unit
(** Flip one byte of the next written blob at this offset (one-shot). *)

val arm_transient_measures : int -> unit
(** Make the next [n] measurement ticks raise {!Transient}. *)

val arm_stuck_measures : seconds:float -> int -> unit
(** Make the next [n] measurement ticks stall for [seconds] each before
    proceeding — the deterministic "stuck measurement" the serving layer's
    deadline watchdog must survive. *)

val arm_partial_net : cap:int -> int -> unit
(** Cap the next [n] serving-layer socket reads/writes at [cap] bytes each,
    forcing the partial-IO paths a slow or trickling peer produces. *)

val arm_clock_skew : seconds:float -> unit
(** Step the {e wall} clock ({!Robust.wall_now}) by [seconds] from now on —
    the deterministic NTP jump the monotonic-clock rule (DESIGN.md §12) must
    make harmless.  Unlike the counter-driven faults, the skew persists until
    {!reset}.  Monotonic time ({!Robust.mono_now}) is never skewed: real
    monotonic clocks don't step, and every deadline/elapsed path must run on
    one. *)

val arm_net_drop_at : int -> unit
(** Make the [n]th (1-based) serving-layer socket operation from now report
    the peer as dead ({!net_drop_tick} returns [true]), simulating a
    connection dropped mid-frame. *)

(** {2 Hooks called by production code} *)

val guard_write : string -> unit
(** Crash point; [string] names it for the {!Injected} payload. *)

val mangle : string -> string
(** Apply any armed truncate/corrupt transformation to a blob about to hit
    disk; identity when disarmed. *)

val measure_tick : unit -> unit
(** Transient-failure (and stuck-measurement stall) point in front of each
    measurement run. *)

val net_io_cap : unit -> int option
(** Byte cap for the next socket read/write when {!arm_partial_net} is armed
    (consumes one armed op); [None] when disarmed. *)

val net_drop_tick : unit -> bool
(** [true] exactly once, at the socket operation {!arm_net_drop_at} armed:
    the caller must treat the connection as reset by the peer. *)

val wall_skew : unit -> float
(** The currently armed wall-clock offset (0 when disarmed).  Consumed by
    {!Robust.wall_now}; production code should call that, not this. *)
