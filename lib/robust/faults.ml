(* Deterministic fault injection for the durability test harness.

   Production code calls the three hooks ([guard_write], [mangle],
   [measure_tick]) at its injection points; when nothing is armed each hook
   is a single mutable-bool check, so the pipeline pays nothing in normal
   operation.  Armed faults are counter-driven, never clock- or
   randomness-driven, so a crash-at-every-write-point sweep is exactly
   reproducible: arming [fail_nth_write n] for n = 1, 2, ... walks the crash
   through every write point the code path has. *)

exception Injected of string
(* A simulated crash: the process is assumed dead at this point, so this
   exception must never be retried or swallowed by recovery wrappers. *)

exception Transient of string
(* A recoverable environment hiccup (the moral equivalent of a measurement
   node dropping one run); retry wrappers may absorb it. *)

type state = {
  mutable active : bool; (* any fault armed — the only check on the fast path *)
  mutable fail_nth : int; (* raise [Injected] at the nth write point; 0 = off *)
  mutable writes_seen : int;
  mutable truncate_at : int; (* truncate the next written blob here; -1 = off *)
  mutable corrupt_at : int; (* flip a byte of the next written blob; -1 = off *)
  mutable transient_measures : int; (* next n measure ticks raise [Transient] *)
  (* Serving-layer fault points (counter-driven, like everything above). *)
  mutable stuck_measures : int; (* next n measure ticks stall... *)
  mutable stuck_seconds : float; (* ...for this long each *)
  mutable net_cap : int; (* byte cap applied to the next net ops; -1 = off *)
  mutable net_cap_ops : int; (* how many more net ops the cap covers *)
  mutable net_drop_at : int; (* nth net op from now signals peer death; 0 = off *)
  mutable net_ops_seen : int;
  mutable wall_skew_s : float; (* offset added to the wall clock; 0 = off *)
}

let st =
  {
    active = false;
    fail_nth = 0;
    writes_seen = 0;
    truncate_at = -1;
    corrupt_at = -1;
    transient_measures = 0;
    stuck_measures = 0;
    stuck_seconds = 0.0;
    net_cap = -1;
    net_cap_ops = 0;
    net_drop_at = 0;
    net_ops_seen = 0;
    wall_skew_s = 0.0;
  }

(* Counter updates are serialized so armed faults stay exactly counter-driven
   when hooks fire from several domains at once (parallel top-k measurement):
   n armed transients injure exactly n ticks, whichever domains take them.
   The disarmed fast path stays a single unlocked [active] read. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let refresh () =
  st.active <-
    st.fail_nth > 0 || st.truncate_at >= 0 || st.corrupt_at >= 0
    || st.transient_measures > 0 || st.stuck_measures > 0
    || (st.net_cap >= 0 && st.net_cap_ops > 0)
    || st.net_drop_at > 0 || st.wall_skew_s <> 0.0

let reset () =
  with_lock (fun () ->
      st.fail_nth <- 0;
      st.writes_seen <- 0;
      st.truncate_at <- -1;
      st.corrupt_at <- -1;
      st.transient_measures <- 0;
      st.stuck_measures <- 0;
      st.stuck_seconds <- 0.0;
      st.net_cap <- -1;
      st.net_cap_ops <- 0;
      st.net_drop_at <- 0;
      st.net_ops_seen <- 0;
      st.wall_skew_s <- 0.0;
      refresh ())

let arm_fail_nth_write n =
  if n < 1 then invalid_arg "Faults.arm_fail_nth_write: n must be >= 1";
  with_lock (fun () ->
      st.fail_nth <- n;
      st.writes_seen <- 0;
      refresh ())

let arm_truncate_at byte =
  if byte < 0 then invalid_arg "Faults.arm_truncate_at: negative offset";
  with_lock (fun () ->
      st.truncate_at <- byte;
      refresh ())

let arm_corrupt_byte byte =
  if byte < 0 then invalid_arg "Faults.arm_corrupt_byte: negative offset";
  with_lock (fun () ->
      st.corrupt_at <- byte;
      refresh ())

let arm_transient_measures n =
  if n < 0 then invalid_arg "Faults.arm_transient_measures: negative count";
  with_lock (fun () ->
      st.transient_measures <- n;
      refresh ())

let arm_stuck_measures ~seconds n =
  if n < 0 then invalid_arg "Faults.arm_stuck_measures: negative count";
  if seconds < 0.0 then invalid_arg "Faults.arm_stuck_measures: negative stall";
  with_lock (fun () ->
      st.stuck_measures <- n;
      st.stuck_seconds <- seconds;
      refresh ())

let arm_partial_net ~cap n =
  if cap < 1 then invalid_arg "Faults.arm_partial_net: cap must be >= 1";
  if n < 0 then invalid_arg "Faults.arm_partial_net: negative op count";
  with_lock (fun () ->
      st.net_cap <- cap;
      st.net_cap_ops <- n;
      refresh ())

let arm_net_drop_at n =
  if n < 1 then invalid_arg "Faults.arm_net_drop_at: n must be >= 1";
  with_lock (fun () ->
      st.net_drop_at <- n;
      st.net_ops_seen <- 0;
      refresh ())

(* Unlike the counter-driven faults above, a clock step is a lasting state
   change: once armed the skew stays until [reset], exactly like an NTP jump
   or a manual [date] on a real host. *)
let arm_clock_skew ~seconds =
  with_lock (fun () ->
      st.wall_skew_s <- seconds;
      refresh ())

(* --- hooks --- *)

let guard_write point =
  if st.active then
    with_lock (fun () ->
        if st.fail_nth > 0 then begin
          st.writes_seen <- st.writes_seen + 1;
          if st.writes_seen >= st.fail_nth then begin
            st.fail_nth <- 0;
            refresh ();
            raise (Injected point)
          end
        end)

let mangle blob =
  if not st.active then blob
  else
    with_lock (fun () ->
        let blob =
          if st.truncate_at >= 0 then begin
            let cut = min st.truncate_at (String.length blob) in
            st.truncate_at <- -1;
            String.sub blob 0 cut
          end
          else blob
        in
        let blob =
          if st.corrupt_at >= 0 && st.corrupt_at < String.length blob then begin
            let b = Bytes.of_string blob in
            let i = st.corrupt_at in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
            st.corrupt_at <- -1;
            Bytes.to_string b
          end
          else begin
            if st.corrupt_at >= 0 then st.corrupt_at <- -1;
            blob
          end
        in
        refresh ();
        blob)

let measure_tick () =
  if st.active then begin
    (* The stall happens outside the lock so a stuck measurement on one
       domain cannot wedge the other fault hooks. *)
    let stall =
      with_lock (fun () ->
          if st.stuck_measures > 0 then begin
            st.stuck_measures <- st.stuck_measures - 1;
            let s = st.stuck_seconds in
            refresh ();
            s
          end
          else 0.0)
    in
    if stall > 0.0 then Unix.sleepf stall;
    with_lock (fun () ->
        if st.transient_measures > 0 then begin
          st.transient_measures <- st.transient_measures - 1;
          refresh ();
          raise (Transient "injected transient measurement failure")
        end)
  end

(* Both serving-IO hooks below answer from one counter sequence: reads and
   writes alike are "net ops", so a sweep armed with [arm_net_drop_at n] for
   n = 1, 2, ... walks the simulated peer death through every socket
   operation a scenario has. *)

let net_io_cap () =
  if not st.active then None
  else
    with_lock (fun () ->
        if st.net_cap >= 0 && st.net_cap_ops > 0 then begin
          st.net_cap_ops <- st.net_cap_ops - 1;
          let cap = st.net_cap in
          if st.net_cap_ops = 0 then st.net_cap <- -1;
          refresh ();
          Some cap
        end
        else None)

let wall_skew () = if not st.active then 0.0 else with_lock (fun () -> st.wall_skew_s)

let net_drop_tick () =
  if not st.active then false
  else
    with_lock (fun () ->
        if st.net_drop_at > 0 then begin
          st.net_ops_seen <- st.net_ops_seen + 1;
          if st.net_ops_seen >= st.net_drop_at then begin
            st.net_drop_at <- 0;
            refresh ();
            true
          end
          else false
        end
        else false)
