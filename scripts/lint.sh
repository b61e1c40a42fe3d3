#!/bin/sh
# Repository lint: formatting checks plus the `waco lint` diagnostic passes.
#
# ocamlformat is optional (it is not part of the minimal toolchain); without
# it only dune files are format-checked, using dune's built-in formatter.
set -e
cd "$(dirname "$0")/.."

status=0

if command -v ocamlformat >/dev/null 2>&1; then
  dune build @fmt || status=1
else
  echo "lint.sh: ocamlformat not found; checking dune files only" >&2
  for f in $(git ls-files '*dune'); do
    if ! dune format-dune-file <"$f" | cmp -s - "$f"; then
      echo "lint.sh: $f is not dune-fmt clean (run: dune fmt)" >&2
      status=1
    fi
  done
fi

# Monotonic-clock rule (DESIGN.md §12): deadline and elapsed-time paths in
# the serve layer and the tuner must never read the wall clock directly —
# Robust.mono_now / Robust.wall_now are the only entry points (both live in
# lib/robust, the one place allowed to call Unix.gettimeofday).  lib/serve
# includes the shared IO loop (lib/serve/loop.ml), whose reaper, partial-frame
# and bounded-write clocks time out clients, and the scale-out router
# (lib/serve/router.ml), whose redial backoff is a deadline path like any
# other.  bench/ is covered too: every recorded bench number is an elapsed
# time on the monotonic clock; so are lib/experiments and lib/search, whose
# training, search and evaluation timers feed the paper's figures (Fig. 16a's
# eval_time and total_seconds among them).
if grep -rn "Unix.gettimeofday" lib/serve lib/core/tuner.ml lib/experiments lib/search bench 2>/dev/null; then
  echo "lint.sh: Unix.gettimeofday on a deadline/elapsed path (use Robust.mono_now)" >&2
  status=1
fi

# SIGPIPE rule (DESIGN.md §12): the process-wide SIGPIPE guard has one
# home, lib/serve/addr.ml, where every serving socket is opened (Addr.listen
# for the daemons, Addr.connect for clients and shard links).  A second copy
# that saves and restores the handler re-arms the signal when its daemon
# stops, under any client of the same process still writing to a dead peer.
if grep -rn "sigpipe" lib bin 2>/dev/null | grep -v "^lib/serve/addr.ml:"; then
  echo "lint.sh: sigpipe outside lib/serve/addr.ml (use the guard in Addr)" >&2
  status=1
fi

# Serve-entry rule (DESIGN.md §10): the serve layer reaches the model only
# through Tuner.query, once per distinct miss, on the one model per kernel
# slot that only the loop's thread touches.  Tuner.tune, Extractor.forward
# and Costmodel.predict are second entry points beside it;
# Pool.map_workers and Costmodel.replicate bring back per-domain replicas,
# one feature memo per domain and a second path to test.  The pool's place
# is Tuner.tune's measurement fan-out, reached through Tuner.query ?pool.
if grep -rnE 'Tuner\.tune|Extractor\.forward|Costmodel\.predict|map_workers|Costmodel\.replicate' lib/serve 2>/dev/null; then
  echo "lint.sh: model reached past Tuner.query in lib/serve (use Tuner.query ?pool)" >&2
  status=1
fi

# Shared-state rule (DESIGN.md §10): no module-level mutable value in
# lib/serve — no top-level (or struct-level) binding that is not a function
# and holds a ref, an array, or a fresh Bytes/Buffer/Hashtbl, even one only
# a closure captures.  The decoder, the fingerprint and the router run on
# several domains of one process (a router and its shards in one benchmark
# process), so a module-level scratch buffer is a data race between them.
# Bindings are found by indentation: the file's top level and each
# `module X = struct` body.
if ! awk '
  function indent(s) { match(s, /^ */); return RLENGTH }
  FNR == 1 { if (open_b) check(); depth = 0; lvl[0] = 0 }
  {
    line = $0
    gsub(/\(\*.*\*\)/, "", line)
    if (line ~ /^[ \t]*$/) next
    ind = indent(line)
    # A binding whose right-hand side is still being collected.
    if (open_b) {
      if (ind > lvl[depth]) { rhs = rhs " " line; next }
      check()
    }
    if (line ~ /^ *module [A-Z][A-Za-z0-9_]* *(:[^=]*)?= *struct/) { lvl[++depth] = ind + 2; next }
    if (depth > 0 && ind == lvl[depth] - 2 && line ~ /^ *end/) { depth--; next }
    if (ind == lvl[depth] && match(line, /^ *(let|and) +[a-z_][A-Za-z0-9_'"'"']* *(:[^=]*)?= */)) {
      open_b = 1; where = FILENAME ":" FNR; rhs = substr(line, RLENGTH + 1)
    }
  }
  END { if (open_b) check(); exit bad }
  function check() {
    open_b = 0
    if (rhs ~ /^ *(fun|function)([^A-Za-z0-9_]|$)/) return
    if (rhs ~ /(^|[^A-Za-z0-9_.])ref([^A-Za-z0-9_]|$)|\[\||Array\.make|Bytes\.create|Buffer\.create|Hashtbl\.create/) {
      print where ": module-level mutable value"; bad = 1
    }
  }
' lib/serve/*.ml; then
  echo "lint.sh: module-level mutable value in lib/serve (allocate per call or per daemon)" >&2
  status=1
fi

# The bench harness refuses an unknown target with exit 2 before running
# anything, so a typo in a target name cannot pass as a green run.
rc=0
dune exec bench/main.exe -- nosuch-target >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "lint.sh: bench/main.exe exited $rc on an unknown target (want 2)" >&2
  status=1
fi

# The @lint alias packs a generated matrix cleanly and checks that a broken
# schedule exits 2 with its diagnostics.
dune build @lint || status=1

# The @faults alias runs the durability/fault-injection sweeps: crash at
# every artifact write point, assert previous-artifact-or-typed-error.
dune build @faults || status=1

# The @perf alias runs the perf-refactor safety net: flat kernel-map parity
# against the reference builder (single maps, and the whole coordinate
# pyramid of every conv extractor), scratch-buffer gradchecks, the per-call
# allocation budgets on the conv hot path and the stride-1 map build, and
# the golden-artifact byte-identity check.
dune build @perf || status=1

# Exercise the multi-domain pool paths once per run: the parallel suite
# (pool semantics, byte-identical artifacts, faults under parallel
# measurement) with the shared pool forced to two worker domains.
WACO_DOMAINS=2 dune exec -- test/test_parallel.exe || status=1

# The @serve alias runs the serving-daemon suite (protocol fuzz, cache
# crash sweeps, scheduler dedup, forked end-to-end daemon with kill and
# warm restart) with a bounded two-domain pool.
dune build @serve || status=1

# The @chaos alias runs the serving-layer chaos harness: a supervised
# daemon SIGKILLed under load 20+ times (zero cache corruption, zero hung
# clients, warm restarts), the supervisor's restart/give-up policy, and
# the deterministic serving fault points (partial IO, mid-frame drop,
# stuck measurement vs deadline).
dune build @chaos || status=1

# The @asym alias runs the asymptotic-analyzer suite: dominance-order
# properties, golden cost expressions, pre-filter/Costsim agreement and the
# tuner prune counters.
dune build @asym || status=1

# The @router alias runs the scale-out tier: consistent-hash ring balance
# and minimal-remap properties, the TCP transport end to end, the router
# daemon (verbatim relay, FIFO, stats fan-out, Busy propagation), and a
# shard SIGKILLed mid-load (predict-only failover, honest measured errors,
# warm ring rejoin).
dune build @router || status=1

# The @tcp alias reruns the full serving + chaos suites with every daemon
# on the TCP transport (WACO_TEST_TRANSPORT=tcp): both transports must
# satisfy the same robustness contract.
dune build @tcp || status=1

exit $status
