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
# other.
if grep -rn "Unix.gettimeofday" lib/serve lib/core/tuner.ml 2>/dev/null; then
  echo "lint.sh: Unix.gettimeofday on a deadline/elapsed path (use Robust.mono_now)" >&2
  status=1
fi

# Compiled-plan rule (DESIGN.md §14): the serve layer must reach the model
# through the batched VM entry points (Costmodel.feature_batch, the tuner's
# query_batch) — never the eager per-item forwards, which would silently
# give up the batching the phase-B throughput numbers rest on.
if grep -rn "Extractor\.forward\|Costmodel\.predict " lib/serve 2>/dev/null; then
  echo "lint.sh: eager forward/predict in lib/serve (use the batched VM entry points)" >&2
  status=1
fi
# The same rule for phase B's one path (DESIGN.md §10): serving reaches the
# model only through Tuner.query_batch, on one model per kernel slot that
# only the loop's thread touches.  The unbatched Tuner.query gives up the
# batched plan execution; Pool.map_workers and Costmodel.replicate bring
# back per-domain replicas, one feature cache per domain and a second path
# to test.  The pool's place is Tuner.tune's measurement fan-out.
if grep -rnE 'Tuner\.query([^_]|$)|map_workers|Costmodel\.replicate' lib/serve 2>/dev/null; then
  echo "lint.sh: unbatched query or per-domain replicas in lib/serve (use Tuner.query_batch ?pool)" >&2
  status=1
fi

# The @lint alias packs a generated matrix cleanly and checks that a broken
# schedule exits 2 with its diagnostics.
dune build @lint || status=1

# The @faults alias runs the durability/fault-injection sweeps: crash at
# every artifact write point, assert previous-artifact-or-typed-error.
dune build @faults || status=1

# The @perf alias runs the perf-refactor safety net: flat kernel-map parity
# against the reference builder, scratch-buffer gradchecks, the per-call
# allocation budget on the conv hot path, and the golden-artifact
# byte-identity check.
dune build @perf || status=1

# The @vm alias runs the inference-VM suite: compiled-plan/eager bitwise
# parity on every served kernel, steady-state allocation budgets for
# run_batch and the batched extractor, and the training-untouched gradcheck.
dune build @vm || status=1

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
