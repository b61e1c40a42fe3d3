#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a waco checkout.  Everything it builds and writes
# stays inside the checkout (_build/ and .perfbench-run/).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root is not a waco checkout (no dune-project or lib/)" >&2
  exit 2
fi
command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# The shared dune cache lives outside the checkout; keep the build local.
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
