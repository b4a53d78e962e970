#!/bin/sh
# Build the benchmark and the CLI it serves from source, then run one
# measurement, e.g.
#   sh perfbench/run.sh --workload table1 --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last stdout line is the result.
# The dune cache stays off: a run writes only inside this checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/perfbench.exe ./bin/legalize_cli.exe 1>&2
bench=./_build/default/perfbench/perfbench.exe
# The measurement, and the servers it starts, run on one CPU: on a
# shared host each CPU drifts in speed on its own, and a client and
# server on different CPUs pay a cross-CPU wake-up per reply. Pinned,
# a run depends on one CPU's speed and closed-loop latencies spread
# about half as much (see README.md, Host noise).
cpus=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null || true)
if [ -n "$cpus" ] && command -v taskset >/dev/null 2>&1; then
  exec taskset -c "${cpus##*[,-]}" "$bench" "$@"
fi
exec "$bench" "$@"
