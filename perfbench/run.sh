#!/usr/bin/env bash
# Builds the benchmark and runs it on one CPU, passing every argument
# through. The offline workloads drive one stream, and the library's
# executor, seeing one CPU, runs each batch serially; serve-zipf's client,
# accept and batcher threads would otherwise race for a second CPU. The
# binary records the CPU count it saw in its result row.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v taskset >/dev/null; then
    echo "perfbench: taskset (util-linux) is required to pin the run" >&2
    exit 1
fi
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
# The first CPU this shell may run on, from a list such as 0-3,6.
cpu=$(taskset -cp $$ | sed 's/.*: //; s/[-,].*//')
# One malloc arena: the service runs a thread per connection, and glibc
# would spread them over up to 8 arenas per CPU it counts, so peak memory
# would depend on which threads happened to overlap. On one CPU the
# arenas buy no parallelism.
export MALLOC_ARENA_MAX=1
exec taskset -c "$cpu" "$bin" "$@"
