#!/usr/bin/env bash
# Single entry point of the benchmark: builds the package offline, then
# runs it with the arguments given. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload pipeline_transfer --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh --smoke            # every workload, small, < 20 s
#   bash benchmark/run.sh --check            # the full set twice, compared
#
# Everything it writes stays inside the checkout: the build under
# $CARGO_TARGET_DIR (default benchmark/target), traces under benchmark/out.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Quiet unless the build fails; a checkout without the program's crates
# fails here with a non-zero exit and no result line.
if ! log="$(CARGO_TARGET_DIR="$target" cargo build --release --offline \
    --manifest-path "$here/Cargo.toml" 2>&1)"; then
    echo "$log" >&2
    exit 1
fi

exec "$target/release/pds2-benchmark" "$@"
