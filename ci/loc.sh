#!/usr/bin/env bash
# Non-test Rust line counts: per crate and the workspace total.
#
# A file counts its lines before the first `#[cfg(test)]` (all of them if
# it has none). Files under a `tests/` or `fixtures/` directory are left
# out. A crate is a directory under crates/ or vendor/; src/ (the root
# package) counts as one crate. examples/ is printed after the total and
# kept out of it, so the total stays comparable while code moved into an
# example still shows.
#
# Usage: ci/loc.sh [repo root]   (defaults to the parent of this script)
set -euo pipefail

root=${1:-"$(cd "$(dirname "$0")/.." && pwd)"}
cd "$root"

count() {
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/fixtures/*' -print0 |
        xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }' |
        awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in crates/* src vendor/*; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    printf '%-24s %6d\n' "$dir" "$n"
    total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
if [ -d examples ]; then
    printf '%-24s %6d\n' examples "$(count examples)"
fi
