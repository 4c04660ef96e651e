#!/bin/sh
# check_smoke.sh — the CI integrity gate (`make check`).
#
# Two halves. First the positive contract: aimcheck over the pin
# manifest and a freshly-populated plan-cache directory must exit 0 —
# the tree as shipped verifies. Then the negative contract: one
# deliberate corruption per artifact class (bit-flipped plan entry,
# truncated plan entry, orphaned temp file, tampered manifest pin),
# each of which must flip the exit code to 1. A checker that cannot see the
# corruption it was built for is worse than no checker; this script is
# the mechanical proof that it can.
#
# Experiment-table pins are deliberately not recomputed here (that is
# `aimcheck -experiments`, ~40s for all 22 tables); the race-test step
# already proves them byte-identical via TestTableBytesPinnedByManifest.
set -u

GO="${GO:-go}"
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

aimcheck="$tmp/aimcheck"
$GO build -o "$aimcheck" ./cmd/aimcheck || exit 1

# Populate a fresh plan store the way production does: one-shot aimc
# runs writing compiled plans back through the atomic temp-file path.
plans="$tmp/plans"
echo "check_smoke: populating plan cache" >&2
$GO run ./cmd/aimc -net mobilenetv2 -plan-cache-dir "$plans" >/dev/null || exit 1
$GO run ./cmd/aimc -net resnet18 -mode sprint -seed 2 -plan-cache-dir "$plans" >/dev/null || exit 1

fail=0

# expect WANT DESC ARGS... — run aimcheck, require exit code WANT.
expect() {
	want=$1
	desc=$2
	shift 2
	out=$("$aimcheck" "$@" 2>&1)
	code=$?
	if [ "$code" -ne "$want" ]; then
		echo "check_smoke: FAIL: $desc: exit $code, want $want" >&2
		printf '%s\n' "$out" | sed 's/^/  /' >&2
		fail=1
	else
		echo "check_smoke: ok: $desc (exit $code)" >&2
	fi
}

# clone SRC DST — corruption cases each work on their own copy of the
# pristine plan store so faults never stack.
clone() {
	rm -rf "$2"
	cp -R "$1" "$2"
}

# entry DIR — path of the first stored plan entry in DIR.
entry() {
	find "$1" -type f | sort | head -n 1
}

# 1. Pristine tree: manifest + plan store.
expect 0 "pristine tree verifies" -plan-cache-dir "$plans"

# 2. Bit-flipped plan entry: xor the middle byte in place.
clone "$plans" "$tmp/flip"
e=$(entry "$tmp/flip")
size=$(wc -c <"$e")
off=$((size / 2))
b=$(dd if="$e" bs=1 skip="$off" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $(((b + 128) % 256)))" |
	dd of="$e" bs=1 seek="$off" count=1 conv=notrunc 2>/dev/null
expect 1 "bit-flipped plan entry detected" -plan-cache-dir "$tmp/flip"

# 3. Truncated plan entry: keep the first half (a crashed writer that
# somehow skipped the temp-file protocol).
clone "$plans" "$tmp/trunc"
e=$(entry "$tmp/trunc")
size=$(wc -c <"$e")
head -c $((size / 2)) "$e" >"$e.cut" && mv "$e.cut" "$e"
expect 1 "truncated plan entry detected" -plan-cache-dir "$tmp/trunc"

# 4. Orphaned temp file: a writer that died between write and rename.
clone "$plans" "$tmp/orphan"
e=$(entry "$tmp/orphan")
printf 'partial' >"$(dirname "$e")/tmp-$(basename "$e")-1234"
expect 1 "orphaned temp file detected" -plan-cache-dir "$tmp/orphan"

# 5. Tampered manifest pin: zero the ascii irmap hash. Still 64 hex
# chars, so only the re-derivation — not shape validation — catches it.
sed 's/"ascii": "[0-9a-f]*"/"ascii": "0000000000000000000000000000000000000000000000000000000000000000"/' \
	manifest/experiments.json >"$tmp/experiments.json"
expect 1 "tampered manifest pin detected" -manifest "$tmp/experiments.json"

if [ "$fail" -ne 0 ]; then
	echo "check_smoke: FAILED" >&2
	exit 1
fi
echo "check_smoke: OK" >&2
