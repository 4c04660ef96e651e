#!/bin/sh
# docs_check.sh — the CI docs gate (`make docs-check`).
#
# Four promises the documentation passes made, kept true mechanically:
#   1. Every Go package under internal/ and cmd/ carries a package doc
#      comment ("// Package <name> ..." for libraries, "// Command
#      <name> ..." for main packages), so `go doc` is never empty.
#   2. Every relative link in ARCHITECTURE.md and README.md resolves
#      to a file or directory in the repo, so the navigation map never
#      rots.
#   3. CHANGES.md carries exactly one line per PR, each starting
#      "PR <n>: " with n sequential from 1 — it is the next session's
#      only memory of this one, and a skipped or doubled entry breaks
#      that chain silently. Lines starting "FOUND: " (a fault seen but
#      not mended) or "MENDED: " (one since mended) sit between them
#      and do not count in the sequence.
#   4. ISSUE.md keeps its structural headers (# ISSUE, ## Motivation,
#      ## Tentpole, ## Satellite tasks, ## Acceptance criteria), so
#      the task contract stays parseable.
set -eu

cd "$(dirname "$0")/.."
fail=0

for dir in internal/*/ cmd/*/; do
	[ -d "$dir" ] || continue
	name=$(basename "$dir")
	# Any non-test Go file may carry the package comment; look for the
	# canonical "// Package <name>" (libraries) or "// Command <name>"
	# (main packages) form.
	if ! grep -qsE "^// (Package|Command) $name " "$dir"*.go; then
		echo "docs-check: $dir has no '// Package $name ...' or '// Command $name ...' doc comment"
		fail=1
	fi
done

for md in ARCHITECTURE.md README.md; do
	[ -f "$md" ] || { echo "docs-check: $md is missing"; fail=1; continue; }
	# Pull every markdown link target, keep the relative ones (no
	# scheme, no pure-anchor), strip any #fragment, and require the
	# path to exist.
	for target in $(grep -oE '\]\([^)]+\)' "$md" | sed -e 's/^](//' -e 's/)$//' |
		grep -vE '^(https?:|mailto:|#)' | sed 's/#.*$//' | sort -u); do
		[ -n "$target" ] || continue
		if [ ! -e "$target" ]; then
			echo "docs-check: $md links to $target, which does not exist"
			fail=1
		fi
	done
done

if [ ! -f CHANGES.md ]; then
	echo "docs-check: CHANGES.md is missing"
	fail=1
else
	n=0
	while IFS= read -r line; do
		case "$line" in
		"" | "FOUND: "* | "MENDED: "*) continue ;;
		esac
		n=$((n + 1))
		case "$line" in
		"PR $n: "*) ;;
		*)
			echo "docs-check: CHANGES.md non-empty line $n must start with 'PR $n: '"
			fail=1
			;;
		esac
	done <CHANGES.md
	if [ "$n" -lt 1 ]; then
		echo "docs-check: CHANGES.md has no PR lines"
		fail=1
	fi
fi

if [ -f ISSUE.md ]; then
	for h in '^# ISSUE' '^## Motivation$' '^## Tentpole$' '^## Satellite tasks$' '^## Acceptance criteria$'; do
		if ! grep -qE "$h" ISSUE.md; then
			echo "docs-check: ISSUE.md is missing a header matching '$h'"
			fail=1
		fi
	done
fi

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED"
	exit 1
fi
echo "docs-check: OK"
