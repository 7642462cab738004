#!/bin/sh
# loc.sh — print the repo's "non-test Go lines" metric: the line count
# of every Go file git knows about (tracked, or new and not ignored),
# excluding *_test.go files and the perfbench/ harness. Simplicity
# changes report this number before and after, counted this way.
#
# Usage: scripts/loc.sh   (or `make loc`), from anywhere in the repo.
set -e
cd "$(git rev-parse --show-toplevel)"
git ls-files --cached --others --exclude-standard -- '*.go' |
	grep -v -e '_test\.go$' -e '^perfbench/' |
	while IFS= read -r f; do
		[ -f "$f" ] && cat "$f"
	done |
	wc -l | tr -d ' '
