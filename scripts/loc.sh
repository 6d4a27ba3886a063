#!/usr/bin/env sh
# Lines of non-test Go outside benchmark/ and testdata/: the count
# simplicity PRs quote, so "less code" is this command's output at two
# commits and not a hand count.
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v -e '_test\.go$' -e '^benchmark/' -e '/testdata/' | xargs cat | wc -l
