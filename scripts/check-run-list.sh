#!/usr/bin/env bash
# Fails when a name in a `go test -run` list matches no test in the given
# packages, so a renamed or merged test cannot turn a step that repeats the
# listed tests into a silent no-op. Each `|`-separated name is matched the
# way -run matches it: as an unanchored regular expression.
#
#   ./scripts/check-run-list.sh 'TestA|TestB' ./pkg1 ./pkg2
set -euo pipefail

if [ "$#" -lt 2 ]; then
  echo "usage: $0 'TestA|TestB' package..." >&2
  exit 2
fi
list="$1"
shift
listed="$(go test -list '.*' "$@")"
tests="$(grep -E '^(Test|Benchmark|Example|Fuzz)' <<<"${listed}" || true)"
missing=0
IFS='|' read -ra names <<<"${list}"
for name in "${names[@]}"; do
  if ! grep -qE -- "${name}" <<<"${tests}"; then
    echo "check-run-list: no test in $* matches ${name}" >&2
    missing=1
  fi
done
exit "${missing}"
