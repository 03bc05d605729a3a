#!/usr/bin/env bash
# CLI grammar regression test for the serve/connect entry points: each
# `maxelctl serve` front (sequential, --spool worker pool, --evloop
# shards) must reject the retired --no-v3 alias and a bad --mode with a
# usage error (exit 2) and answer --help with exit 0; `connect` must
# reject the retired --stream alias. No server is started: every case
# is decided by flag parsing.
#
# Input (environment): CTL points at the built maxelctl binary.
set -uo pipefail
: "${CTL:?set CTL to the maxelctl binary}"

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failures=0

expect() {  # expect <exit code> <maxelctl args...>
  local want="$1"; shift
  local rc=0
  timeout 20 "$CTL" "$@" >"$dir/out.log" 2>&1 || rc=$?
  if [ "$rc" != "$want" ]; then
    echo "FAIL: maxelctl $* exited $rc (want $want):"
    cat "$dir/out.log"
    failures=$((failures + 1))
  else
    echo "ok: maxelctl $* -> $rc"
  fi
}

fronts=("serve" "serve --spool $dir/spool" "serve --evloop --spool $dir/spool")
for front in "${fronts[@]}"; do
  read -r -a args <<<"$front"
  expect 2 "${args[@]}" --no-v3
  expect 2 "${args[@]}" --mode bogus
  expect 0 "${args[@]}" --help
done
expect 2 connect --stream

[ "$failures" = 0 ] || { echo "cli_flags: $failures case(s) failed"; exit 1; }
echo "cli_flags: all cases passed"
