#!/bin/sh
# Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
#
# Runs planar_cli on a tiny CSV and checks its exit codes: well-formed
# commands exit 0, and malformed flags (negative or oversized counts, an
# unknown --cmp) exit 2 with a usage error at once, instead of hanging or
# silently running a different query. Each run is bounded by `timeout`.
#
# Usage: cli_flags_test.sh <path to planar_cli>
set -u
cli="$1"
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
printf '1.0,2.0\n4.0,5.0\n7.0,8.0\n2.0,3.0\n' > "$dir/pts.csv"

failures=0
expect() {  # expect <exit code> <planar_cli args...>
  want=$1
  shift
  timeout 20 "$cli" "$@" > "$dir/out" 2>&1
  got=$?
  if [ "$got" != "$want" ]; then
    echo "FAIL: planar_cli $* exited $got, want $want"
    cat "$dir/out"
    failures=$((failures + 1))
  fi
}

build="build --csv=$dir/pts.csv --domains=1:8,1:8 --out=$dir/idx.planar"
expect 0 $build --budget=4
expect 2 $build --budget=-1
expect 2 $build --budget=0
expect 2 $build --budget=99999999999999
expect 2 $build --budget=4x
expect 2 $build --max_rows=-1

query="query --index=$dir/idx.planar --a=3,5 --b=40"
expect 0 $query
expect 0 $query --cmp=ge --topk=2
expect 0 count --index="$dir/idx.planar" --a=3,5 --b=40 --cmp=ge
expect 2 $query --cmp=xx
expect 2 $query --topk=-1
expect 2 $query --topk=two
expect 2 count --index="$dir/idx.planar" --a=3,5 --b=40 --cmp=xx
expect 2 query --index="$dir/idx.planar" --a=3 --b=40

if [ "$failures" -ne 0 ]; then
  echo "cli_flags_test: $failures failure(s)"
  exit 1
fi
echo "cli_flags_test: OK"
