#!/usr/bin/env bash
# Fails when a test name changes from one GoogleTest discovery to the next.
# A parameterized test whose parameter has no PrintTo is named after the
# parameter's raw bytes; when those bytes hold a pointer, address-space
# randomisation gives the test a new name on every discovery, and a list of
# known test names stops matching the suite.
#
# Usage: scripts/check_test_names.sh [build-dir]   (default: build)
#
# The build dir must already be built. The names ctest reports are cached at
# link time, so the script lists them with `ctest -N`, deletes the test
# binaries, relinks them (which reruns discovery in a new process), lists
# again and compares the two lists.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir=${1:-build}

list_tests() {
  ctest --test-dir "$build_dir" -N | sed -n 's/^ *Test *#[0-9]*: //p' | sort
}

first=$(mktemp)
second=$(mktemp)
trap 'rm -f "$first" "$second"' EXIT

list_tests > "$first"
if [ ! -s "$first" ]; then
  echo "check_test_names: no tests listed in $build_dir" >&2
  exit 1
fi

find "$build_dir/tests" -maxdepth 1 -type f -name '*_test' -delete
cmake --build "$build_dir" -j > /dev/null
list_tests > "$second"

if ! diff -u "$first" "$second"; then
  echo "check_test_names: test names differ between two discoveries" >&2
  exit 1
fi
echo "check_test_names: $(wc -l < "$first") test names stable" \
  "across two discoveries"
