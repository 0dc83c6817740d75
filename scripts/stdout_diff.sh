#!/usr/bin/env bash
# stdout_diff.sh — check that the maxwarp CLI and the examples print the
# same stdout as another revision.
#
# Usage: scripts/stdout_diff.sh REV      (or: make stdoutdiff BASE=REV)
#
# Builds cmd/maxwarp and every example at REV (unpacked with `git archive`
# into a temp directory, so nothing is fetched and .git is left untouched)
# and from the working tree, runs both CLI binaries over a fixed command list
# and both builds of each example, and compares each run's stdout and exit
# status. stderr is not compared: it carries
# timestamped log lines. Prints every differing command with a short diff
# and exits 1 if any command differs.
#
# The list covers every table entry on two presets and both host modes,
# the dynamic schedule, -inject on the served entries and on `bfs`, outlier
# deferral on `bfs` in both host modes, sanitize, verify, profile, the
# dynamic-graph stream in both host modes plus its insert-only CC stream, and
# every experiment except E3, whose CPU columns are host wall-clock.
set -euo pipefail

rev="${1:?usage: scripts/stdout_diff.sh REV}"
cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

mkdir "$workdir/base"
git archive "$rev" | tar -x -C "$workdir/base"
(cd "$workdir/base" && go build -o "$workdir/mw-base" ./cmd/maxwarp &&
  go build -o "$workdir/ex-base/" ./examples/...)
go build -o "$workdir/mw-head" ./cmd/maxwarp
go build -o "$workdir/ex-head/" ./examples/...

# The table entries and experiments, as the working tree lists them.
# (-h exits non-zero after printing the usage.)
names=$({ "$workdir/mw-head" algo -h 2>&1 || true; } | grep -A1 -- '-name string' |
  tail -1 | sed 's/(default.*//' | tr -d '|')
exps=$("$workdir/mw-head" list | awk '$1 ~ /^[EA][0-9]+$/ && $1 != "E3" {print $1}')

cmds=()
for n in $names; do
  for p in 1 2; do
    cmds+=("algo -name $n -preset LiveJournal-like -scale 8 -parallel $p")
  done
  cmds+=("algo -name $n -preset RoadNet-like -scale 9 -k 8 -parallel 1")
  cmds+=("algo -name $n -scale 8 -k 4 -dynamic -parallel 1")
done
for s in abort=4,seed=3 bitflip=3,seed=5 loss=3000; do
  for n in bfs sssp pagerank cc; do
    cmds+=("algo -name $n -scale 7 -inject $s")
  done
  cmds+=("bfs -scale 7 -inject $s")
done
for p in 1 2; do
  cmds+=("bfs -preset LiveJournal-like -scale 9 -k 4 -defer 16 -parallel $p")
done
cmds+=("sanitize -scale 7" "verify -scale 8")
cmds+=("profile -name bfs -scale 8" "profile -name pagerank -scale 8")
for p in 1 2; do
  cmds+=("dynamic -preset LiveJournal-like -scale 9 -parallel $p")
done
cmds+=("dynamic -preset LiveJournal-like -scale 9 -delfrac 0 -algo cc -parallel 1")
for e in $exps; do
  cmds+=("run -exp $e -scale 7")
done

runs=0
differ=0
# compare LABEL BASE HEAD [ARG...] runs both binaries with the arguments
# and reports a difference in stdout or exit status.
compare() {
  local label=$1 base=$2 head=$3 base_rc head_rc
  shift 3
  runs=$((runs + 1))
  set +e
  "$base" "$@" >"$workdir/base.out" 2>/dev/null
  base_rc=$?
  "$head" "$@" >"$workdir/head.out" 2>/dev/null
  head_rc=$?
  set -e
  if [ "$base_rc" != "$head_rc" ] || ! cmp -s "$workdir/base.out" "$workdir/head.out"; then
    differ=$((differ + 1))
    echo "DIFF  $label  (exit $base_rc -> $head_rc)"
    diff -u "$workdir/base.out" "$workdir/head.out" | sed -n '3,14p' || true
  fi
}

for c in "${cmds[@]}"; do
  # $c is unquoted on purpose: each command is a flat argument list.
  compare "maxwarp $c" "$workdir/mw-base" "$workdir/mw-head" $c
done
for e in "$workdir"/ex-head/*; do
  n=$(basename "$e")
  compare "examples/$n" "$workdir/ex-base/$n" "$e"
done

echo "stdout_diff: $runs commands against $rev, $differ differ"
[ "$differ" -eq 0 ]
