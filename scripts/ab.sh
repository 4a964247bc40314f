#!/usr/bin/env bash
# A/B benchmark of the working tree against a git revision.
#
#   scripts/ab.sh <rev> [pairs=10] [seconds=50]
#
# Builds <rev> from a `git archive` checkout under target/ab/ and the
# working tree (both offline), then runs `pairs` alternating pairs of
# BENCHMARK.json's command with `--workload all --trace 0`. Both runs of a
# pair share one seed (pair i uses seed i); <rev> runs first in odd pairs,
# the working tree first in even ones. From each run's JSON result lines it
# prints, for every workload and end-to-end metric of BENCHMARK.json:
# <rev>'s median and quartiles, the change's median, change/rev, the pairs
# the change won (by the metric's "better" direction), and the operations
# that failed on each side. It only invokes the benchmark; it never edits
# perfbench/ or BENCHMARK.json.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

usage() { echo "usage: scripts/ab.sh <rev> [pairs=10] [seconds=50]" >&2; exit 2; }
[ $# -ge 1 ] && [ $# -le 3 ] || usage
rev="$1"
pairs="${2:-10}"
seconds="${3:-50}"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
[[ "$seconds" =~ ^[1-9][0-9]*$ ]] || usage
sha=$(git rev-parse --verify --quiet "$rev^{commit}") || { echo "ab.sh: unknown revision $rev" >&2; exit 2; }

# The benchmark command, as BENCHMARK.json states it (run from a checkout root).
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
[ "${#cmd[@]}" -gt 0 ] || { echo "ab.sh: BENCHMARK.json names no command" >&2; exit 2; }

base="$root/target/ab/$sha"
if [ ! -f "$base/.complete" ]; then
  rm -rf "$base"
  mkdir -p "$base"
  git archive "$sha" | tar -x -C "$base"
  touch "$base/.complete"
fi

echo "== building $rev ($sha) and the working tree (offline)"
for dir in "$base" "$root"; do
  (cd "$dir" && cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done

results=$(mktemp)
trap 'rm -f "$results" "$results.out" "$results.err"' EXIT

# run <side> <dir> <pair> <seed>: one benchmark run; its JSON lines go to
# $results as "side pair workload attempted failed metric=value ...".
run() {
  local side=$1 dir=$2 pair=$3 seed=$4 status=0
  (cd "$dir" && "${cmd[@]}" --workload all --trace 0 --seed "$seed" --seconds "$seconds") \
    >"$results.out" 2>"$results.err" || status=$?
  # Each JSON line follows its workload's "<workload> seed <n>: ..." line.
  awk '/^[a-z0-9-]+ seed [0-9]+: / { w = $1 } /^\{/ { print w, $0 }' "$results.out" |
    while read -r workload json; do
      jq -r --arg side "$side" --arg pair "$pair" --arg w "$workload" '
        [$side, $pair, $w, (.attempted|tostring), (.failed|tostring)]
        + [.metrics | to_entries[] | "\(.key)=\(.value.value)"] | join(" ")' <<<"$json"
    done >>"$results"
  if [ "$status" -ne 0 ]; then
    echo "   $side pair $pair (seed $seed) exited $status: $(tail -n 1 "$results.err")"
  fi
}

echo "== $pairs alternating pairs of ${seconds}s runs: rev = $rev, change = working tree"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run rev "$base" "$i" "$i"; run change "$root" "$i" "$i"
  else
    run change "$root" "$i" "$i"; run rev "$base" "$i" "$i"
  fi
  echo "   pair $i/$pairs done (seed $i)"
done

# Metric name and "better" direction per end-to-end metric.
directions=$(jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json)
workloads=$(jq -r '.workloads[].name' BENCHMARK.json)

echo
printf '%-11s %-17s %12s %25s %12s %7s %6s\n' \
  workload metric "rev median" "rev [q1, q3]" "change med" ratio won
for w in $workloads; do
  while read -r metric better; do
    awk -v w="$w" -v m="$metric" -v better="$better" '
      function sortv(a, n,   i, j, t) {
        for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
      }
      # Linear interpolation between order statistics (type 7 quantiles).
      function q(a, n, p,   h, lo) {
        h = (n - 1) * p + 1; lo = int(h)
        return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
      }
      $3 == w {
        for (k = 6; k <= NF; k++) {
          split($k, kv, "=")
          if (kv[1] == m) { v[$1, $2] = kv[2] + 0; seen[$2] = 1 }
        }
      }
      END {
        nr = nc = won = paired = 0
        for (p in seen) {
          if ((("rev", p) in v)) r[++nr] = v["rev", p]
          if ((("change", p) in v)) c[++nc] = v["change", p]
          if ((("rev", p) in v) && (("change", p) in v)) {
            paired++
            if ((better == "lower" && v["change", p] < v["rev", p]) ||
                (better == "higher" && v["change", p] > v["rev", p])) won++
          }
        }
        if (nr == 0 || nc == 0) {
          printf "%-11s %-17s %12s\n", w, m, "no results"
          exit
        }
        sortv(r, nr); sortv(c, nc)
        rm = q(r, nr, 0.5); cm = q(c, nc, 0.5)
        printf "%-11s %-17s %12.5g %25s %12.5g %7s %6s\n", w, m, rm,
          sprintf("[%.5g, %.5g]", q(r, nr, 0.25), q(r, nr, 0.75)), cm,
          rm == 0 ? "-" : sprintf("%.3f", cm / rm), won "/" paired
      }' "$results"
  done <<<"$directions"
  awk -v w="$w" '$3 == w { a[$1] += $4; f[$1] += $5; n[$1]++ }
    END { printf "%-11s failed operations: rev %d of %d (%d runs), change %d of %d (%d runs)\n",
          w, f["rev"], a["rev"], n["rev"], f["change"], a["change"], n["change"] }' "$results"
done
