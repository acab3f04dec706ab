#!/usr/bin/env bash
# CI for the HHVM-JIT reproduction:
#   1. warning-clean build audit (threads/domain deps must be declared,
#      so a fresh `dune build` prints nothing),
#   2. tier-1 test suite,
#   3. parallel request-serving smoke: `hhvm_run report
#      --request-workers 4` runs a multi-domain serving burst, and
#      `--request-workers 0` must be refused as a usage error (exit 2),
#   4. the `bench/main.exe serving` sweep exits nonzero when per-request
#      outputs diverge across any (jit x request) worker configuration,
#   5. `bench/main.exe json` sweeps --jit-workers {1,2,4} and exits
#      nonzero when output hashes or code-cache byte totals diverge
#      across worker counts; its `serving` section must carry the
#      per-burst miss/fallback counters of the write-leased lazy
#      translation path,
#   6. jumpstart smoke: `hhvm_run warmup --dump` writes an image in one
#      process, `hhvm_run serve --jumpstart` adopts it in a fresh one,
#      and the jumpstarted run must serve with ZERO profiling
#      translations and ZERO retranslate-alls while its output hash is
#      bit-identical to the cold-started run's,
#   7. tc-lifecycle smoke: `bench/main.exe tc_lifecycle` runs the
#      mix-shift scenario — warm on one endpoint mix, shift the mix,
#      decay/evict/compact — and exits nonzero on hash instability
#      across evict/compact, leftover hole bytes after compaction, or
#      output divergence across (jit x request) worker configs; the CLI
#      path (`serve --tc-evict-threshold 2 --tc-compact`) must evict yet
#      hash-match a plain cold serve,
#   8. serving-report + startup + tc_lifecycle validation:
#      check_bench_json.sh asserts the serving_report section carries
#      every percentile/phase/profile key, that the folded profile's
#      cycle total equals the report's total serving cycles exactly,
#      that the startup section shows the jumpstarted process reaching
#      steady state strictly earlier than the cold one with a matching
#      output hash, and that the tc_lifecycle section shows eviction
#      fired, zero holes after compaction, and cross-config parity,
#   9. repo benchmark smoke: each perfbench workload for one second at
#      seed 1, which applies its per-request output check against the
#      other engine, the seed-1 output digests and the cross-round
#      determinism gate to the single-domain dispatch path,
#  10. clock gate: no direct wall-clock read (Unix.gettimeofday,
#      Unix.time, Sys.time) in lib/, bin/ or bench/ — every clock read
#      there goes through Obs.Clock.now, the monotonic clock.  test/ is
#      exempt (a test may time its own wall budget),
#  11. environment gate: no Sys.getenv / Unix.getenv in lib/, bin/ or
#      bench/ — the Jit_options record, filled from flags, is the
#      engine's only configuration input.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (warning audit) =="
build_log=$(dune build 2>&1) || { echo "$build_log"; exit 1; }
if [ -n "$build_log" ]; then
  echo "$build_log"
  echo "ERROR: build is not warning-clean"
  exit 1
fi

echo "== tier-1 tests =="
dune runtest

echo "== parallel serving smoke (4 request workers) =="
dune exec bin/hhvm_run.exe -- report --request-workers 4
rc=0
dune exec bin/hhvm_run.exe -- report --request-workers 0 2>/dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "ERROR: --request-workers 0 exited $rc, expected usage error 2"
  exit 1
fi

echo "== combined compile x serving sweep =="
dune exec bench/main.exe -- serving

echo "== parallel retranslate sweep + bench JSON serving counters =="
dune exec bench/main.exe -- json
for key in translation_miss interp_fallback; do
  if ! grep -q "\"$key\"" BENCH_hotpath.json; then
    echo "ERROR: BENCH_hotpath.json serving section lacks \"$key\""
    exit 1
  fi
done

echo "== jumpstart smoke (warmup dump -> fresh-process restore) =="
img=$(mktemp /tmp/jumpstart.XXXXXX.img)
trap 'rm -f "$img"' EXIT
dune exec bin/hhvm_run.exe -- warmup --dump "$img"
cold=$(dune exec bin/hhvm_run.exe -- serve)
jump=$(dune exec bin/hhvm_run.exe -- serve --jumpstart "$img")
echo "$cold"; echo "$jump"
cold_hash=$(echo "$cold" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
jump_hash=$(echo "$jump" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
if [ -z "$cold_hash" ] || [ "$cold_hash" != "$jump_hash" ]; then
  echo "ERROR: jumpstarted output hash ($jump_hash) != cold hash ($cold_hash)"
  exit 1
fi
if ! echo "$jump" | grep -q "jumpstarted from"; then
  echo "ERROR: serve --jumpstart fell back to a cold start"
  exit 1
fi
if ! echo "$jump" | grep -q "0 profiling"; then
  echo "ERROR: jumpstarted process still made profiling translations"
  exit 1
fi
if ! echo "$jump" | grep -q "retranslate runs 0"; then
  echo "ERROR: jumpstarted process still ran retranslate-all"
  exit 1
fi
# graceful degradation: a corrupt image must log, cold-start, and serve
echo "garbage" > "$img"
degraded=$(dune exec bin/hhvm_run.exe -- serve --jumpstart "$img" 2>&1)
if ! echo "$degraded" | grep -q "falling back to cold start"; then
  echo "ERROR: corrupt jumpstart image did not degrade to a cold start"
  exit 1
fi
deg_hash=$(echo "$degraded" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
if [ "$deg_hash" != "$cold_hash" ]; then
  echo "ERROR: degraded cold start served wrong output ($deg_hash != $cold_hash)"
  exit 1
fi

echo "== tc lifecycle smoke (mix shift, evict + compact, 4x4 parity) =="
dune exec bench/main.exe -- tc_lifecycle

echo "== tc lifecycle CLI path (serve with eviction on) =="
lc=$(dune exec bin/hhvm_run.exe -- serve --tc-evict-threshold 2 --tc-compact)
echo "$lc"
lc_hash=$(echo "$lc" | sed -n 's/.*output hash \(-*[0-9]*\).*/\1/p')
if [ -z "$lc_hash" ] || [ "$lc_hash" != "$cold_hash" ]; then
  echo "ERROR: lifecycle serve output hash ($lc_hash) != cold hash ($cold_hash)"
  exit 1
fi
if ! echo "$lc" | grep -q "tc lifecycle: evicted [1-9]"; then
  echo "ERROR: lifecycle serve evicted nothing"
  exit 1
fi
if ! echo "$lc" | grep -q "0 hole bytes"; then
  echo "ERROR: lifecycle serve left holes uncompacted"
  exit 1
fi

echo "== serving report + startup + tc_lifecycle validation =="
./scripts/check_bench_json.sh

echo "== repo benchmark smoke (perfbench, seed 1, 1 s per workload) =="
for w in steady_region interp_only cold_start mix_shift; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
    | tail -n 1
done

echo "== clock gate (Obs.Clock.now only in lib/ bin/ bench/) =="
if grep -rnE --include='*.ml' --include='*.mli' \
     '\b(Unix\.gettimeofday|Unix\.time|Sys\.time)\b' lib bin bench; then
  echo "ERROR: direct clock read above; use Obs.Clock.now"
  exit 1
fi

echo "== environment gate (no getenv in lib/ bin/ bench/) =="
if grep -rnE --include='*.ml' --include='*.mli' \
     '\b(Sys\.getenv|Sys\.getenv_opt|Unix\.getenv)\b' lib bin bench; then
  echo "ERROR: environment read above; add a Jit_options field and a flag"
  exit 1
fi

echo "CI OK"
