#!/usr/bin/env bash
# CI for the HHVM-JIT reproduction:
#   1. warning-clean build audit (threads/domain deps must be declared,
#      so a fresh `dune build` prints nothing),
#   2. tier-1 test suite,
#   3. parallel request-serving smoke: `hhvm_run report
#      --request-workers 4` runs a multi-domain serving burst, and
#      `--request-workers 0` must be refused as a usage error (exit 2),
#   4. serving-report parity: `hhvm_run report --serving-report A
#      --profile-folded B` at the defaults and at `--jit-workers 4
#      --request-workers 4` must write byte-identical files (the 4x4 run
#      compiles each retranslate-all on 4 JIT worker domains, which read
#      the live profile and TransCFG registry),
#   5. `bench/main.exe json` writes BENCH_hotpath.json and exits nonzero
#      when an invariant it records fails: output hashes or code-cache
#      byte totals diverging across execution modes or --jit-workers
#      counts; per-request outputs diverging across (jit x request)
#      serving configs; the serving report's folded profile not summing
#      exactly to its serving cycles; the jumpstarted startup run
#      profiling, retranslating, missing the cold run's output hash or
#      not reaching steady state strictly earlier (or the cold run never
#      retranslating); the tc-lifecycle scenario evicting nothing,
#      changing outputs across evict/compact, leaving hole bytes after
#      compaction or diverging across worker configs.  Its `serving`
#      section must carry the per-burst miss/fallback counters of the
#      write-leased lazy translation path,
#   6. jumpstart smoke: `hhvm_run warmup --dump` writes an image in one
#      process, `hhvm_run serve --jumpstart` adopts it in a fresh one,
#      and the jumpstarted run must serve with ZERO profiling
#      translations and ZERO retranslate-alls while its output hash is
#      bit-identical to the cold-started run's,
#   7. tc-lifecycle CLI path: `serve --tc-evict-threshold 2 --tc-compact`
#      must evict, close every hole, and hash-match a plain cold serve,
#   8. repo benchmark smoke: each perfbench workload at seed 1, which
#      applies its per-request output check against the other engine,
#      the seed-1 output digests and the cross-round determinism gate
#      to the single-domain dispatch path,
#   9. interpreter gates on that smoke's three `interp_only` runs (2 s
#      each, per-layer tracing on): the deterministic
#      `vm.interp.minor_words_per_req` of the first run may not exceed its
#      recorded value + 1 %, and the median of the three host-speed
#      calibrated `vm.interp.ns_per_instr` figures may not exceed 1.25 x
#      the median of the runs recorded beside its bound,
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

echo "== serving-report parity (defaults vs 4 JIT x 4 request workers) =="
rep=$(mktemp -d /tmp/report.XXXXXX)
trap 'rm -rf "$rep"' EXIT
dune exec bin/hhvm_run.exe -- report \
  --serving-report "$rep/report.1x1.json" --profile-folded "$rep/folded.1x1.txt"
dune exec bin/hhvm_run.exe -- report --jit-workers 4 --request-workers 4 \
  --serving-report "$rep/report.4x4.json" --profile-folded "$rep/folded.4x4.txt"
cmp "$rep/report.1x1.json" "$rep/report.4x4.json"
cmp "$rep/folded.1x1.txt" "$rep/folded.4x4.txt"

echo "== bench JSON (modes, retranslate, serving, startup, tc lifecycle) =="
dune exec bench/main.exe -- json
for key in translation_miss interp_fallback; do
  if ! grep -q "\"$key\"" BENCH_hotpath.json; then
    echo "ERROR: BENCH_hotpath.json serving section lacks \"$key\""
    exit 1
  fi
done

echo "== jumpstart smoke (warmup dump -> fresh-process restore) =="
img=$(mktemp /tmp/jumpstart.XXXXXX.img)
trap 'rm -rf "$rep" "$img"' EXIT
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

echo "== repo benchmark smoke (perfbench, seed 1) =="
for w in steady_region cold_start mix_shift; do
  python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
    | tail -n 1
done
interp=()
for _ in 1 2 3; do
  run=$(python3 perfbench/run.py --workload interp_only --seed 1 \
          --seconds 2 --trace 1 | tail -n 1)
  echo "$run"
  interp+=("$run")
done

echo "== interpreter gates (perfbench interp_only) =="
python3 - "${interp[@]}" <<'PY'
import json, statistics, sys
runs = [json.loads(arg)["metrics"] for arg in sys.argv[1:]]
values = {
    # exact: one run reads the same figure as any other
    "vm.interp.minor_words_per_req":
        runs[0]["vm.interp.minor_words_per_req"]["value"],
    # host-dependent: the median of the three runs
    "vm.interp.ns_per_instr":
        statistics.median(r["vm.interp.ns_per_instr"]["value"] for r in runs),
}
bounds = {
    # deterministic: 3962.7302 words/req at seed 1, + 1 %
    "vm.interp.minor_words_per_req": 3962.7302 * 1.01,
    # host-speed calibrated: 1.25 x the median (37.44 ns) of ten runs on
    # a 2-core x86-64 host, in ns: 33.38 33.53 34.75 35.22 36.25 38.64
    # 39.50 39.85 44.65 44.74
    "vm.interp.ns_per_instr": 1.25 * 37.44,
}
failed = False
for name, bound in bounds.items():
    value = values[name]
    ok = value <= bound
    failed = failed or not ok
    print(f"{name}: {value:.4f} (bound {bound:.4f}) {'ok' if ok else 'FAIL'}")
if failed:
    print("ERROR: interpreter gate failed")
    sys.exit(1)
PY

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
