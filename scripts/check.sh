#!/usr/bin/env bash
# The full CI gate, runnable locally. Mirrors .github/workflows/ci.yml.
#
# QAR_TEST_THREADS=1 runs the miner's counting passes single-threaded
# (the tests that pin parallelism explicitly are unaffected); CI runs the
# suite both ways to exercise the serial and the parallel code paths.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (default parallelism)"
cargo test --workspace -q

echo "==> cargo test (forced serial counting)"
QAR_TEST_THREADS=1 cargo test --workspace -q

echo "==> trace smoke (events vs. schemas/trace_events.schema.json)"
TRACE_FILE="$(mktemp)"
STORE_DIR="$(mktemp -d)"
trap 'rm -f "$TRACE_FILE"; rm -rf "$STORE_DIR"' EXIT
./target/release/smoke 2000 2.0 3 nointerest 0.3 0.2 --trace json \
    > /dev/null 2> "$TRACE_FILE"
./target/release/qar trace-check < "$TRACE_FILE"

echo "==> store smoke (mine -> store -> store-check -> query -> diff)"
./target/release/qar generate planted --records 2000 --seed 7 \
    --output "$STORE_DIR/planted.csv"
./target/release/qar mine --input "$STORE_DIR/planted.csv" \
    --schema x0:quant,x1:quant,x2:quant,c:cat \
    --minsup 0.1 --minconf 0.5 --maxsup 0.4 --intervals 10 --format json \
    --store "$STORE_DIR/cat.qarcat" > "$STORE_DIR/mine.json"
./target/release/qar store-check "$STORE_DIR/cat.qarcat" > /dev/null
./target/release/qar store-check - < "$STORE_DIR/cat.qarcat" > /dev/null
# An unfiltered JSON query must reproduce the mined rules array
# byte-for-byte (drop mine's leading stats line and trailing brace).
./target/release/qar query "$STORE_DIR/cat.qarcat" --format json \
    > "$STORE_DIR/query.json"
diff <(tail -n +2 "$STORE_DIR/mine.json" | head -n -1) \
     <(tail -n +2 "$STORE_DIR/query.json")
./target/release/qar query "$STORE_DIR/cat.qarcat" --record x0=50,c=A > /dev/null
./target/release/qar query - --range x1=20..40 --top-k 5 --by support \
    < "$STORE_DIR/cat.qarcat" > /dev/null
# A single corrupted byte must be rejected.
cp "$STORE_DIR/cat.qarcat" "$STORE_DIR/bad.qarcat"
off=$(( $(stat -c %s "$STORE_DIR/bad.qarcat") / 2 ))
orig=$(dd if="$STORE_DIR/bad.qarcat" bs=1 skip="$off" count=1 status=none \
    | od -An -tu1 | tr -d ' ')
rep='\xaa'; [ "$orig" = "170" ] && rep='\x55'
printf "$rep" | dd of="$STORE_DIR/bad.qarcat" bs=1 seek="$off" conv=notrunc status=none
if ./target/release/qar store-check "$STORE_DIR/bad.qarcat" > /dev/null 2>&1; then
    echo "store-check accepted a corrupted catalog" >&2
    exit 1
fi
# Query throughput floor (the bin exits non-zero below 10k queries/sec).
QAR_BENCH_QUICK=1 ./target/release/store_query > /dev/null

echo "==> serve smoke (daemon + concurrent load + trace validation + qps floor)"
# Start the rule-serving daemon on an OS-assigned port over the catalog
# mined above, drive a concurrent mixed workload against it, and stop it
# with a shutdown frame. The load generator exits non-zero below the
# 50k aggregate queries/sec floor; every server trace event must
# validate against the pinned schema.
./target/release/qar serve "$STORE_DIR/cat.qarcat" --port 0 --threads 10 \
    --trace json > "$STORE_DIR/serve.out" 2> "$STORE_DIR/serve.trace" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on" "$STORE_DIR/serve.out" 2> /dev/null && break
    sleep 0.1
done
ADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' "$STORE_DIR/serve.out")
QAR_BENCH_QUICK=1 ./target/release/qar bench-serve --addr "$ADDR" \
    --catalog "$STORE_DIR/cat.qarcat" --clients 8 --requests 250 \
    --out "$STORE_DIR/bench_serve.json" --shutdown > /dev/null
wait "$SERVE_PID"
grep -q '"suite":"bench_serve"' "$STORE_DIR/bench_serve.json"
grep -q '"p99_us"' "$STORE_DIR/bench_serve.json"
./target/release/qar trace-check < "$STORE_DIR/serve.trace" > /dev/null

echo "==> scan-kernel bench smoke (kernel-rule crossover sweep + default + bitmask floors)"
# Quick run of the support-counting scan sweep: exits non-zero when, at
# any sweep point, the kernel the default rule picks is slower than 0.95x
# the fastest kernel, when the default pooled scan misses its 1M rows/s
# floor, or when the bitmask kernel misses its all-distinct speedup
# floor. The JSON goes to a temp path so a local run never clobbers the
# committed BENCH_scan.json baseline. On a floor violation, print the
# bench document so the failing record is visible, not just the exit
# code.
if ! QAR_BENCH_QUICK=1 QAR_BENCH_OUT="$STORE_DIR/bench_scan.json" \
    ./target/release/scan_kernel > "$STORE_DIR/bench_scan.log"; then
    echo "scan_kernel floor violation; failing bench records:" >&2
    cat "$STORE_DIR/bench_scan.log" >&2
    [ -f "$STORE_DIR/bench_scan.json" ] && cat "$STORE_DIR/bench_scan.json" >&2
    exit 1
fi
grep -q '"suite":"scan_kernel"' "$STORE_DIR/bench_scan.json"
grep -q '"min_rule_vs_best"' "$STORE_DIR/bench_scan.json"
grep -q '"dup_default_rows_per_sec_4t"' "$STORE_DIR/bench_scan.json"
grep -q '"distinct_bitmask_speedup_1t"' "$STORE_DIR/bench_scan.json"

echo "==> analytics smoke (mine --analytics -> query --by chi2 -> store-check -> trace-check)"
# Mine the planted dataset with the rule-quality analytics pass, rank the
# catalog by a statistic that only exists in the ANALYTICS section, and
# confirm store-check reports the section with an intact checksum. The
# analytics trace events from both the mine and the `qar analyze`
# backfill must validate against the pinned schema, and the backfill of
# an analytics-less catalog must enable the same queries.
./target/release/qar mine --input "$STORE_DIR/planted.csv" \
    --schema x0:quant,x1:quant,x2:quant,c:cat \
    --minsup 0.1 --minconf 0.5 --maxsup 0.4 --intervals 10 \
    --analytics --store "$STORE_DIR/ana.qarcat" --trace json \
    > /dev/null 2> "$STORE_DIR/ana.trace"
./target/release/qar trace-check < "$STORE_DIR/ana.trace"
./target/release/qar query "$STORE_DIR/ana.qarcat" --top-k 5 --by chi2 > /dev/null
./target/release/qar query "$STORE_DIR/ana.qarcat" --min-lift 1.0 --max-p 0.05 \
    --by lift > /dev/null
./target/release/qar store-check "$STORE_DIR/ana.qarcat" > "$STORE_DIR/ana.inventory"
grep -q "analytics (tag 4):" "$STORE_DIR/ana.inventory"
# Plain catalogs refuse analytics ranking with a pointer at the backfill
# path, and `qar analyze` backfills them in place.
if ./target/release/qar query "$STORE_DIR/cat.qarcat" --by lift > /dev/null 2>&1; then
    echo "query ranked by lift without an ANALYTICS section" >&2
    exit 1
fi
cp "$STORE_DIR/cat.qarcat" "$STORE_DIR/backfill.qarcat"
./target/release/qar analyze "$STORE_DIR/backfill.qarcat" \
    --input "$STORE_DIR/planted.csv" --trace json \
    > /dev/null 2> "$STORE_DIR/analyze.trace"
./target/release/qar trace-check < "$STORE_DIR/analyze.trace"
./target/release/qar query "$STORE_DIR/backfill.qarcat" --top-k 5 --by jmeasure > /dev/null

echo "==> analytics bench smoke (closed-form rules/sec floor)"
# Quick run of the rule-quality analytics bench: the bin exits non-zero
# when the closed-form measures (lift/conviction/chi-square/J-measure +
# BH correction) fall below 50k rules/sec — ~30x headroom under the
# committed BENCH_analytics.json baseline. The JSON goes to a temp path
# so a local run never clobbers the committed baseline.
QAR_BENCH_QUICK=1 ./target/release/qar bench-analytics --floor 50000 \
    --out "$STORE_DIR/bench_analytics.json" > /dev/null
grep -q '"suite":"bench_analytics"' "$STORE_DIR/bench_analytics.json"
grep -q '"closed_form_rules_per_sec"' "$STORE_DIR/bench_analytics.json"
grep -q '"shapley_samples_per_sec"' "$STORE_DIR/bench_analytics.json"

echo "==> distributed smoke (coordinator + 2 worker processes, byte-identical catalogs)"
# Serial, distributed (2 spawned `qar worker` processes), out-of-core
# (small forced chunk size), and the chunked+distributed combination
# must all write byte-identical .qarcat catalogs for the same input
# under --normalize-stats — count distribution merges raw per-partition
# count vectors, so the agreement is exact, not approximate.
MINE_FLAGS="--schema x0:quant,x1:quant,x2:quant,c:cat \
    --minsup 0.1 --minconf 0.5 --maxsup 0.4 --intervals 10 --normalize-stats"
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --store "$STORE_DIR/serial.qarcat" > /dev/null
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --workers 2 --store "$STORE_DIR/dist.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/dist.qarcat"
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --chunk-rows 173 --store "$STORE_DIR/chunked.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/chunked.qarcat"
./target/release/qar mine --input "$STORE_DIR/planted.csv" $MINE_FLAGS \
    --chunk-rows 173 --workers 2 --store "$STORE_DIR/chunked_dist.qarcat" > /dev/null
cmp "$STORE_DIR/serial.qarcat" "$STORE_DIR/chunked_dist.qarcat"

echo "==> update smoke (mine -> counts -> --update vs scratch re-mine, byte-identical)"
# Mine the paper's People table into a catalog (support counts are
# persisted automatically with --store), append a delta of rows whose
# values the base encoders already know, refresh the catalog with a
# delta-only incremental scan, and compare against mining base+delta
# from scratch: the two catalogs must match byte for byte under
# --normalize-stats — merged counts included. The update's pinned trace
# events must validate against the schema.
PEOPLE_FLAGS="--schema Age:quant,Married:cat,NumCars:quant \
    --minsup 0.4 --minconf 0.5 --maxsup 1.0 --no-partition --normalize-stats"
./target/release/qar generate people --output "$STORE_DIR/people.csv"
head -n 1 "$STORE_DIR/people.csv" > "$STORE_DIR/delta.csv"
sed -n '2,3p' "$STORE_DIR/people.csv" >> "$STORE_DIR/delta.csv"
cat "$STORE_DIR/people.csv" > "$STORE_DIR/combined.csv"
sed -n '2,3p' "$STORE_DIR/people.csv" >> "$STORE_DIR/combined.csv"
./target/release/qar mine --input "$STORE_DIR/people.csv" $PEOPLE_FLAGS \
    --store "$STORE_DIR/people_updated.qarcat" > /dev/null
./target/release/qar store-check "$STORE_DIR/people_updated.qarcat" \
    > "$STORE_DIR/people.inventory"
grep -q "counts (tag 5):" "$STORE_DIR/people.inventory"
./target/release/qar mine --input "$STORE_DIR/delta.csv" \
    --update "$STORE_DIR/people_updated.qarcat" --normalize-stats --trace json \
    > /dev/null 2> "$STORE_DIR/update.trace"
./target/release/qar trace-check < "$STORE_DIR/update.trace"
grep -q '"event":"counts_loaded"' "$STORE_DIR/update.trace"
grep -q '"event":"incremental_update"' "$STORE_DIR/update.trace"
./target/release/qar mine --input "$STORE_DIR/combined.csv" $PEOPLE_FLAGS \
    --store "$STORE_DIR/people_scratch.qarcat" > /dev/null
cmp "$STORE_DIR/people_updated.qarcat" "$STORE_DIR/people_scratch.qarcat"
./target/release/qar store-check "$STORE_DIR/people_updated.qarcat" > /dev/null

echo "==> realistic C2 smoke (every kernel and path, 3.4M pass-2 candidates, byte-identical)"
# The credit table at minsup 10% / maxsup 20% gives 3,408,790 pass-2
# candidates. Every scan kernel and the out-of-core path must mine it into
# a counts-bearing catalog within 60 s, and the catalogs must agree byte
# for byte under --normalize-stats.
CREDIT_FLAGS="--schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    --minsup 0.1 --maxsup 0.2 --normalize-stats"
./target/release/qar generate credit --records 50000 --seed 1 --output "$STORE_DIR/credit.csv"
for run in "default:" "direct:--kernel direct" "bitmask:--kernel bitmask" \
    "chunked:--chunk-rows 20000"; do
    timeout 60 ./target/release/qar mine --input "$STORE_DIR/credit.csv" $CREDIT_FLAGS \
        ${run#*:} --store "$STORE_DIR/c2_${run%%:*}.qarcat" > /dev/null
done
for name in direct bitmask chunked; do
    cmp "$STORE_DIR/c2_default.qarcat" "$STORE_DIR/c2_$name.qarcat"
done
# At minsup 30% / maxsup 60% pass 3 holds 375,771 rectangles in 10
# super-candidates: the kernel rule must pick direct there (a
# bitmask pin costs member rectangles x rows), so the default mine
# finishes like the pinned direct one and writes the same catalog.
CREDIT3_FLAGS="--schema employee_category:cat,marital_status:cat,monthly_income:quant,credit_limit:quant,current_balance:quant,ytd_balance:quant,ytd_interest:quant \
    --minsup 0.3 --maxsup 0.6 --interest 1.1 --normalize-stats"
for run in "default:" "direct:--kernel direct"; do
    timeout 60 ./target/release/qar mine --input "$STORE_DIR/credit.csv" $CREDIT3_FLAGS \
        ${run#*:} --store "$STORE_DIR/c3_${run%%:*}.qarcat" > /dev/null
done
cmp "$STORE_DIR/c3_default.qarcat" "$STORE_DIR/c3_direct.qarcat"

echo "==> update bench smoke (delta-update speedup floor)"
# Quick run of the incremental-update bench: exits non-zero when a 1%
# delta update fails to beat re-mining base+delta from scratch by at
# least 5x (the result is also gated on exactness: the update must stay
# on the incremental path and reproduce the scratch mine's counts and
# rules). The JSON goes to a temp path so a local run never clobbers
# the committed BENCH_update.json baseline, which must itself exist and
# respect the same floor.
QAR_BENCH_QUICK=1 ./target/release/qar bench-update --floor 5.0 \
    --out "$STORE_DIR/bench_update.json" > /dev/null
grep -q '"suite":"bench_update"' "$STORE_DIR/bench_update.json"
grep -q '"speedup"' "$STORE_DIR/bench_update.json"
grep -q '"suite":"bench_update"' BENCH_update.json
awk -F'"speedup":' '{split($2, a, ","); if (a[1] + 0 < 5.0) {
    print "committed BENCH_update.json speedup " a[1] " is below the 5x floor" > "/dev/stderr";
    exit 1 } }' BENCH_update.json

echo "==> dist bench smoke (counting speedup floor)"
# Quick run of the count-distribution bench: exits non-zero when the
# 2-partition counting critical path (max partition scan + merge) fails
# to beat serial counting by at least 1.6x. The JSON goes to a temp path
# so a local run never clobbers the committed BENCH_dist.json baseline,
# which must itself exist and respect the same floor.
QAR_BENCH_QUICK=1 ./target/release/qar bench-dist --floor 1.6 \
    --out "$STORE_DIR/bench_dist.json" > /dev/null
grep -q '"suite":"bench_dist"' "$STORE_DIR/bench_dist.json"
grep -q '"critical_path_s"' "$STORE_DIR/bench_dist.json"
grep -q '"suite":"bench_dist"' BENCH_dist.json
awk -F'"speedup":' '{split($2, a, ","); if (a[1] + 0 < 1.6) {
    print "committed BENCH_dist.json speedup " a[1] " is below the 1.6x floor" > "/dev/stderr";
    exit 1 } }' BENCH_dist.json

echo "==> fuzz smoke (200 differential cases, fixed seed)"
# A short deterministic sweep of the differential oracle: serial miner,
# parallel miner, naive reference, apriori bridge, catalog round trip,
# both scan kernels (pinned and by the kernel rule), the rule-quality
# analytics pass (0-ulps closed-form reference + BH monotonicity +
# catalog round trip), count-distribution distributed mining over
# worker threads (byte-identical normalized catalogs), and incremental
# catalog updates (mine(base) + update(delta) vs mine(base+delta), down
# to byte-identical catalogs with merged counts) must agree on every
# generated case. Divergences minimize into tests/fuzz_repros/
# fixtures; a clean run writes nothing.
./target/release/qar fuzz --iters 200 --seed 42

echo "==> clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustfmt --check"
cargo fmt --check

echo "All checks passed."
