#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
# Documents the project crates only; vendored stand-ins are exempt from
# the warnings gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet \
  -p hotspot-geom -p hotspot-layout -p hotspot-svm -p hotspot-topo \
  -p hotspot-core -p hotspot-benchgen -p hotspot-baselines \
  -p hotspot-bench -p hotspot-cli -p hotspot-suite

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> golden pins of the small bm2 model and the paper-scale bm1 scan (release)"
# Ignored in the default run: both are slow in a debug build.
cargo test --release --test golden -- --ignored

echo "==> criterion benches build"
# Nothing else compiles crates/bench/benches/*.rs in release: a library
# change that breaks a bench must fail here.
cargo bench --no-run --offline -p hotspot-bench

echo "==> e2ebench build + tiny self-test"
# The benchmark is its own workspace with path deps on the crates, so a
# library change that breaks its build or its self-test fails here.
cargo test --release --offline --manifest-path e2ebench/Cargo.toml

echo "==> cargo test --doc (project crates)"
# Rustdoc examples on the public entry points are compiled and run.
cargo test --doc -q \
  -p hotspot-geom -p hotspot-layout -p hotspot-svm -p hotspot-topo \
  -p hotspot-core -p hotspot-benchgen -p hotspot-baselines \
  -p hotspot-bench -p hotspot-cli -p hotspot-suite

echo "==> examples (quickstart, stream_scan, multilayer_dp)"
cargo run --release --quiet --example quickstart
cargo run --release --quiet --example stream_scan
cargo run --release --quiet --example multilayer_dp

echo "==> corrupt-GDSII corpus (typed errors, no panics)"
cargo test --release -q -p hotspot-layout --test corrupt_corpus

echo "==> fault-injection smoke (seeded panics: no aborts, stable quarantine)"
# Two scans with the same seeded fault plan must both complete in degraded
# mode (exit 7) and quarantine the identical tile set.
FAULT_DIR=target/fault_smoke
rm -rf "$FAULT_DIR"
mkdir -p "$FAULT_DIR"
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  generate --name array_benchmark1 --scale tiny --out "$FAULT_DIR"
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  train --training "$FAULT_DIR/training.json" --out "$FAULT_DIR/model.json" --threads 2
# `detect` is another name for `scan`; a finer tiling must not change the
# report either.
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  detect --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$FAULT_DIR/report_detect.json" --threads 2
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$FAULT_DIR/report_scan.json" --threads 2 --tile-cores 4 --max-in-flight 2
cmp "$FAULT_DIR/report_detect.json" "$FAULT_DIR/report_scan.json"
for run in 1 2; do
  set +e
  cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
    scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
    --out "$FAULT_DIR/report_$run.json" --threads 2 \
    --max-failed-tiles 10000 --fault-seed 42 --fault-panic-per-mille 1000 \
    > "$FAULT_DIR/out_$run.txt" 2> "$FAULT_DIR/err_$run.txt"
  status=$?
  set -e
  if [ "$status" -ne 7 ]; then
    echo "fault smoke run $run: expected exit 7 (quarantined), got $status"
    cat "$FAULT_DIR/out_$run.txt"
    exit 1
  fi
done
q1=$(grep -c '^  tile ' "$FAULT_DIR/out_1.txt")
q2=$(grep -c '^  tile ' "$FAULT_DIR/out_2.txt")
if [ "$q1" -eq 0 ] || [ "$q1" -ne "$q2" ]; then
  echo "fault smoke: quarantine counts diverged or were empty ($q1 vs $q2)"
  exit 1
fi
echo "fault smoke: both runs quarantined $q1 tile(s), reports completed"

echo "==> deadline smoke (seeded stalls + --tile-timeout: exit 7, stable TimedOut count)"
# Every tile stalls past its soft budget: both runs must complete in
# degraded mode (exit 7) and quarantine the identical timed-out set.
DL_DIR=target/deadline_smoke
rm -rf "$DL_DIR"
mkdir -p "$DL_DIR"
cargo build --release --quiet -p hotspot-cli
BIN=target/release/hotspot
for run in 1 2; do
  set +e
  "$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
    --out "$DL_DIR/report_to_$run.json" --threads 2 --tile-cores 2 \
    --max-failed-tiles 10000 --tile-timeout 50ms \
    --fault-stall-per-mille 1000 --fault-stall-ms 150 \
    > "$DL_DIR/out_to_$run.txt" 2> "$DL_DIR/err_to_$run.txt"
  status=$?
  set -e
  if [ "$status" -ne 7 ]; then
    echo "deadline smoke run $run: expected exit 7 (quarantined), got $status"
    cat "$DL_DIR/out_to_$run.txt"
    exit 1
  fi
  # Timed-out tiles unwind with a stop marker the binary's panic hook
  # keeps quiet: the quarantine list reports them.
  if grep -q 'panicked at' "$DL_DIR/err_to_$run.txt"; then
    echo "deadline smoke run $run: a timed-out tile printed a panic"
    head -5 "$DL_DIR/err_to_$run.txt"
    exit 1
  fi
done
t1=$(grep -c 'soft time budget' "$DL_DIR/out_to_1.txt")
t2=$(grep -c 'soft time budget' "$DL_DIR/out_to_2.txt")
if [ "$t1" -eq 0 ] || [ "$t1" -ne "$t2" ]; then
  echo "deadline smoke: TimedOut counts diverged or were empty ($t1 vs $t2)"
  exit 1
fi
echo "deadline smoke: both runs timed out $t1 tile(s), reports completed"

echo "==> hostile-JSON smoke (deep nesting, truncation, inconsistent models: exit 4, no aborts)"
JSON_DIR=target/json_smoke
rm -rf "$JSON_DIR"
mkdir -p "$JSON_DIR"
head -c 1000000 /dev/zero | tr '\0' '[' > "$JSON_DIR/nested.json"
head -c $(( $(wc -c < "$FAULT_DIR/model.json") / 2 )) "$FAULT_DIR/model.json" \
  > "$JSON_DIR/truncated.json"
# Runs the binary with the given arguments; it must fail with exit 4 (json)
# and a message that names that class.
expect_json_error() {
  set +e
  "$BIN" "$@" > "$JSON_DIR/out.txt" 2> "$JSON_DIR/err.txt"
  status=$?
  set -e
  if [ "$status" -ne 4 ] || ! head -n 1 "$JSON_DIR/err.txt" | grep -q '^json error: '; then
    echo "hostile-JSON smoke ($*): expected exit 4 and 'json error: ', got $status"
    cat "$JSON_DIR/err.txt"
    exit 1
  fi
}
expect_json_error scan --model "$JSON_DIR/nested.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$JSON_DIR/report.json"
expect_json_error scan --model "$JSON_DIR/truncated.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$JSON_DIR/report.json"
expect_json_error train --training "$JSON_DIR/nested.json" --out "$JSON_DIR/model.json"
# Well-formed JSON whose kernels cannot score their vectors: every
# feature_len below the 5 nontopological features, the feedback kernel's
# feature_len off its SVM's dimension, kernel 0's first support vector or
# centroid one value short, or the retired "reference" evaluation engine.
# All are rejected at load (exit 4) before any tile runs, never as a
# worker panic. The model file is one line, so a sed without `g` edits the
# first occurrence only.
sed 's/"feature_len":[0-9]*/"feature_len":3/g' "$FAULT_DIR/model.json" \
  > "$JSON_DIR/short_features.json"
fb_len=$(grep -o '"feature_len":[0-9]*,"extras_seen"' "$FAULT_DIR/model.json" | grep -o '[0-9]*')
sed "s/\"feature_len\":$fb_len,\"extras_seen\"/\"feature_len\":$((fb_len + 6)),\"extras_seen\"/" \
  "$FAULT_DIR/model.json" > "$JSON_DIR/feedback_mismatch.json"
sed 's/"support":\[\[[^],]*,/"support":[[/' "$FAULT_DIR/model.json" \
  > "$JSON_DIR/short_support.json"
sed 's/"cells":\[[^],]*,/"cells":[/' "$FAULT_DIR/model.json" \
  > "$JSON_DIR/short_centroid.json"
# The vendored serde writes variant names as declared ("Compiled"), so
# "Reference" is the spelling the parent release loaded; "reference" is
# the snake_case one.
for mode in reference Reference; do
  sed "s/\"eval_mode\":\"[A-Za-z_]*\"/\"eval_mode\":\"$mode\"/" "$FAULT_DIR/model.json" \
    > "$JSON_DIR/eval_mode_$mode.json"
done
# A clip shape `ClipShape::new` rejects, which deserialisation lets
# through: core and clip sides swapped, or the clip side one nanometre
# longer (an odd ambit). The model check names it before any tile runs.
sed 's/"clip_shape":{"core_side":\([0-9]*\),"clip_side":\([0-9]*\)}/"clip_shape":{"core_side":\2,"clip_side":\1}/' \
  "$FAULT_DIR/model.json" > "$JSON_DIR/inverted_clip_shape.json"
clip_side=$(grep -o '"clip_shape":{"core_side":[0-9]*,"clip_side":[0-9]*' "$FAULT_DIR/model.json" \
  | head -n 1 | grep -o '[0-9]*$')
sed "s/\"clip_side\":$clip_side}/\"clip_side\":$((clip_side + 1))}/" \
  "$FAULT_DIR/model.json" > "$JSON_DIR/odd_ambit.json"
for crafted in short_features feedback_mismatch short_support short_centroid \
  eval_mode_reference eval_mode_Reference inverted_clip_shape odd_ambit; do
  if cmp -s "$FAULT_DIR/model.json" "$JSON_DIR/$crafted.json"; then
    echo "hostile-JSON smoke ($crafted): the model has no field to corrupt"
    exit 1
  fi
  expect_json_error scan --model "$JSON_DIR/$crafted.json" --layout "$FAULT_DIR/layout.gds" \
    --out "$JSON_DIR/report.json" --threads 2
  if grep -q panicked "$JSON_DIR/out.txt" "$JSON_DIR/err.txt"; then
    echo "hostile-JSON smoke ($crafted): a worker panicked"
    cat "$JSON_DIR/err.txt"
    exit 1
  fi
done
# A training pattern whose core has zero width cannot be classified: the
# training set is rejected (exit 4) before any stage runs, never by a panic.
sed 's/"core":{"min":{"x":\([-0-9]*\),\("y":[-0-9]*}\),"max":{"x":[-0-9]*,/"core":{"min":{"x":\1,\2,"max":{"x":\1,/' \
  "$FAULT_DIR/training.json" > "$JSON_DIR/empty_core.json"
if cmp -s "$FAULT_DIR/training.json" "$JSON_DIR/empty_core.json"; then
  echo "hostile-JSON smoke (empty_core): the training set has no core to flatten"
  exit 1
fi
expect_json_error train --training "$JSON_DIR/empty_core.json" --out "$JSON_DIR/model.json"
if grep -q panicked "$JSON_DIR/err.txt"; then
  echo "hostile-JSON smoke (empty_core): training panicked"
  cat "$JSON_DIR/err.txt"
  exit 1
fi
echo "hostile-JSON smoke: nested, truncated, inconsistent, bad-clip-shape and retired-engine models and an empty-core training set exit 4"

echo "==> unknown-flag smoke (a retired or misspelt flag: exit 2)"
# `--eval-mode` was retired; an unknown flag must be a usage error, not
# silently ignored.
set +e
"$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$JSON_DIR/report.json" --eval-mode compiled > /dev/null 2> "$JSON_DIR/err.txt"
status=$?
set -e
if [ "$status" -ne 2 ] || ! grep -q 'unknown flag --eval-mode' "$JSON_DIR/err.txt"; then
  echo "unknown-flag smoke: expected exit 2 naming --eval-mode, got $status"
  cat "$JSON_DIR/err.txt"
  exit 1
fi
echo "unknown-flag smoke: --eval-mode rejected with exit 2"

echo "==> closed-stdout smoke (a scan piped into \`true\`: its own exit code, no panic)"
# The reader exits before the summary is written, so the write fails with
# a broken pipe. The report file is already written: a clean scan still
# exits 0 and a degraded one 7, and neither prints a panic.
PIPE_DIR=target/pipe_smoke
rm -rf "$PIPE_DIR"
mkdir -p "$PIPE_DIR"
for case in clean:0 degraded:7; do
  name=${case%%:*}
  want=${case##*:}
  extra=()
  if [ "$name" = degraded ]; then
    extra=(--max-failed-tiles 10000 --fault-seed 42 --fault-panic-per-mille 1000)
  fi
  set +e
  "$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
    --out "$PIPE_DIR/report_$name.json" --threads 2 "${extra[@]}" \
    2> "$PIPE_DIR/err_$name.txt" | true
  status=${PIPESTATUS[0]}
  set -e
  if [ "$status" -ne "$want" ]; then
    echo "closed-stdout smoke ($name): expected exit $want, got $status"
    cat "$PIPE_DIR/err_$name.txt"
    exit 1
  fi
done
# Injected fault panics print by design; the clean scan prints nothing.
if grep -q 'panicked at' "$PIPE_DIR/err_clean.txt"; then
  echo "closed-stdout smoke: the clean scan panicked"
  head -5 "$PIPE_DIR/err_clean.txt"
  exit 1
fi
cmp "$PIPE_DIR/report_clean.json" "$FAULT_DIR/report_detect.json"
echo "closed-stdout smoke: clean scan exited 0, degraded scan 7, report written"

echo "==> hostile-extent smoke (GDSII spanning the i32 range: exit 6 within 1 s)"
# One boundary over the whole coordinate range, and two 1 um squares at
# its opposite corners: the scan must reject the extent before it builds
# an index or walks the tile grid.
EXT_DIR=target/extent_smoke
rm -rf "$EXT_DIR"
mkdir -p "$EXT_DIR"
python3 - "$EXT_DIR" <<'EOF'
import struct, sys
def rec(kind, payload=b""):
    return struct.pack(">HH", len(payload) + 4, kind) + payload
def gds(squares):
    out = rec(0x0002, struct.pack(">h", 600)) + rec(0x0102, bytes(24))
    out += rec(0x0206, b"HOSTILE\0") + rec(0x0305, bytes(16))
    out += rec(0x0502, bytes(24)) + rec(0x0606, b"TOP\0")
    for x0, y0, x1, y1 in squares:
        xy = [(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)]
        out += rec(0x0800) + rec(0x0D02, struct.pack(">h", 1))
        out += rec(0x0E02, struct.pack(">h", 0))
        out += rec(0x1003, b"".join(struct.pack(">ii", x, y) for x, y in xy))
        out += rec(0x1100)
    return out + rec(0x0700) + rec(0x0400)
lo, hi = -2**31, 2**31 - 1
open(sys.argv[1] + "/full_range.gds", "wb").write(gds([(lo, lo, hi, hi)]))
open(sys.argv[1] + "/far_corners.gds", "wb").write(
    gds([(lo, lo, lo + 1000, lo + 1000), (hi - 1000, hi - 1000, hi, hi)]))
EOF
for layout in full_range far_corners; do
  set +e
  timeout 1 "$BIN" scan --model "$FAULT_DIR/model.json" --layout "$EXT_DIR/$layout.gds" \
    --out "$EXT_DIR/report.json" > /dev/null 2> "$EXT_DIR/err.txt"
  status=$?
  set -e
  if [ "$status" -ne 6 ] || ! grep -q 'scan tiles, above the limit' "$EXT_DIR/err.txt"; then
    echo "hostile-extent smoke ($layout): expected exit 6 (pipeline) within 1 s, got $status"
    cat "$EXT_DIR/err.txt"
    exit 1
  fi
done
echo "hostile-extent smoke: both layouts rejected with exit 6"

echo "==> SIGINT smoke (live cached scan interrupted: exit 8, re-run cmp-identical under either model)"
# Uninterrupted cache-free reference report for the byte-equality check.
"$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$DL_DIR/report_ref.json" --threads 2 --tile-cores 2 > "$DL_DIR/out_ref.txt"
# A live cached scan slowed by stall injection so the interrupt lands
# mid-flight. The cache file appears with the first batch's appends.
"$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$DL_DIR/report_int.json" --threads 2 --tile-cores 2 \
  --cache "$DL_DIR/int.cache" \
  --fault-stall-per-mille 1000 --fault-stall-ms 800 \
  > "$DL_DIR/out_int.txt" 2> "$DL_DIR/err_int.txt" &
scan_pid=$!
for _ in $(seq 1 100); do
  [ -f "$DL_DIR/int.cache" ] && break
  sleep 0.1
done
sleep 0.3
kill -INT "$scan_pid"
set +e
wait "$scan_pid"
status=$?
set -e
if [ "$status" -ne 8 ]; then
  echo "SIGINT smoke: expected exit 8 (aborted-but-resumable), got $status"
  cat "$DL_DIR/out_int.txt" "$DL_DIR/err_int.txt"
  exit 1
fi
grep -q 'scan aborted (interrupted)' "$DL_DIR/out_int.txt"
if grep -q 'panicked at' "$DL_DIR/err_int.txt"; then
  echo "SIGINT smoke: a cancelled tile printed a panic"
  head -5 "$DL_DIR/err_int.txt"
  exit 1
fi
cp "$DL_DIR/int.cache" "$DL_DIR/int_bm2.cache"
# The interrupted cache is valid: a re-run with it (without the stalls)
# finishes the scan and the report is byte-identical to the uninterrupted
# one.
"$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$DL_DIR/report_rerun.json" --threads 2 --tile-cores 2 \
  --cache "$DL_DIR/int.cache" > "$DL_DIR/out_rerun.txt"
cmp "$DL_DIR/report_ref.json" "$DL_DIR/report_rerun.json"
# The same interrupted cache under a model trained on another benchmark:
# the header no longer matches, so nothing is replayed and the report is
# that model's cache-free report.
"$BIN" generate --name array_benchmark2 --scale tiny --out "$DL_DIR/bm2" > /dev/null
"$BIN" train --training "$DL_DIR/bm2/training.json" --out "$DL_DIR/bm2/model.json" \
  --threads 2 > /dev/null
"$BIN" scan --model "$DL_DIR/bm2/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$DL_DIR/report_bm2_ref.json" --threads 2 --tile-cores 2 > /dev/null
"$BIN" scan --model "$DL_DIR/bm2/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$DL_DIR/report_bm2_rerun.json" --threads 2 --tile-cores 2 \
  --cache "$DL_DIR/int_bm2.cache" > /dev/null
cmp "$DL_DIR/report_bm2_ref.json" "$DL_DIR/report_bm2_rerun.json"
echo "SIGINT smoke: interrupted at exit 8, re-runs byte-identical under both models"

echo "==> --deadline smoke (stalled cached scan outlives its deadline: exit 8, re-run cmp-identical)"
# Every tile stalls 150 ms, so the scan cannot finish inside 500 ms: the
# binary must stop at the deadline, keep the finished tiles cached, and
# a re-run with the same cache must match the uninterrupted report.
set +e
"$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$DL_DIR/report_dl.json" --threads 2 --tile-cores 2 \
  --cache "$DL_DIR/dl.cache" --deadline 500ms \
  --fault-stall-per-mille 1000 --fault-stall-ms 150 \
  > "$DL_DIR/out_dl.txt" 2> "$DL_DIR/err_dl.txt"
status=$?
set -e
if [ "$status" -ne 8 ]; then
  echo "--deadline smoke: expected exit 8 (aborted-but-resumable), got $status"
  cat "$DL_DIR/out_dl.txt" "$DL_DIR/err_dl.txt"
  exit 1
fi
grep -q 'scan aborted (deadline_exceeded)' "$DL_DIR/out_dl.txt"
if grep -q 'panicked at' "$DL_DIR/err_dl.txt"; then
  echo "--deadline smoke: a cancelled tile printed a panic"
  head -5 "$DL_DIR/err_dl.txt"
  exit 1
fi
"$BIN" scan --model "$FAULT_DIR/model.json" --layout "$FAULT_DIR/layout.gds" \
  --out "$DL_DIR/report_dl_rerun.json" --threads 2 --tile-cores 2 \
  --cache "$DL_DIR/dl.cache" > "$DL_DIR/out_dl_rerun.txt"
cmp "$DL_DIR/report_ref.json" "$DL_DIR/report_dl_rerun.json"
echo "--deadline smoke: $(grep -o 'after [0-9]* of [0-9]* tiles' "$DL_DIR/out_dl.txt"), re-run byte-identical"

echo "==> observability smoke (NDJSON events + live /metrics + digest equality)"
OBS_DIR=target/obs_smoke
rm -rf "$OBS_DIR"
mkdir -p "$OBS_DIR"
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  generate --name array_benchmark1 --scale tiny --out "$OBS_DIR"
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  train --training "$OBS_DIR/training.json" --out "$OBS_DIR/model.json" --threads 2
# Sink-less baseline.
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  scan --model "$OBS_DIR/model.json" --layout "$OBS_DIR/layout.gds" \
  --out "$OBS_DIR/report_bare.json" --threads 2 --json \
  > "$OBS_DIR/scan_bare.json"
# Observed run: NDJSON event log + metrics endpoint, lingering long enough
# for the curl poll below to scrape the final totals.
METRICS_ADDR=127.0.0.1:9184
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  scan --model "$OBS_DIR/model.json" --layout "$OBS_DIR/layout.gds" \
  --out "$OBS_DIR/report_obs.json" --threads 2 --json \
  --events "$OBS_DIR/events.ndjson" --metrics-addr "$METRICS_ADDR" \
  --obs-interval-ms 50 --metrics-linger-ms 4000 \
  > "$OBS_DIR/scan_obs.json" &
SCAN_PID=$!
# Poll the live endpoint: the listener is up for the scan plus the linger.
SCRAPED=""
for _ in $(seq 1 80); do
  if curl -sf "http://$METRICS_ADDR/metrics" > "$OBS_DIR/metrics.txt" 2>/dev/null; then
    SCRAPED=yes
    break
  fi
  sleep 0.1
done
wait "$SCAN_PID"
if [ -z "$SCRAPED" ]; then
  echo "observability smoke: /metrics was never reachable"
  exit 1
fi
# The exposition carries the global and per-stage counter families.
grep -q '^hotspot_tiles_done_total ' "$OBS_DIR/metrics.txt"
grep -q '^hotspot_clips_extracted_total ' "$OBS_DIR/metrics.txt"
grep -q '^hotspot_stage_tasks_total{stage="kernel_evaluation"} ' "$OBS_DIR/metrics.txt"
grep -q '^hotspot_stage_admissions_total{stage="kernel_evaluation"} ' "$OBS_DIR/metrics.txt"
# The NDJSON log parses line by line through the schema-versioned reader.
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  events --file "$OBS_DIR/events.ndjson" | grep -q '1 scan(s)'
python3 - "$OBS_DIR/events.ndjson" "$OBS_DIR/scan_obs.json" <<'EOF'
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, "empty event log"
records = []
for i, line in enumerate(lines, 1):
    record = json.loads(line)
    assert record["v"] == 1, f"line {i}: unexpected schema {record['v']}"
    assert set(record) == {"v", "seq", "event"}, f"line {i}: bad envelope"
    records.append(record)
print(f"events: {len(lines)} valid NDJSON line(s)")
# The final snapshot (taken after the scan returned, unlike the live scrape
# above) carries the same kernel_evaluation admissions as the report's
# telemetry row, and a constant 0 does not pass.
snapshots = [r["event"]["Snapshot"]["counters"] for r in records if "Snapshot" in r["event"]]
assert snapshots, "no Snapshot event in the log"
hub = {s["stage"]: s for s in snapshots[-1]["stages"]}["kernel_evaluation"]
rows = json.load(open(sys.argv[2]))["telemetry"]["stages"]
row = {s["stage"]: s for s in rows}["kernel_evaluation"]
assert hub["admissions"] > 0, f"final snapshot admissions {hub['admissions']}"
assert hub["admissions"] == row["admissions"], \
    f"final snapshot admissions {hub['admissions']} != telemetry {row['admissions']}"
print(f"events: final snapshot admits {hub['admissions']} clip-kernel pair(s), as the telemetry")
EOF
# The observed report is bit-identical to the sink-less one, and the two
# scans agree on every deterministic report field.
cmp "$OBS_DIR/report_bare.json" "$OBS_DIR/report_obs.json"
python3 - "$OBS_DIR/scan_bare.json" "$OBS_DIR/scan_obs.json" <<'EOF'
import json, sys
DIGEST = ("reported", "tiles_total", "tiles_scanned", "tiles_prefiltered",
          "clips_extracted", "clips_flagged", "feedback_reclaimed",
          "eval_batches", "failed_tiles")
bare, obs = (json.load(open(p)) for p in sys.argv[1:3])
for key in DIGEST:
    assert bare[key] == obs[key], f"digest field {key} diverged"
print("digest: observed scan identical to sink-less scan")
EOF
echo "observability smoke OK"

echo "==> tile-cache smoke (cold → warm → corrupt: identical reports, per-entry rejection)"
CACHE_DIR=target/cache_smoke
rm -rf "$CACHE_DIR"
mkdir -p "$CACHE_DIR"
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  generate --name array_benchmark1 --scale tiny --out "$CACHE_DIR"
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  train --training "$CACHE_DIR/training.json" --out "$CACHE_DIR/model.json" --threads 2
# --tile-cores 2 splits even the tiny layout into several tiles so the
# per-entry corruption check below has entries to damage.
for pass in cold warm; do
  cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
    scan --model "$CACHE_DIR/model.json" --layout "$CACHE_DIR/layout.gds" \
    --out "$CACHE_DIR/report_$pass.json" --threads 2 --tile-cores 2 \
    --cache "$CACHE_DIR/tiles.cache" --json > "$CACHE_DIR/scan_$pass.json"
done
# The warm report is byte-identical to the cold one.
cmp "$CACHE_DIR/report_cold.json" "$CACHE_DIR/report_warm.json"
python3 - "$CACHE_DIR/scan_cold.json" "$CACHE_DIR/scan_warm.json" <<'EOF'
import json, sys
cold, warm = (json.load(open(p)) for p in sys.argv[1:3])
assert cold["cache_hits"] == 0, f"cold scan hit a fresh cache: {cold['cache_hits']}"
assert cold["cache_misses"] > 0, "cold scan recorded no misses"
assert warm["cache_misses"] == 0, f"warm scan missed: {warm['cache_misses']}"
assert warm["cache_hits"] == cold["cache_misses"], "warm hits != cold misses"
print(f"cache: {cold['cache_misses']} cold miss(es) -> {warm['cache_hits']} warm hit(s)")
EOF
# Flip one bit inside an entry line: the checksum rejects exactly that
# entry, the scan recomputes it, and the report stays byte-identical.
python3 - "$CACHE_DIR/tiles.cache" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
starts = [0] + [i + 1 for i, b in enumerate(data) if b == 0x0A]
assert len(starts) > 3, "expected header + several cache entries"
i = starts[2] + 24
while data[i] == 0x0A or data[i] ^ 1 == 0x0A:
    i += 1
data[i] ^= 1
open(path, "wb").write(data)
print(f"flipped bit at byte {i}")
EOF
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  scan --model "$CACHE_DIR/model.json" --layout "$CACHE_DIR/layout.gds" \
  --out "$CACHE_DIR/report_damaged.json" --threads 2 --tile-cores 2 \
  --cache "$CACHE_DIR/tiles.cache" --json > "$CACHE_DIR/scan_damaged.json"
cmp "$CACHE_DIR/report_cold.json" "$CACHE_DIR/report_damaged.json"
python3 - "$CACHE_DIR/scan_damaged.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
assert t["cache_misses"] == 1, f"expected exactly 1 recompute, got {t['cache_misses']}"
assert t["cache_hits"] > 0, "undamaged entries must still serve"
print(f"corruption: {t['cache_misses']} entry rejected, {t['cache_hits']} still served")
EOF
# Audit mode re-validates every hit against a recompute.
cargo run --release --quiet -p hotspot-cli --bin hotspot -- \
  scan --model "$CACHE_DIR/model.json" --layout "$CACHE_DIR/layout.gds" \
  --out "$CACHE_DIR/report_verify.json" --threads 2 --tile-cores 2 \
  --cache "$CACHE_DIR/tiles.cache" --cache-verify > "$CACHE_DIR/out_verify.txt"
cmp "$CACHE_DIR/report_cold.json" "$CACHE_DIR/report_verify.json"
echo "tile-cache smoke OK"

echo "==> e2ebench gate (every workload at tiny scale: correct, no failed operation, peak RSS <= 32 MiB)"
# The end-to-end benchmark is the repository's performance harness; this
# runs it through its own remapped, aligned build, with the minimum of
# measured operations per workload, and checks the result line it prints
# last. Tiny runs peak near 10-11 MiB; the 32 MiB cap catches a leak or a
# table that grows with the input, not allocator noise.
E2E_DIR=target/e2e_smoke
rm -rf "$E2E_DIR"
mkdir -p "$E2E_DIR"
for workload in scan_cold rescan_edit train; do
  bash e2ebench/bench.sh --workload "$workload" --scale tiny --seconds 0 --trace 0 \
    > "$E2E_DIR/$workload.txt"
  python3 - "$workload" "$E2E_DIR/$workload.txt" <<'EOF'
import json, sys
workload, path = sys.argv[1:3]
result = json.loads(open(path).read().splitlines()[-1])
assert result["correct"] is True, f"{workload}: result not correct: {result}"
assert result["failed"] == 0, f"{workload}: {result['failed']} failed operation(s)"
rss = result["metrics"].get("peak_rss_mb")
assert rss is not None, f"{workload}: no peak_rss_mb reported: {result}"
assert rss["value"] <= 32.0, f"{workload}: peak RSS {rss['value']} MiB above 32 MiB"
print(f"e2ebench {workload}: correct, {result['attempted']} operation(s), 0 failed, "
      f"peak RSS {rss['value']:.1f} MiB")
EOF
done

echo "CI OK"
