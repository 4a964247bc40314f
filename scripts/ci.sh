#!/usr/bin/env bash
# The full CI gate: formatting, lints, build, every test, and the paper's
# correctness experiment. Run from anywhere inside the repository.
#
#   --bench-check   additionally re-run the serving benchmark and the full
#                   load-harness sweep, failing on regressions against the
#                   committed BENCH_serve.json / BENCH_build.json /
#                   BENCH_scale.json baselines
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_CHECK=0
for arg in "$@"; do
  case "$arg" in
    --bench-check) BENCH_CHECK=1 ;;
    *) echo "unknown argument: $arg (supported: --bench-check)"; exit 2 ;;
  esac
done

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: build + tests"
cargo build --release
cargo test -q --workspace

echo "== exp verify (invariants + cross-engine agreement, eco-sim & friends)"
cargo run --release -q -p spine-bench --bin exp -- verify

echo "== exp faults --quick (crashpoint sweep + retry layer vs oracle)"
cargo run --release -q -p spine-bench --bin exp -- faults --quick

echo "== fault-tolerance integration tests"
cargo test -q --test fault_tolerance
cargo test -q -p pagestore --test faults

echo "== segment store: manifest codec, lifecycle, differential oracle, engine stress, the crash example end to end"
cargo test -q -p spine --lib manifest
cargo test -q -p spine --lib segments
cargo test -q --test segments
cargo test -q --test differential segmented_store
cargo test -q -p pagestore --lib faulty_tests::a_shared_gate_spends_one_budget_across_devices
cargo run --release -q --example crash_recovery >/dev/null

echo "== flight recorder: journal codec, timeline ring, postmortem dumps"
cargo test -q -p spine --lib journal
cargo test -q -p spine --lib observe
cargo test -q -p strindex --lib telemetry
cargo test -q -p spine-bench --lib flight
cargo test -q -p spine-bench --lib http
# Windows and SLO burn read from the latency histogram and the unanswered
# counter; expired and panicked queries count; a lost prefix pin fails the
# pages-per-query gate.
cargo test -q -p strindex --lib -- windows_count_errors_and_quantiles \
  window_rates_divide_by_covered_time traffic_older_than_the_span_drops_out \
  burn_is_the_bad_fraction_over_the_budget unhealthy_only_when_both_windows_burn \
  window_and_slo_gauges_read_the_sources
cargo test -q -p spine --lib -- engine::tests::windows_and_slo_read_the_engine_sources \
  engine::tests::expired_and_panicked_queries_count_as_unanswered
cargo test -q -p spine-bench --lib snapshot::tests::pages_gate_refuses_a_lost_prefix_pin

echo "== backbone-prefix pins: pool pinning and scan hints, pins survive scans, heatmaps conserve visits, pinning changes no answer"
cargo test -q -p pagestore --lib pool
cargo test -q -p pagestore --test pinning
cargo test -q -p spine --lib trace
cargo test -q -p spine --lib pinned_pages_survive_backbone_scans
cargo test -q --test explain
cargo test -q --test differential hot_tier
cargo test -q --test segments segments_pin_hot

echo "== sealed layout (format v3): codec round-trips, sealed engine, packed-vs-scalar, golden bytes (2-bit DNA included), records vs source nodes, one self-describing file (reopen from it alone, overflow pages, untrusted page 0, earlier versions rejected), one orphan per torn seal"
cargo test -q -p pagestore varint
cargo test -q -p pagestore slotted
cargo test -q -p spine -- disk:: sealed::
cargo test -q --test layout_v2
cargo test -q --test differential packed_scan
cargo test -q --test layout_v2 sealed_pages_match_golden_digests
cargo test -q -p spine --lib sealed_structure_is_node_identical_to_reference
cargo test -q -p spine --lib -- sealed::tests::oversized_record_takes_the_overflow_path \
  sealed::reopen_tests::reopen_rejects_garbage_and_truncated_headers
cargo test -q --test layout_v2 v1_artifact_reports_rebuild_required_then_rebuild_recovers
cargo test -q --test segments seal_after_recovery_never_reuses_an_orphan_id

echo "== the empty pattern: one answer (every offset) on every index surface"
cargo test -q --test differential empty_pattern_occurs_at_every_offset_on_every_surface

echo "== the memtable seals its own index: the file build_sealed writes, retired documents with their tombstone, one offset-to-document map"
cargo test -q --test segments a_memtable_seals_to_the_file_build_sealed_writes
cargo test -q --test segments retired_memtable_documents_seal_with_their_tombstone
cargo test -q -p spine --lib -- generalized::tests::localize_ends_with_the_last_document \
  generalized::tests::documents_read_back_from_the_backbone \
  segments::tests::segment_localize_ends_with_the_last_document

echo "== one label store per in-memory layout: 48-byte nodes, no word-packed shadow (only the sealed layout packs), label widths 3/5/7/8 bits"
cargo test -q -p spine --lib -- node::tests::node_is_48_bytes \
  search::tests::in_memory_layouts_compare_labels_scalar
cargo test -q -p strindex --lib alphabet::tests::pack_bits_covers_every_ordinary_symbol

echo "== one type per disk layout: SealedSpine takes no push, pool_stats() counts pages under pressure, one prefix view, one alphabet tag codec, segments refuse a foreign alphabet"
cargo test -q -p spine --doc sealed::SealedSpine
cargo test -q -p spine --lib -- disk::tests::telemetry_accounts_pages_and_pool_state \
  sealed::tests::sealed_telemetry_accounts_pages prefix::tests::fragment_is_structurally_a_fresh_build \
  prefix::view_tests::disk_prefix_answers_prefix_queries
cargo test -q -p strindex --lib alphabet::tests::tags_round_trip_and_reject_unknown_bytes
cargo test -q --test parallel prefix_views_structurally_identical_under_concurrent_readers
cargo test -q --test segments open_refuses_a_segment_sealed_under_another_alphabet

echo "== exp tables head each row with its own columns; ServeAdapter answers like the spine path"
cargo test -q -p spine-bench --lib -- report::tests::render_table_heads_each_row_with_its_own_columns \
  load::tests::serve_adapter_agrees_with_spine

echo "== construction: one APPEND (golden digests, event-sequence cross-engine check, fallible disk prefix views and maximal matches)"
cargo test -q --test build_observer construction_matches_golden_digests
cargo test -q --test build_observer reconcile
cargo test -q -p spine --lib build::
cargo test -q --test fault_tolerance disk_prefix_views_report_device_faults
cargo test -q --test fault_tolerance disk_maximal_matches_report_device_faults
cargo test -q -p spine --lib label_ranges_read_back_the_text_across_label_pages

echo "== link-tree enumeration: walk vs §4 scan vs oracle, child-list invariants, compact fan-out"
cargo test -q -p spine --lib occurrences
cargo test -q -p spine --lib verify
cargo test -q -p spine --lib node
cargo test -q --test differential walk
cargo test -q --test differential child_lists
cargo test -q --test cross_engine compact_layout_holds

echo "== sealed preorder index: layout properties, seal vs reopen, walk vs §4 scan vs oracle, orphan ids"
cargo test -q -p spine --lib preorder
cargo test -q --test differential sealed_preorder
cargo test -q --test segments seal_after_recovery
cargo test -q --test segments resident_bytes

echo "== serving: one pattern at a time (per-pattern faults, segment errors kept, sharded spine, the example end to end), the hand-off (wakes reach parked threads, idle engines park, no spinning without a spare CPU), the sampler's first tick"
cargo test -q --test fault_tolerance storage_fault_fails_only_its_own_pattern
cargo test -q --test segments try_find_all_keeps_the_component_error
cargo test -q -p spine --lib engine::tests::sharded
cargo run --release -q --example concurrent_server >/dev/null
cargo test -q -p spine --lib -- engine::tests::a_submit_wakes_a_parked_worker \
  engine::tests::a_publish_wakes_a_parked_drainer \
  engine::tests::a_pop_wakes_a_submitter_parked_on_a_full_queue \
  engine::tests::an_idle_engine_parks_every_worker \
  engine::tests::engines_with_a_worker_per_cpu_never_spin \
  engine::tests::closed_loop_hand_offs_answer_every_query
cargo test -q -p strindex --lib telemetry::tests::a_sampler_stopped_at_once_still_ticks_once

echo "== observers: one zero-cost idiom for trace and build events; a committed merge survives a failed input deletion"
cargo test -q -p spine --lib observe::tests::one_observer_idiom_serves_trace_and_build_events
cargo test -q --test segments merge_survives_a_failed_input_deletion

echo "== perfbench: self-tests, then a 2 s smoke of both workloads (answers oracle-checked; a mismatch exits 1)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml
# Traced windows are a fixed number of operations, so 2 s suffices; an
# untraced logs-churn run needs about 8 s for 100 writes.
cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
  --workload all --seed 1 --seconds 2 --trace 1 >/dev/null

echo "== exp scale --quick --check (load harness: curve coverage vs committed BENCH_scale.json)"
tmp_scale=$(mktemp)
cargo run --release -q -p spine-bench --bin exp -- scale --quick \
  --out "$tmp_scale" --check BENCH_scale.json 2>&1 | tail -2
rm -f "$tmp_scale"

echo "== load-harness tests (determinism properties + coordinated-omission stall probe)"
cargo test -q -p spine-bench --lib load
cargo test -q -p spine-bench --test load
cargo test -q -p spine-bench --lib rng
cargo test -q -p spine-bench --lib snapshot

echo "== exp serve --metrics --quick (ledger invariant + stage histograms)"
metrics_json=$(cargo run --release -q -p spine-bench --bin exp -- serve --metrics --quick)
echo "$metrics_json" | grep -q '"ledger_consistent":true' \
  || { echo "metrics smoke: ledger inconsistent"; exit 1; }
echo "$metrics_json" | grep -q '"stages_bounded":true' \
  || { echo "metrics smoke: stage timings exceed workers × wall"; exit 1; }
echo "$metrics_json" | grep -q '"stage.index_scan":{"count":[1-9]' \
  || { echo "metrics smoke: empty index-scan histogram"; exit 1; }

echo "== exp explain --quick (Figure 3 trace vs hand-derived path + oracle replay)"
cargo run --release -q -p spine-bench --bin exp -- explain --quick >/dev/null

echo "== exp serve --metrics --prom (Prometheus exposition self-check)"
prom_text=$(cargo run --release -q -p spine-bench --bin exp -- serve --metrics --quick --prom)
echo "$prom_text" | grep -q '^spine_engine_query_latency_count ' \
  || { echo "prom smoke: missing engine.query_latency samples"; exit 1; }

echo "== exp serve --http (monitor endpoint smoke: /metrics /health /explain /quit)"
http_log=$(mktemp)
cargo run --release -q -p spine-bench --bin exp -- serve --http 0 --quick \
  >"$http_log" 2>/dev/null &
http_pid=$!
addr=""
for _ in $(seq 1 120); do
  addr=$(grep -m1 -o '127\.0\.0\.1:[0-9]*' "$http_log" || true)
  [ -n "$addr" ] && break
  sleep 0.5
done
[ -n "$addr" ] || { echo "http smoke: server never printed its address"; kill "$http_pid" 2>/dev/null; exit 1; }
# The in-tree std-TcpStream client (exp http-get) keeps CI curl-free;
# --prom re-validates the body as Prometheus text exposition.
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" --prom 2>/dev/null \
  | grep -q '^spine_engine_window_count ' \
  || { echo "http smoke: /metrics misses the sliding-window gauges"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" 2>/dev/null \
  | grep -q '^spine_build_insertions{engine="memory"} ' \
  || { echo "http smoke: /metrics misses the build gauges"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" 2>/dev/null \
  | grep -q '"slo_healthy":true' \
  || { echo "http smoke: /health not healthy on a clean run"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" 2>/dev/null \
  | grep -q '"segments_clean":true' \
  || { echo "http smoke: clean recovery should report segments_clean"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/explain?q=ACA" 2>/dev/null \
  | grep -q '"ends":\[' \
  || { echo "http smoke: /explain returned no trace"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" 2>/dev/null \
  | grep -q '^spine_segments_pages{segment="0"} ' \
  || { echo "http smoke: /metrics misses the per-segment page gauges"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" 2>/dev/null \
  | grep -q '^spine_segments_resident_bytes [1-9]' \
  || { echo "http smoke: /metrics misses the sealed segments' resident preorder bytes"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/timeline?metric=segments.epoch" 2>/dev/null \
  | grep -q '"samples":\[{' \
  || { echo "http smoke: /timeline returned no samples"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/journal" 2>/dev/null \
  | grep -q '"kind":"recover"' \
  || { echo "http smoke: /journal misses the recovery event"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/quit" >/dev/null 2>&1
wait "$http_pid" || { echo "http smoke: server exited non-zero"; exit 1; }
grep -q "shut down cleanly" "$http_log" \
  || { echo "http smoke: server did not shut down cleanly"; exit 1; }
rm -f "$http_log"

echo "== exp serve --http --orphan (uncommitted orphan segment degrades /health to 503)"
orphan_log=$(mktemp)
cargo run --release -q -p spine-bench --bin exp -- serve --http 0 --quick --orphan \
  >"$orphan_log" 2>/dev/null &
orphan_pid=$!
addr=""
for _ in $(seq 1 120); do
  addr=$(grep -m1 -o '127\.0\.0\.1:[0-9]*' "$orphan_log" || true)
  [ -n "$addr" ] && break
  sleep 0.5
done
[ -n "$addr" ] || { echo "orphan smoke: server never printed its address"; kill "$orphan_pid" 2>/dev/null; exit 1; }
# http-get exits 1 on HTTP >= 400 — exactly what a degraded /health must do.
if cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" >/dev/null 2>&1; then
  echo "orphan smoke: /health should be 503 with an orphan segment"; exit 1
fi
orphan_body=$(cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" 2>/dev/null || true)
echo "$orphan_body" | grep -q '"segments_clean":false' \
  || { echo "orphan smoke: /health body should name the orphan"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/metrics" 2>/dev/null \
  | grep -q '^spine_segments_orphans 1' \
  || { echo "orphan smoke: /metrics should gauge the orphan"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/quit" >/dev/null 2>&1
wait "$orphan_pid" || { echo "orphan smoke: server exited non-zero"; exit 1; }
grep -q "OK: postmortem .* validates" "$orphan_log" \
  || { echo "orphan smoke: forced 503 should have captured a postmortem dump"; exit 1; }
rm -f "$orphan_log"

echo "== exp serve --http --flaky (flight recorder: forced 503 captures a postmortem dump)"
flaky_log=$(mktemp)
cargo run --release -q -p spine-bench --bin exp -- serve --http 0 --quick --flaky \
  >"$flaky_log" 2>/dev/null &
flaky_pid=$!
addr=""
for _ in $(seq 1 120); do
  addr=$(grep -m1 -o '127\.0\.0\.1:[0-9]*' "$flaky_log" || true)
  [ -n "$addr" ] && break
  sleep 0.5
done
[ -n "$addr" ] || { echo "flaky smoke: server never printed its address"; kill "$flaky_pid" 2>/dev/null; exit 1; }
# Force the 503: the flaky probe device burns the SLO error budget on the
# first /health scrape, and the healthy→unhealthy edge triggers the dump.
forced=0
for _ in $(seq 1 20); do
  if ! cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/health" >/dev/null 2>&1; then
    forced=1; break
  fi
  sleep 0.3
done
[ "$forced" = 1 ] || { echo "flaky smoke: /health never degraded to 503"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/timeline" 2>/dev/null \
  | grep -q '"samples":\[{' \
  || { echo "flaky smoke: /timeline returned no samples"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/journal" 2>/dev/null \
  | grep -q '"kind":"seal"' \
  || { echo "flaky smoke: /journal misses the seal event"; exit 1; }
cargo run --release -q -p spine-bench --bin exp -- http-get "$addr/quit" >/dev/null 2>&1
# The server itself asserts a dump exists and schema-validates it on
# shutdown (a flaky run that captured nothing exits non-zero).
wait "$flaky_pid" || { echo "flaky smoke: server exited non-zero"; exit 1; }
dump=$(grep -oE 'OK: postmortem [^ ]+ validates' "$flaky_log" | awk '{print $3}')
[ -n "$dump" ] && [ -f "$dump" ] \
  || { echo "flaky smoke: postmortem dump file missing"; exit 1; }
head -c 11 "$dump" | grep -q '{"reason":"' \
  || { echo "flaky smoke: postmortem dump does not parse"; exit 1; }
rm -f "$flaky_log"

if [ "$BENCH_CHECK" = 1 ]; then
  echo "== bench regression gate (vs committed BENCH_serve.json + BENCH_build.json)"
  tmp_snap=$(mktemp); tmp_build=$(mktemp)
  cargo run --release -q -p spine-bench --bin exp -- bench-snapshot --quick \
    --out "$tmp_snap" --check BENCH_serve.json \
    --out-build "$tmp_build" --check-build BENCH_build.json >/dev/null
  rm -f "$tmp_snap" "$tmp_build"
  echo "== load-harness regression gate (full sweep vs committed BENCH_scale.json)"
  tmp_scale=$(mktemp)
  cargo run --release -q -p spine-bench --bin exp -- scale \
    --out "$tmp_scale" --check BENCH_scale.json 2>&1 | tail -2
  rm -f "$tmp_scale"
fi

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "CI green."
