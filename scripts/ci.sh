#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass, in the order CI runs it.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> docs cite only paths and tests that exist (README, DESIGN, EXPERIMENTS)"
scripts/check_doc_refs.sh

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps --lib --document-private-items (intra-doc links resolve, private ones too; no rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --document-private-items

echo "==> fused filter kernel (byte walk == reference line loop == set semantics; anchor skim == walk; exact lane mask)"
cargo test -p mithrilog-filter --lib -q fused_walk_equals_reference_and_set_semantics
cargo test -p mithrilog-filter --lib -q skim_skips_exactly_the_lines_the_walk_drops
cargo test -p mithrilog-filter --lib -q counting_mask_is_exact_in_every_lane

echo "==> cold-page kernels (sliced CRC32 == bitwise reference; decompress_into == decompress on mutilated frames)"
cargo test -p mithrilog-storage --lib -q crc::tests
cargo test --test properties -q lzah_into_agrees

echo "==> ingest kernels (hashed page analysis == sort-based reference; bounded-trial packer == trial-every-line reference)"
cargo test -p mithrilog --lib -q hashed_walk_equals_the_sort_based_reference
cargo test -p mithrilog-compress --lib -q bounded_trials_pack_exactly_like_trying_every_line

echo "==> ingest identity (golden device image after ingest and rebuild; rebuild keeps the journal totals)"
cargo test --test recovery -q -- --exact golden_device_image_after_ingest_and_after_rebuild
cargo test --test recovery -q -- --exact rebuild_keeps_the_journal_totals_so_later_mounts_load_the_checkpoint

echo "==> mithrilog recover --self-check (bounded crash-matrix smoke)"
cargo run --release -p mithrilog-cli --quiet -- recover --self-check --points 12

echo "==> parallel determinism (2-thread scan vs sequential reference, faults injected)"
cargo test --test parallel_determinism -q two_thread_scan_matches_sequential_reference

echo "==> page-cache determinism (cached vs uncached byte-identity under faults)"
cargo test --test scan_cache -q

echo "==> service concurrency (byte-identity under faults, admission, page sharing)"
cargo test --test service_concurrency -q

echo "==> mithrilog serve smoke (loopback line protocol: submit, poll, shutdown)"
mkdir -p target/ci
SERVE_LOG=target/ci/serve_smoke.log
SERVE_OUT=target/ci/serve_stdout.log
cargo run --release -p mithrilog-cli --quiet -- gen bgl2 0.2 "$SERVE_LOG"
cargo run --release -p mithrilog-cli --quiet -- serve "$SERVE_LOG" --port 0 >"$SERVE_OUT" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  grep -q '^LISTENING ' "$SERVE_OUT" 2>/dev/null && break
  sleep 0.1
done
SERVE_PORT=$(grep -m1 '^LISTENING ' "$SERVE_OUT" | awk '{print $2}')
[ -n "$SERVE_PORT" ] || { echo "serve never reported LISTENING"; exit 1; }
exec 3<>"/dev/tcp/127.0.0.1/$SERVE_PORT"
printf 'SUBMIT q=FATAL\r\nSTATS\r\nSHUTDOWN\r\n' >&3
RESPONSE=$(timeout 30 cat <&3)
exec 3<&- 3>&-
echo "$RESPONSE" | grep -q '^OK id=' || { echo "serve smoke: bad SUBMIT response: $RESPONSE"; exit 1; }
echo "$RESPONSE" | grep -q '^submitted=' || { echo "serve smoke: bad STATS response: $RESPONSE"; exit 1; }
wait "$SERVE_PID" || { echo "serve smoke: server exited nonzero"; exit 1; }
trap - EXIT

echo "==> service fault domains (cancellation, deadlines, panic isolation, quarantine)"
cargo test --test service_faults -q

echo "==> chaos soak (bounded smoke: submit/cancel/ingest storm under each fault mode)"
cargo test --test chaos_soak -q

echo "==> segment crash matrix (seal/retention-drop boundaries, every crash point)"
cargo test --test segment_store -q

echo "==> negation bitmaps (pruning byte-identity under faults, sidecar corruption, property)"
cargo test --test negation_bitmaps -q

echo "==> shard determinism (N-shard results byte-identical to 1-shard under every fault mode)"
cargo test --test shard_determinism -q

echo "==> repro --check (every paper table, figure and model row against crates/bench/expected)"
cargo run --release -p mithrilog-bench --quiet --bin repro -- --check

echo "==> bench_e2e (its own workspace: a crate API change must not break it unnoticed)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
(cd benchmark && cargo test --offline -q)
for WORKLOAD in scan_cold probe_warm shard_scatter ingest_stream serve_mixed; do
  BENCH_LINE=$(benchmark/run.sh --workload "$WORKLOAD" --seed 42 --seconds 3 --trace 0 | tail -n 1)
  echo "$BENCH_LINE"
  case "$BENCH_LINE" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *) echo "bench_e2e smoke: $WORKLOAD did not report correct answers with 0 failures"; exit 1 ;;
  esac
done

echo "==> ci.sh: all green"
