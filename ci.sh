#!/usr/bin/env sh
# Offline CI gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs against the vendored in-tree dependency shims, so no
# network (and no crates.io registry) is needed.
set -eu

cd "$(dirname "$0")"

# Poll <log> (up to 30 s) for a line containing <pattern>; print the
# rest of that line.
wait_for_log() {
    for _ in $(seq 1 300); do
        rest=$(sed -n "s/^.*$2//p" "$1" | head -n 1)
        if [ -n "$rest" ]; then
            echo "$rest"
            return 0
        fi
        sleep 0.1
    done
    return 1
}

# Wait until the daemon writing <log> has printed its client address
# after <pattern> (default: `serve`'s line) and answers `metrics` there;
# print the address.
wait_for_daemon() {
    addr=$(wait_for_log "$1" "${2:-commsched-service listening on }") || return 1
    for _ in $(seq 1 300); do
        if ./target/release/commsched metrics --server "$addr" >/dev/null 2>&1; then
            echo "$addr"
            return 0
        fi
        sleep 0.1
    done
    return 1
}

# SIGKILL a background daemon (already gone is fine) and reap it.
stop_daemon() {
    kill -9 "$1" 2>/dev/null || true
    wait "$1" 2>/dev/null || true
}

# A loadgen JSON report is clean: no errors, nothing lost in flight,
# something acknowledged.
check_loadgen_report() {
    grep -q '"errors":0,' "$1" && grep -q '"in_flight_lost":0,' "$1" \
        && ! grep -q '"jobs_acked":0,' "$1" \
        || { echo "loadgen smoke: report is not clean"; cat "$1"; exit 1; }
}

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (intra-doc links must resolve: module moves are where they rot)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The north star's "2 000-line files are a smell", made mechanical: no
# source file of the workspace may pass 1 000 lines.
echo "==> size guard (no *.rs under src/ or crates/**/src/ over 1000 lines)"
BIG=$(find src crates -name '*.rs' \( -path 'src/*' -o -path '*/src/*' \) -exec wc -l {} + \
    | awk '$2 != "total" && $1 > 1000')
[ -z "$BIG" ] || { echo "size guard: over 1000 lines:"; echo "$BIG"; exit 1; }

# A crate declares only what it uses: every `[dependencies]` entry must
# be named (as `dep_name`) somewhere under that crate's src/. A
# dependency only tests use belongs in `[dev-dependencies]`, and every
# entry there must be named under the crate's src/, tests/, benches/ or
# examples/.
echo "==> dependency guard (every [dependencies] entry is named under its crate's src/, every [dev-dependencies] entry under src/ tests/ benches/ examples/)"
UNUSED=""
for manifest in Cargo.toml crates/*/Cargo.toml crates/compat/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    for section in dependencies dev-dependencies; do
        where="$dir/src"
        [ "$section" = dependencies ] \
            || where=$(for sub in src tests benches examples; do [ ! -d "$dir/$sub" ] || echo "$dir/$sub"; done)
        for dep in $(awk -v want="[$section]" '/^\[/ { on = ($0 == want); next }
                          on && /^[A-Za-z0-9_-]+[ .=]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
            name=$(echo "$dep" | tr - _)
            # shellcheck disable=SC2086 # one word per directory
            grep -rqw "$name" $where || UNUSED="$UNUSED $dir -> $dep ($section);"
        done
    done
done
[ -z "$UNUSED" ] || { echo "dependency guard: declared but never named:$UNUSED"; exit 1; }

echo "==> cargo build --release"
cargo build --release

# The daemon ships a release build, and the simulator's lockstep
# references (debug_assertions) are compiled out exactly there: outside
# the benchmark smoke's four base-router pins nothing else checks the
# Duato, misroute, PFC, ECN and kill/restore digests with optimisations on.
# The unit tests run there too: the counted-work tests, which read the
# parked set against its definition, are the parked set's only check
# once the reference that recomputes it every cycle is compiled out, and
# the saturation search's probe-schedule tests (`sweep::tests`: the
# serial answer's bits under every predictor, the rounds of the golden
# sweep nets) run on the optimised probes the daemon runs.
echo "==> golden simulator digests, unit and probe-schedule tests, release build"
cargo test --release --offline -q -p commsched-netsim --test golden
cargo test --release --offline -q -p commsched-netsim --lib

# Same for the tabu search: its lockstep reference (the full scan,
# recomputed every iteration in debug builds) is compiled out of the
# build the daemon ships, where only the recorded trajectories can tell
# that the memoised scan still applies the swaps the full one would. The
# evaluator's unit tests hold the block scan, rows skipped and all, to
# the ordered scan bit for bit, and a pair's bounds to its numerators;
# the search's unit tests count the pairs it bounds and scans and the
# candidates it scores. Both run with optimisations on too.
echo "==> golden search trajectories, the block scan against the ordered scan and the counted scan work, release build"
cargo test --release --offline -q -p commsched-search --test golden
cargo test --release --offline -q -p commsched-core --lib
cargo test --release --offline -q -p commsched-search --lib

# And for the distance table: `PairSink`'s unsynchronised stores and the
# per-pair solver are what the shipped build runs, and the recorded bits
# are what every `F_G` of every job is a sum over. The row scan's lockstep
# reference (the series-path test over every pair's link list) is
# compiled out exactly there: the recorded tallies say that the scan
# still answers the pairs that test answered, the routing property test
# that it answers them with the cost of their one route. A repaired table
# is a rebuild's bits: an up*/down* repair re-solves the pairs the
# transition diff names and copies the rest, any other repair is a
# rebuild, and the fault-chain property test holds the shipped build to
# both, under both routers. The sparse == dense property tests run over
# the compaction and the solve the shipped build runs, whose connectivity
# check is a debug assertion on route circuits. One link fault at N = 128
# is repaired locally by the shipped build too.
echo "==> golden distance-table bits, which path answered each pair, sparse == dense, the row steps against route enumeration, repair == rebuild over fault chains under both routers, release build"
cargo test --release --offline -q -p commsched-distance --test golden --test tallies --test props --test repair_n128
cargo test --release --offline -q -p commsched-routing --test row

# And for what a restart restores: the table spill files hold the
# table's bits, and the release build is the one that encodes and decodes
# them. The digests were recorded through the text codec the files used
# to hold; the decoder proptest feeds the binary one mutated, truncated
# and hostile-sized bytes under a counting allocator.
echo "==> restored table bits and the binary table decoder, release build"
cargo test --release --offline -q -p commsched-distance --test restart_bits --test table_bytes

# And for the front end: the daemon that ships is the release build, and
# the recorded transcript (every verb and refusal over both codecs, the
# loop's own refusals, the routed requests) is what says its reply bytes
# are the ones the docs and every client were written against. The same
# build must answer a SCHEDULE with the same bytes whatever threads each
# job gets for its table and its search.
echo "==> recorded wire transcript and results under two thread budgets, release build"
cargo test --release --offline -q -p commsched-service --test transcript --test thread_budget

echo "==> cargo build --release --examples"
cargo build --release --examples

# The examples check what they print with `assert!`s that nothing else
# runs; all three take under a second together.
echo "==> run the examples, release build"
for EX in quickstart campus_now link_failure; do
    ./target/release/examples/"$EX" >/dev/null || { echo "example $EX failed"; exit 1; }
done

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo bench --workspace --no-run"
cargo bench --workspace --no-run

# Every smoke below writes under one private directory, removed on exit.
SMOKE_DIR=$(mktemp -d /tmp/commsched-smoke.XXXXXX)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> multilevel smoke (N=1024 coarsen->map->refine on the exact table under a wall budget)"
ML_START=$(date +%s)
./target/release/commsched schedule --kind random --switches 1024 --hosts 4 --degree 3 \
    --clusters 4 --seed 42 --strategy multilevel >"$SMOKE_DIR/ml_smoke.out" \
    || { echo "multilevel smoke: schedule failed"; cat "$SMOKE_DIR/ml_smoke.out"; exit 1; }
ML_ELAPSED=$(( $(date +%s) - ML_START ))
grep -q '^strategy: multilevel' "$SMOKE_DIR/ml_smoke.out" \
    || { echo "multilevel smoke: no multilevel telemetry line"; cat "$SMOKE_DIR/ml_smoke.out"; exit 1; }
[ "$ML_ELAPSED" -le 120 ] \
    || { echo "multilevel smoke: N=1024 took ${ML_ELAPSED}s (> 120s budget)"; exit 1; }
echo "multilevel smoke: ok (${ML_ELAPSED}s)"

echo "==> congestion sweep smoke (S1..S9 sweep under ECN+AIMD with adaptive misrouting)"
./target/release/commsched sweep --kind ring --switches 8 --hosts 2 --clusters 2 \
    --congestion ecn-aimd --vcs 2 --misroute >"$SMOKE_DIR/congestion_sweep_smoke.out" \
    || { echo "congestion sweep smoke: run failed"; cat "$SMOKE_DIR/congestion_sweep_smoke.out"; exit 1; }
grep -q '^regime: ecn-aimd+misroute' "$SMOKE_DIR/congestion_sweep_smoke.out" \
    || { echo "congestion sweep smoke: no regime line"; cat "$SMOKE_DIR/congestion_sweep_smoke.out"; exit 1; }
grep -q '^S1' "$SMOKE_DIR/congestion_sweep_smoke.out" \
    || { echo "congestion sweep smoke: no sweep points"; cat "$SMOKE_DIR/congestion_sweep_smoke.out"; exit 1; }
grep -q 'NaN' "$SMOKE_DIR/congestion_sweep_smoke.out" \
    && { echo "congestion sweep smoke: NaN leaked into output"; cat "$SMOKE_DIR/congestion_sweep_smoke.out"; exit 1; }
grep -q 'DEADLOCK' "$SMOKE_DIR/congestion_sweep_smoke.out" \
    && { echo "congestion sweep smoke: deadlock reported"; cat "$SMOKE_DIR/congestion_sweep_smoke.out"; exit 1; }
echo "congestion sweep smoke: ok"

echo "==> recovery smoke (serve -> upload + schedule -> submit -> SIGKILL -> restart -> recovered job visible, table restored from its spill file)"
./target/release/commsched serve --addr 127.0.0.1:0 --workers 1 \
    --state-dir "$SMOKE_DIR/state" >"$SMOKE_DIR/serve1.log" 2>&1 &
SERVE_PID=$!
ADDR=$(wait_for_daemon "$SMOKE_DIR/serve1.log") \
    || { echo "recovery smoke: first server never came up"; cat "$SMOKE_DIR/serve1.log"; exit 1; }
# Register a topology and schedule on it to completion: its distance
# table is then cached and spilled to <state-dir>/tables/.
./target/release/commsched topology --kind ring --switches 8 --hosts 1 \
    --save "$SMOKE_DIR/ring8.topo" >/dev/null \
    || { echo "recovery smoke: could not write a topology file"; exit 1; }
./target/release/commsched schedule --server "$ADDR" --kind file --input "$SMOKE_DIR/ring8.topo" \
    --clusters 2 >"$SMOKE_DIR/schedule.out" \
    || { echo "recovery smoke: schedule on an uploaded topology failed"; cat "$SMOKE_DIR/schedule.out"; exit 1; }
# The worker writes the file after it has settled the job, so the client
# can be back first: give it a moment.
for _ in $(seq 1 50); do
    ls "$SMOKE_DIR/state/tables"/*.tbl >/dev/null 2>&1 && break
    sleep 0.1
done
ls "$SMOKE_DIR/state/tables"/*.tbl >/dev/null 2>&1 \
    || { echo "recovery smoke: no spill file after a table build"; ls -la "$SMOKE_DIR/state" "$SMOKE_DIR/state/tables"; exit 1; }
./target/release/commsched submit --server "$ADDR" --kind ring --switches 4 --hosts 1 --clusters 2 | grep -q '^job ' \
    || { echo "recovery smoke: submit failed"; exit 1; }
stop_daemon "$SERVE_PID"
./target/release/commsched serve --addr 127.0.0.1:0 --workers 1 \
    --state-dir "$SMOKE_DIR/state" >"$SMOKE_DIR/serve2.log" 2>&1 &
SERVE_PID=$!
ADDR=$(wait_for_daemon "$SMOKE_DIR/serve2.log") \
    || { echo "recovery smoke: restarted server never came up"; cat "$SMOKE_DIR/serve2.log"; exit 1; }
grep -q '^recovered from ' "$SMOKE_DIR/serve2.log" \
    || { echo "recovery smoke: no recovery line"; cat "$SMOKE_DIR/serve2.log"; exit 1; }
RESTORED=$(sed -n 's/^recovered from .* \([0-9][0-9]*\) cached tables.*/\1/p' "$SMOKE_DIR/serve2.log")
[ "${RESTORED:-0}" -ge 1 ] \
    || { echo "recovery smoke: restored tables = ${RESTORED:-none}, want >= 1"; cat "$SMOKE_DIR/serve2.log"; exit 1; }
[ -z "$(find "$SMOKE_DIR/state/tables" -name '*.tmp')" ] \
    || { echo "recovery smoke: stray tmp file under tables/"; ls -la "$SMOKE_DIR/state/tables"; exit 1; }
# The restarted daemon read its table from the file, and rejected none.
./target/release/commsched metrics --server "$ADDR" >"$SMOKE_DIR/metrics2.out" \
    || { echo "recovery smoke: metrics request failed"; exit 1; }
RESTORES=$(sed -n 's/^service_table_restores_total \([0-9][0-9]*\)$/\1/p' "$SMOKE_DIR/metrics2.out")
[ "${RESTORES:-0}" -ge 1 ] \
    || { echo "recovery smoke: table_restores = ${RESTORES:-none}, want >= 1"; cat "$SMOKE_DIR/metrics2.out"; exit 1; }
grep -q '^service_table_spill_errors_total 0$' "$SMOKE_DIR/metrics2.out" \
    || { echo "recovery smoke: a table file was rejected"; grep table "$SMOKE_DIR/metrics2.out"; exit 1; }
./target/release/commsched status --server "$ADDR" --job 1 | grep -Eq 'queued|running|done' \
    || { echo "recovery smoke: job 1 not recovered"; exit 1; }
./target/release/commsched status --server "$ADDR" --job 2 | grep -Eq 'queued|running|done' \
    || { echo "recovery smoke: job 2 not recovered"; exit 1; }
stop_daemon "$SERVE_PID"
echo "recovery smoke: ok"

echo "==> loadgen smoke (serve under a 1024-descriptor soft limit -> paced binary batch load, then 10 000 connections -> clean reports)"
# The daemon starts under the common 1024 soft limit and must raise it
# itself to honour --max-conns. The first run is paced so that its total
# (20 000 jobs) stays under --queue-cap however slowly the workers drain.
HARD_NOFILE=$(ulimit -H -n)
( ulimit -S -n 1024; exec ./target/release/commsched serve --addr 127.0.0.1:0 --workers 2 \
    --no-persist --queue-cap 100000 --max-conns 12000 ) >"$SMOKE_DIR/serve3.log" 2>&1 &
SERVE_PID=$!
ADDR=$(wait_for_daemon "$SMOKE_DIR/serve3.log") \
    || { echo "loadgen smoke: server never came up"; cat "$SMOKE_DIR/serve3.log"; exit 1; }
./target/release/commsched loadgen --server "$ADDR" --connections 32 --rate 20000 \
    --batch 16 --mode binary --duration 1 \
    --out "$SMOKE_DIR/loadgen.json" >/dev/null \
    || { echo "loadgen smoke: run failed"; exit 1; }
check_loadgen_report "$SMOKE_DIR/loadgen.json"
if [ "$HARD_NOFILE" = unlimited ] || [ "$HARD_NOFILE" -ge 12064 ]; then
    ./target/release/commsched loadgen --server "$ADDR" --connections 10000 --rate 2000 \
        --mode line --duration 1 --out "$SMOKE_DIR/sustain.json" >/dev/null \
        || { echo "loadgen smoke: 10 000-connection run failed"; exit 1; }
    check_loadgen_report "$SMOKE_DIR/sustain.json"
    grep -q '"connections":10000,' "$SMOKE_DIR/sustain.json" \
        || { echo "loadgen smoke: not every connection was held"; cat "$SMOKE_DIR/sustain.json"; exit 1; }
else
    echo "loadgen smoke: 10 000-connection run skipped (hard descriptor limit $HARD_NOFILE)"
fi
stop_daemon "$SERVE_PID"
echo "loadgen smoke: ok"

echo "==> cluster failover smoke (serve --repl-listen + serve --follow -> submit -> SIGKILL primary -> promoted standby serves)"
# Reserve a concrete client address: the standby binds the same address
# after promotion, so it cannot be kernel-assigned.
./target/release/commsched serve --addr 127.0.0.1:0 --workers 1 --no-persist \
    >"$SMOKE_DIR/reserve.log" 2>&1 &
RESERVE_PID=$!
CLUSTER_ADDR=$(wait_for_daemon "$SMOKE_DIR/reserve.log") || CLUSTER_ADDR=""
stop_daemon "$RESERVE_PID"
[ -n "$CLUSTER_ADDR" ] || { echo "cluster smoke: could not reserve a port"; exit 1; }
./target/release/commsched serve --addr "$CLUSTER_ADDR" \
    --state-dir "$SMOKE_DIR/cluster-primary" --repl-listen 127.0.0.1:0 \
    >"$SMOKE_DIR/cluster1.log" 2>&1 &
PRIMARY_PID=$!
# The replication line is printed before the client listening line.
wait_for_daemon "$SMOKE_DIR/cluster1.log" >/dev/null \
    && REPL_ADDR=$(sed -n 's/^replication listening on //p' "$SMOKE_DIR/cluster1.log") \
    && [ -n "$REPL_ADDR" ] \
    || { echo "cluster smoke: primary never came up"; cat "$SMOKE_DIR/cluster1.log"; exit 1; }
./target/release/commsched serve --addr "$CLUSTER_ADDR" \
    --state-dir "$SMOKE_DIR/cluster-standby" --follow "$REPL_ADDR" \
    >"$SMOKE_DIR/cluster2.log" 2>&1 &
STANDBY_PID=$!
wait_for_log "$SMOKE_DIR/cluster2.log" ' following ' >/dev/null \
    || { echo "cluster smoke: standby never started following"; cat "$SMOKE_DIR/cluster2.log"; exit 1; }
for _ in 1 2 3; do
    ./target/release/commsched submit --server "$CLUSTER_ADDR" --kind ring --switches 4 --hosts 1 --clusters 2 | grep -q '^job ' \
        || { echo "cluster smoke: submit to primary failed"; exit 1; }
done
stop_daemon "$PRIMARY_PID"
# A standby prints its client listening line only once promoted.
wait_for_daemon "$SMOKE_DIR/cluster2.log" >/dev/null \
    || { echo "cluster smoke: standby never promoted"; cat "$SMOKE_DIR/cluster2.log"; exit 1; }
# Acked-means-replicated: every job submitted to the dead primary must
# be visible on the promoted node.
for JOB in 1 2 3; do
    ./target/release/commsched status --server "$CLUSTER_ADDR" --job "$JOB" | grep -Eq 'queued|running|done' \
        || { echo "cluster smoke: job $JOB lost in failover"; exit 1; }
done
stop_daemon "$STANDBY_PID"
echo "cluster failover smoke: ok"

echo "==> benchmark harness unit tests (the pinned surface still compiles)"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (large_warm, large_cold and sweep_sim through the real daemon: every result balanced, its F_G recomputed, better than random; all four pinned simulator digests must match)"
if [ "$(nproc)" -ge 2 ]; then
    for W in large_warm large_cold sweep_sim; do
        benchmark/run.sh --smoke --only "$W" --out "$SMOKE_DIR/bench-$W" >"$SMOKE_DIR/bench-$W.log" 2>&1 \
            || { echo "benchmark smoke: $W run failed"; tail -40 "$SMOKE_DIR/bench-$W.log"; exit 1; }
    done
    grep -A1 '"netsim.digest_match": {' "$SMOKE_DIR/bench-sweep_sim/result.json" | grep -q '"value": 1,$' \
        || { echo "benchmark smoke: netsim.digest_match is not 1 — the simulator's statistics moved"; \
             grep -A6 '"netsim_digests"' "$SMOKE_DIR/bench-sweep_sim/result.json"; exit 1; }
    echo "benchmark smoke: ok"
else
    echo "benchmark smoke: skipped (nproc = $(nproc); the harness refuses to run on fewer than two cores)"
fi

echo "==> ci.sh: all green"
