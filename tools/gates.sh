#!/usr/bin/env bash
# Source-tree gates: code shapes this repository removed on purpose and
# that may not grow back. Run from anywhere: `tools/gates.sh`. It checks
# every gate, prints each one that fails with its offending lines, and
# exits 1 if any did.
#
# Most gates are one row of the table below:
#
#   row <gate> <allowed> <scope> <pattern> <path>...
#
# A row fails when more than <allowed> lines match the extended regex
# <pattern>. A <path> is a file, a directory (every file under it) or a
# glob (`**` recurses); a path prefixed with `-` is excluded. <scope> is
# `all` for whole files, or `src` to cut each file at its first
# `#[cfg(test)]`, so unit tests may still name what the code may not (the
# Test-cut check below keeps that cut at each file's `mod tests`). The few
# checks a row cannot express follow the table as `check` lines.

set -uo pipefail
shopt -s globstar nullglob
cd "$(dirname "$0")/.." || exit 2

failed=0

# The files a row names, one per line, exclusions removed.
files() {
    local keep=() skip=() p f
    for p in "$@"; do
        case $p in
            -*) for f in ${p#-}; do skip+=("$f"); done ;;
            *) for f in $p; do keep+=("$f"); done ;;
        esac
    done
    for p in "${keep[@]}"; do
        if [ -d "$p" ]; then find "$p" -type f; else echo "$p"; fi
    done | sort -u | while read -r f; do
        case " ${skip[*]} " in *" $f "*) ;; *) echo "$f" ;; esac
    done
}

row() {
    local gate=$1 allowed=$2 scope=$3 pattern=$4 hits f
    shift 4
    hits=$(files "$@" | while read -r f; do
        if [ "$scope" = src ]; then
            sed '/#\[cfg(test)\]/,$d' "$f" | grep -nE -- "$pattern" | sed "s|^|$f:|"
        else
            grep -nE -- "$pattern" "$f" | sed "s|^|$f:|"
        fi
    done)
    local n
    n=$(grep -c . <<<"$hits")
    if [ "$n" -gt "$allowed" ]; then
        echo "gate $gate: $n lines match /$pattern/ ($allowed allowed)"
        echo "$hits"
        failed=1
    fi
}

check() {
    local gate=$1
    shift
    if ! "$@"; then
        echo "gate $gate: failed: $*"
        failed=1
    fi
}

# Thread-confinement: a world is touched only by the thread that built it,
# so its state lives in simkit::Confined cells. A mutex is left only where
# OS threads really share state (the suite runner's worker pool) and in the
# tracer, which can be built without a world.
row Thread-confinement 0 all 'Mutex<(SchedState|Vec<Arc<ProcessRecord>>|Vec<SimDuration>|ProviderState|PciState)>' crates
row Thread-confinement 0 src 'use parking_lot' crates/simkit/src/engine.rs crates/vnic/src/pci.rs
row Thread-confinement 0 src 'parking_lot|Mutex' 'crates/*/src/**/*.rs' -crates/core/src/runner.rs -crates/trace/src/lib.rs '-crates/pl-shim/**/*.rs'
# One-instrument: `trace` is the only per-message lifecycle instrument.
row One-instrument 0 all 'ProbeEvent|enable_probe|take_probe_events|probe_on' crates examples tests
# One-snapshot: a fragment is a window into the one send snapshot, never
# a copy of its slice.
row One-snapshot 0 all 'bufs\.data\[.*\]\.to_vec\(\)' crates/via/src/transport.rs crates/via/src/fastpath.rs
row One-snapshot 0 all 'payload: Vec<u8>' crates/via/src/wire.rs
# One-law: each conservation law is stated once, in the layer owning its
# counters, and checked once, in `harness::finish_world`.
row One-law 0 all 'check_oracles' crates tests examples
row One-law 0 all '\.audit\(\)' crates/core/src -crates/core/src/harness.rs
row One-law 0 src '(\+|==|<=|>=) *[A-Za-z_.()]*frames_(port|fault)_dropped|frames_(port|fault)_dropped *(\+|==|<=|>=)' 'crates/*/src/**/*.rs' '-crates/fabric/src/**/*.rs'
# One-stream: each workload step is written once, in `harness`, and each
# buffer is registered through `via::registered`. The registration
# benchmark (nondata.rs) and the get target's RDMA-read buffer (getput.rs)
# are not that step.
row One-stream 0 src 'outstanding *[-+]= *1' 'crates/core/src/*.rs' -crates/core/src/harness.rs -crates/core/src/nondata.rs
row One-stream 0 src 'register_mem\(' 'crates/core/src/*.rs' -crates/core/src/nondata.rs -crates/core/src/getput.rs
row One-stream 1 src 'register_mem\(' crates/core/src/getput.rs
row One-stream 0 all 'fn ping_pong_samples' crates
# One-claim: the paper's claims are stated once, in tests/claims/mod.rs;
# the shape tests that re-simulated a sweep stay gone.
row One-claim 0 all '#\[cfg\(test\)\]' crates/core/src/base.rs crates/core/src/client_server.rs crates/core/src/cqimpact.rs
row One-claim 0 all 'fn (reuse_sensitivity|latency_slope_per_vi|full_table1_reproduces_paper_within_ten_percent|headline_crossovers_hold)\b' crates tests
# One-mechanism: each substrate mechanism is built once. Routing is one
# table type built by `Topology::compute_routes` and picked from by
# `Routes::next_hop`; the hash behind it is `simkit::rng::splitmix64`; MPL
# and DSM take their registered buffers, receive rings, mesh bring-up and
# lane lookup from `via::kit`.
row One-mechanism 1 all 'fn splitmix64\b' crates
row One-mechanism 0 all 'dist:|fn hops\b|fn route_path\b' crates/fabric/src/topo.rs
row One-mechanism 0 all 'fn (classify|registered)\b|make_lane|struct Lane\b' crates/mpl/src crates/dsm/src crates/core/src
# One-cell: everything a SAN changes while it runs is one
# `Confined<SanState>` that each fabric event borrows once; no per-port or
# per-concern cells, and no atomic flags beside it.
row One-cell 1 src 'Confined<' crates/fabric/src/san.rs
row One-cell 0 src 'Atomic|Ordering::' crates/fabric/src/san.rs
# The engine likewise: `SimInner` keeps its run-time state in one
# `Confined<EngineState>` beside the clock mirror, a process's baton is a
# confined cell, and no atomic flag stands beside either.
row One-cell 1 src '^ *(pub(\(crate\))? )?[a-z_]+: Confined<' crates/simkit/src/engine.rs
row One-cell 0 src 'Atomic' crates/simkit/src/process.rs
row One-cell 0 src 'AtomicBool' crates/simkit/src
# Deleted-features: simulator features and option structs that no
# experiment, benchmark or example reached.
row Deleted-features 0 all '\bRerouteParams\b|fn fragments_for\b' crates examples src tests
row Deleted-features 0 all '\b(CoalescedInterrupts|wake_timer_in|PortDegrade|port_degrade|SimChannel|SessionParams|DsmConfig|call_soon|vibe-bench|vibe_bench)\b' crates examples src tests Cargo.toml
# The sharded engine: one `Sim` per world; `VIBE_JOBS` is the only
# parallel axis.
row Deleted-features 0 all '\b(ShardedSim|ShardSender|ShardMap|ShardStats|ShardedReport|ShardRunRecord|LinkShard|new_sharded(_topo)?|shard_lookahead|switch_shard|shard_map|min_cross_latency|default_shards|VIBE_SHARDS|run_until|next_event_time|node_sim)\b' crates examples src tests .github
# One-path: every landing and every ACK takes the general event chain; the
# receive-landing fold and the eager-ACK fold, with the state that backed
# their early marks out, stay gone.
row One-path 0 src 'fold_pending|unfused_highwater|folds_in_flight|fuse_rx_eligible|min_wire_latency|send_ack_at' 'crates/*/src/**/*.rs'
# One-path: a VI's two work queues are one `WorkQueue` type indexed by
# `QueueKind`, and every exit from `Connected` goes through one reset
# (`ViState::reset_connection`) and one error-completion constructor.
row One-path 0 src 'send_side|send_completed|recv_completed|send_waiter|recv_waiter' crates/via/src
row One-path 1 src 'status: Err\(ViaError::ConnectionLost\)' crates/via/src
# Dead-code: no field is kept for a reader that never comes.
row Dead-code 0 src 'allow\(dead_code\)' 'crates/*/src/**/*.rs'
# Negotiated thread ownership: a `Confined` cell checks the one thread that
# built its world instead of claiming, waiting for and counting owners.
row Deleted-features 0 all '\bAffinity\b|claims\(\)|read_volatile|compare_exchange|yield_now' crates/simkit/src/confined.rs crates/simkit/src/engine.rs tests/perf_proxies.rs
# The same for the process baton, which a compare-exchange once passed
# between threads. (`yield_now` is `ProcessCtx::yield_now` here.)
row Deleted-features 0 all '\bAffinity\b|claims\(\)|read_volatile|compare_exchange' crates/simkit/src/process.rs

# Test-cut: a `src` row cuts each file at its first `#[cfg(test)]`, which
# must therefore open the file's `mod tests`. A test-only item above it
# would hide every line after it from the `src` rows.
first_cfg_test_opens_mod_tests() {
    local f ok=0
    for f in crates/*/src/**/*.rs; do
        if ! awk '/#\[cfg\(test\)\]/ { getline; exit $0 !~ /^mod tests \{/ }' "$f"; then
            echo "  $f: the first #[cfg(test)] does not open mod tests"
            ok=1
        fi
    done
    return $ok
}

check Test-cut first_cfg_test_opens_mod_tests
check Thread-confinement test "$(grep -l 'unsafe impl' crates/simkit/src/*.rs | sort | tr '\n' ' ')" = \
    "crates/simkit/src/confined.rs crates/simkit/src/process.rs "
check One-law test "$(grep -c '\.audit()' crates/core/src/harness.rs)" = 1
check One-stream test "$(grep -rlE 'struct Stream\b' crates/ | tr '\n' ' ')" = "crates/core/src/harness.rs "

exit $failed
