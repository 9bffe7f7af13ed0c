//! Sharded conservative parallel execution of one virtual world.
//!
//! A [`ShardedSim`] owns N independent [`Sim`] engines ("shards"), each with
//! its own event heap, timer arena, inline-closure pool, and
//! [`SchedStats`]/[`crate::PoolStats`] ledger. Every simulated node is pinned
//! to exactly one shard by a content-keyed [`ShardMap`]; all of a node's
//! state (rings, credit ledgers, RTO timers, CQs) lives on that shard, so
//! shard-local events need no synchronization at all.
//!
//! # Conservative horizon protocol (CMB/YAWNS window)
//!
//! Cross-shard interactions happen only through [`ShardSender::send`],
//! whose scheduled delivery time must lie at least one *lookahead* past the
//! sender's clock — in this suite the lookahead is the SAN's minimum wire
//! crossing (`propagation + switch latency`), which is nonzero by
//! construction. Execution proceeds in rounds:
//!
//! 1. each shard drains its inbound channel (sorted by `(time, source
//!    shard, per-source sequence)` — a total, shard-count-independent
//!    order) and injects the messages into its local queue, then publishes
//!    the timestamp of its earliest pending event;
//! 2. a barrier; every shard reads all published minima and computes the
//!    same global minimum `T_min`;
//! 3. every shard runs its local queue up to the exclusive horizon
//!    `T_min + lookahead`, then meets the round-end barrier.
//!
//! Any event a shard executes in round *k* sits at `t < horizon_k`, and any
//! message it emits is delivered at `>= t + lookahead`... but also
//! `>= T_min + lookahead = horizon_k`, because no local clock can be below
//! `T_min`. So a message arriving for round *k+1* can never be earlier than
//! anything its destination already executed: causality holds without ever
//! rolling back, and the round loop terminates exactly when every queue and
//! channel is empty.
//!
//! # Determinism
//!
//! Within a shard, ordering is the serial engine's `(time, seq)` order.
//! Across shards, the only communication is timestamped messages whose
//! injection order is fixed by the sort above, never by thread timing. A
//! workload whose cross-shard message *timestamps* are distinct therefore
//! produces identical per-node event sequences at any shard count — the
//! property the suite's goldens pin byte-for-byte at `VIBE_SHARDS=1/2/4`.
//!
//! `shards = 1` is special-cased: [`ShardedSim::run`] calls the plain
//! [`Sim::run`] with no barriers, channels, or horizon math anywhere on the
//! path — the exact pre-sharding serial engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::engine::{add_thread_telemetry, Action, EventClass, PoolStats, SchedStats, Sim};
use crate::time::{SimDuration, SimTime};

/// Content-keyed node→shard assignment: a pure function of the node id and
/// the shard count, so the layout is stable across runs, processes, and
/// machines — never dependent on creation order or thread timing.
///
/// Two forms exist: the default hash map (every node id keyed
/// independently) and an explicit per-node table
/// ([`ShardMap::with_table`]) for layouts derived from structure the hash
/// cannot see — e.g. a multi-switch topology co-sharding each switch with
/// its attached hosts. Both are pure data: cloning is cheap (the table is
/// behind an `Arc`) and equality compares content.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    /// Explicit node→shard table; `None` selects the hash assignment.
    table: Option<Arc<Vec<u32>>>,
}

/// splitmix64: cheap, well-mixed integer hash (public-domain constants).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ShardMap {
    /// A map distributing nodes over `shards` shards.
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= u32::MAX as usize, "shard count overflow");
        ShardMap {
            shards: shards as u32,
            table: None,
        }
    }

    /// A map with an explicit per-node assignment; `table[node]` is the
    /// shard owning `node`. The caller guarantees the table is itself a
    /// pure function of workload content (a topology shape, not creation
    /// order), preserving the determinism contract.
    pub fn with_table(shards: usize, table: Vec<u32>) -> ShardMap {
        assert!(shards >= 1, "need at least one shard");
        assert!(shards <= u32::MAX as usize, "shard count overflow");
        assert!(
            table.iter().all(|&s| (s as usize) < shards),
            "table entry out of shard range"
        );
        ShardMap {
            shards: shards as u32,
            table: Some(Arc::new(table)),
        }
    }

    /// Number of shards this map distributes over.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning node `node`. With a table, the table entry; else
    /// keyed on the node id's hash, not on `node % shards`, so adjacent
    /// nodes (which often talk to each other) do not all land in lockstep
    /// stripes.
    pub fn assign(&self, node: u32) -> usize {
        if let Some(table) = &self.table {
            return table[node as usize] as usize;
        }
        if self.shards == 1 {
            return 0;
        }
        // Salt so the assignment is not the raw hash any other subsystem
        // might use ("VIBeSHRD").
        (splitmix64(node as u64 ^ 0x5649_4265_5348_5244) % self.shards as u64) as usize
    }
}

/// A cross-shard event in flight: scheduled by the source shard, injected
/// into the destination shard's queue at the next round boundary.
struct CrossMsg {
    at: SimTime,
    src: u32,
    /// Per-source-shard sequence number; `(at, src, seq)` totally orders
    /// injection, and within one source shard the sequence follows that
    /// shard's deterministic execution order.
    seq: u64,
    class: EventClass,
    action: Action,
}

struct ShardInner {
    sims: Vec<Sim>,
    map: ShardMap,
    lookahead: SimDuration,
    /// One inbox per destination shard.
    inbound: Vec<Mutex<Vec<CrossMsg>>>,
    /// Per-source-shard monotonic sequence / sent-message counter.
    sent: Vec<AtomicU64>,
    /// Messages that arrived below their destination's clock — a protocol
    /// violation (lookahead too large, or a send bypassed the wire).
    /// Always zero when every cross-shard delay is `>= lookahead`.
    late: AtomicU64,
}

/// Handle for scheduling work on another shard; cloneable and cheap. Each
/// sender is bound to the *source* shard whose clock justifies the send.
#[derive(Clone)]
pub struct ShardSender {
    inner: Arc<ShardInner>,
    src: u32,
}

impl ShardSender {
    /// The source shard this sender is bound to.
    pub fn src_shard(&self) -> usize {
        self.src as usize
    }

    /// Schedule `f` at absolute time `at` on shard `dst`.
    ///
    /// Same-shard sends short-circuit straight into the local queue — the
    /// exact serial scheduling path, consuming no channel sequence — so a
    /// 1-shard world never touches a channel. Cross-shard sends must
    /// satisfy `at >= now + lookahead` (the conservative window); they are
    /// enqueued and injected at the destination's next round boundary.
    pub fn send(
        &self,
        dst: usize,
        at: SimTime,
        class: EventClass,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) {
        if dst == self.src as usize {
            self.inner.sims[dst].call_at_as(class, at, f);
            return;
        }
        debug_assert!(
            at >= self.inner.sims[self.src as usize].now() + self.inner.lookahead,
            "cross-shard send below the lookahead window: {:?} < {:?} + {:?}",
            at,
            self.inner.sims[self.src as usize].now(),
            self.inner.lookahead,
        );
        let seq = self.inner.sent[self.src as usize].fetch_add(1, Ordering::Relaxed);
        self.inner.inbound[dst].lock().push(CrossMsg {
            at,
            src: self.src,
            seq,
            class,
            action: Action::from_closure(f),
        });
    }
}

/// Per-shard execution telemetry for one [`ShardedSim::run`] call.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Events this shard executed.
    pub events: u64,
    /// Cross-shard messages this shard sent.
    pub sent: u64,
    /// Cross-shard messages this shard received (injected).
    pub received: u64,
    /// Wall-clock time this shard's worker spent blocked in round barriers.
    pub stall: Duration,
}

/// What [`ShardedSim::run`] observed. The sharded analogue of
/// [`crate::RunReport`], plus per-shard balance telemetry.
#[derive(Debug)]
pub struct ShardedReport {
    /// Latest virtual time reached by any shard.
    pub end_time: SimTime,
    /// Total events executed across all shards by this run call.
    pub events: u64,
    /// Synchronization rounds executed — each round is one granted horizon
    /// (`T_min + lookahead`). Zero on the 1-shard bypass path.
    pub rounds: u64,
    /// Names of processes still blocked when all queues drained.
    pub blocked: Vec<String>,
    /// Cumulative scheduler ledgers of all shards, merged field-wise —
    /// conservation-exact against a serial run of the same workload.
    pub sched: SchedStats,
    /// Per-shard events / channel traffic / barrier-stall telemetry.
    pub per_shard: Vec<ShardStats>,
    /// Cross-shard messages that arrived below their destination's clock.
    /// Nonzero means the conservative protocol was violated.
    pub causality_violations: u64,
}

impl ShardedReport {
    /// True when every spawned process ran to completion.
    pub fn is_quiescent(&self) -> bool {
        self.blocked.is_empty()
    }
}

/// N [`Sim`] shards advancing one virtual world under the conservative
/// horizon protocol described in the [module docs](self).
pub struct ShardedSim {
    inner: Arc<ShardInner>,
}

impl ShardedSim {
    /// Create `shards` engines sharing one virtual clock domain.
    /// `lookahead` is the minimum cross-shard scheduling delay the caller
    /// guarantees (for the SAN: `propagation + switch latency`); it must be
    /// nonzero — a zero window would allow same-instant cross-shard
    /// causality, which conservative synchronization cannot order.
    pub fn new(shards: usize, lookahead: SimDuration) -> ShardedSim {
        Self::new_with_map(ShardMap::new(shards), lookahead)
    }

    /// Like [`ShardedSim::new`] but with an explicit node→shard map (e.g.
    /// a topology-aware table keeping switch neighborhoods co-sharded).
    /// The shard count comes from the map.
    pub fn new_with_map(map: ShardMap, lookahead: SimDuration) -> ShardedSim {
        let shards = map.shards();
        assert!(shards >= 1, "need at least one shard");
        assert!(
            !lookahead.is_zero(),
            "conservative lookahead must be nonzero"
        );
        ShardedSim {
            inner: Arc::new(ShardInner {
                sims: (0..shards).map(|_| Sim::new()).collect(),
                map,
                lookahead,
                inbound: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
                sent: (0..shards).map(|_| AtomicU64::new(0)).collect(),
                late: AtomicU64::new(0),
            }),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.inner.sims.len()
    }

    /// The conservative lookahead window.
    pub fn lookahead(&self) -> SimDuration {
        self.inner.lookahead
    }

    /// The node→shard assignment.
    pub fn map(&self) -> ShardMap {
        self.inner.map.clone()
    }

    /// The engine owning shard `shard`.
    pub fn sim(&self, shard: usize) -> &Sim {
        &self.inner.sims[shard]
    }

    /// The engine owning node `node` under this map.
    pub fn sim_for_node(&self, node: u32) -> &Sim {
        &self.inner.sims[self.inner.map.assign(node)]
    }

    /// All shard engines, indexed by shard id.
    pub fn sims(&self) -> &[Sim] {
        &self.inner.sims
    }

    /// A sender bound to `src_shard` for cross-shard scheduling.
    pub fn sender(&self, src_shard: usize) -> ShardSender {
        assert!(src_shard < self.shards(), "no such shard");
        ShardSender {
            inner: Arc::clone(&self.inner),
            src: src_shard as u32,
        }
    }

    /// Drive all shards until every queue and channel drains, then report.
    ///
    /// With one shard this is exactly [`Sim::run`] — no barrier, channel,
    /// or horizon math on the path. With more, scoped worker threads (one
    /// per shard) execute the round protocol; the calling thread is
    /// credited with the run's events and arena churn so thread-level job
    /// attribution (see [`crate::thread_events`]) behaves as in the serial
    /// engine.
    pub fn run(&self) -> ShardedReport {
        let n = self.shards();
        if n == 1 {
            let report = self.inner.sims[0].run();
            return ShardedReport {
                end_time: report.end_time,
                events: report.events,
                rounds: 0,
                blocked: report.blocked,
                per_shard: vec![ShardStats {
                    events: report.events,
                    ..ShardStats::default()
                }],
                sched: report.sched,
                causality_violations: self.inner.late.load(Ordering::Relaxed),
            };
        }

        let pool_before = self.merged_pool();
        let sched_before = self.merged_sched();
        let events_before: u64 = sched_before.fired;
        let fuse_before = sched_before.fuse;
        let barrier = Barrier::new(n);
        // One published minimum per shard; u64::MAX encodes "empty".
        let mins: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
        let inner = &self.inner;
        let outcomes: Vec<(ShardStats, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|i| {
                    let sim = inner.sims[i].clone();
                    let barrier = &barrier;
                    let mins = &mins;
                    scope.spawn(move || run_shard_rounds(inner, &sim, i, barrier, mins))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        // Workers advance in lockstep, so every shard reports the same
        // round count; shard 0's is authoritative.
        let rounds = outcomes[0].1;
        let per_shard: Vec<ShardStats> = outcomes.into_iter().map(|(s, _)| s).collect();

        let sched = self.merged_sched();
        let events = sched.fired - events_before;
        let pool_delta = self.merged_pool().delta_since(&pool_before);
        let fuse_delta = sched.fuse.delta_since(&fuse_before);
        add_thread_telemetry(events, &pool_delta, &fuse_delta);
        let end_time = self
            .inner
            .sims
            .iter()
            .map(|s| s.now())
            .max()
            .unwrap_or(SimTime::ZERO);
        let blocked = self
            .inner
            .sims
            .iter()
            .flat_map(|s| {
                s.inner
                    .procs
                    .lock()
                    .iter()
                    .filter(|p| p.is_blocked())
                    .map(|p| p.name.clone())
                    .collect::<Vec<_>>()
            })
            .collect();
        ShardedReport {
            end_time,
            events,
            rounds,
            blocked,
            sched,
            per_shard,
            causality_violations: self.inner.late.load(Ordering::Relaxed),
        }
    }

    /// Like [`ShardedSim::run`] but panics if any process is still blocked
    /// or any cross-shard message violated causality — the normal mode for
    /// experiments and tests.
    pub fn run_to_completion(&self) -> ShardedReport {
        let report = self.run();
        assert!(
            report.is_quiescent(),
            "sharded simulation deadlocked at {}; blocked processes: {:?}",
            report.end_time,
            report.blocked
        );
        assert_eq!(
            report.causality_violations, 0,
            "conservative horizon protocol violated"
        );
        report
    }

    fn merged_sched(&self) -> SchedStats {
        let mut total = SchedStats::default();
        for sim in &self.inner.sims {
            total.merge(&sim.sched_stats());
        }
        total
    }

    fn merged_pool(&self) -> PoolStats {
        self.merged_sched().pool
    }
}

/// The per-shard worker: the three-barrier YAWNS round loop. Returns this
/// shard's telemetry and the number of rounds it executed.
fn run_shard_rounds(
    inner: &ShardInner,
    sim: &Sim,
    i: usize,
    barrier: &Barrier,
    mins: &[AtomicU64],
) -> (ShardStats, u64) {
    let mut stats = ShardStats::default();
    let sent_before = inner.sent[i].load(Ordering::Relaxed);
    let mut rounds = 0u64;
    let stall = |stats: &mut ShardStats| {
        let t0 = Instant::now();
        barrier.wait();
        stats.stall += t0.elapsed();
    };
    loop {
        // Phase 1: drain the inbox in the canonical total order and inject.
        // Every message was sent during an earlier round, whose horizon is
        // at or below our clock only if causality was violated — count it
        // and clamp rather than scheduling into the past.
        let mut msgs = std::mem::take(&mut *inner.inbound[i].lock());
        msgs.sort_by_key(|m| (m.at, m.src, m.seq));
        stats.received += msgs.len() as u64;
        let now = sim.now();
        for m in msgs {
            if m.at < now {
                inner.late.fetch_add(1, Ordering::Relaxed);
            }
            sim.push_action(m.at.max(now), m.class, m.action);
        }
        mins[i].store(
            sim.next_event_time().map_or(u64::MAX, |t| t.as_nanos()),
            Ordering::Release,
        );
        stall(&mut stats); // B1: all minima published.
        let t_min = mins
            .iter()
            .map(|m| m.load(Ordering::Acquire))
            .min()
            .expect("at least one shard");
        stall(&mut stats); // B2: all shards read the minima; slots reusable.
        if t_min == u64::MAX {
            // Every queue and channel is empty — all shards agree, because
            // all read the same minima and round-end barriers guarantee no
            // send is still in flight. Terminate together.
            break;
        }
        let horizon = SimTime::from_nanos(t_min) + inner.lookahead;
        let report = sim.run_until(horizon);
        stats.events += report.events;
        rounds += 1;
        stall(&mut stats); // B3: round over; all sends of this round landed.
    }
    stats.sent = inner.sent[i].load(Ordering::Relaxed) - sent_before;
    (stats, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EventClass;

    #[test]
    fn shard_map_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7] {
            let map = ShardMap::new(shards);
            for node in 0..64u32 {
                let a = map.assign(node);
                assert!(a < shards);
                assert_eq!(a, map.assign(node), "assignment must be pure");
                assert_eq!(a, ShardMap::new(shards).assign(node));
            }
        }
        // 1-shard maps everything to shard 0.
        assert!((0..64).all(|n| ShardMap::new(1).assign(n) == 0));
    }

    #[test]
    fn shard_map_table_overrides_hash() {
        let map = ShardMap::with_table(3, vec![2, 0, 0, 1]);
        assert_eq!(map.shards(), 3);
        assert_eq!(
            (0..4).map(|n| map.assign(n)).collect::<Vec<_>>(),
            vec![2, 0, 0, 1]
        );
        assert_eq!(map.clone(), map, "clones compare equal by content");
        assert_ne!(map, ShardMap::new(3));
    }

    #[test]
    #[should_panic(expected = "out of shard range")]
    fn shard_map_table_entries_validated() {
        let _ = ShardMap::with_table(2, vec![0, 2]);
    }

    #[test]
    fn single_shard_bypass_matches_plain_sim() {
        let ss = ShardedSim::new(1, SimDuration::from_nanos(100));
        let log = Arc::new(Mutex::new(Vec::new()));
        for (d, tag) in [(30u64, 'c'), (10, 'a'), (20, 'b')] {
            let log = Arc::clone(&log);
            ss.sim(0)
                .call_in(SimDuration::from_micros(d), move |_| log.lock().push(tag));
        }
        let report = ss.run();
        assert_eq!(*log.lock(), vec!['a', 'b', 'c']);
        assert_eq!(report.events, 3);
        assert_eq!(report.rounds, 0, "bypass path must not run rounds");
        assert_eq!(report.causality_violations, 0);
        assert_eq!(report.end_time, SimTime::from_nanos(30_000));
        assert_eq!(report.per_shard.len(), 1);
        assert_eq!(report.per_shard[0].events, 3);
    }

    /// A ping-pong chain across two shards with a 100 ns wire: each hop
    /// records `(time, shard)` and forwards to the other shard one
    /// lookahead later.
    fn ping_pong(shards: usize, hops: u32) -> (Vec<(u64, usize)>, ShardedReport) {
        let la = SimDuration::from_nanos(100);
        let ss = ShardedSim::new(shards, la);
        let log: Arc<Mutex<Vec<(u64, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let senders: Arc<Vec<ShardSender>> = Arc::new((0..shards).map(|s| ss.sender(s)).collect());

        fn hop(
            sim: &Sim,
            senders: Arc<Vec<ShardSender>>,
            log: Arc<Mutex<Vec<(u64, usize)>>>,
            me: usize,
            left: u32,
        ) {
            log.lock().push((sim.now().as_nanos(), me));
            if left == 0 {
                return;
            }
            let dst = (me + 1) % senders.len();
            let at = sim.now() + SimDuration::from_nanos(100);
            let s2 = Arc::clone(&senders);
            let l2 = Arc::clone(&log);
            senders[me].send(dst, at, EventClass::Fabric, move |s| {
                hop(s, s2, l2, dst, left - 1)
            });
        }

        let s0 = Arc::clone(&senders);
        let l0 = Arc::clone(&log);
        ss.sim(0).call_at(SimTime::ZERO, move |s| {
            hop(s, s0, l0, 0, hops);
        });
        let report = ss.run_to_completion();
        let log = log.lock().clone();
        (log, report)
    }

    #[test]
    fn cross_shard_chain_is_deterministic_and_ordered() {
        let (serial_log, serial) = ping_pong(1, 20);
        assert_eq!(serial_log.len(), 21);
        assert_eq!(
            serial_log,
            (0..=20u64).map(|i| (i * 100, 0)).collect::<Vec<_>>()
        );
        let (sharded_log, sharded) = ping_pong(2, 20);
        // Same hop times; the shard column now alternates.
        assert_eq!(
            sharded_log.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            serial_log.iter().map(|&(t, _)| t).collect::<Vec<_>>()
        );
        assert!(sharded.rounds > 0, "two shards must synchronize in rounds");
        assert_eq!(sharded.causality_violations, 0);
        // Conservation: the merged ledger equals the serial ledger.
        assert_eq!(sharded.sched.fired, serial.sched.fired);
        assert_eq!(
            sharded.sched.pool.inline_small,
            serial.sched.pool.inline_small
        );
        assert_eq!(
            sharded.sched.pool.inline_large,
            serial.sched.pool.inline_large
        );
        assert_eq!(sharded.sched.pool.boxed, serial.sched.pool.boxed);
        assert_eq!(sharded.events, serial.events);
        assert_eq!(sharded.end_time, serial.end_time);
        // Channel traffic is visible in per-shard telemetry.
        let sent: u64 = sharded.per_shard.iter().map(|s| s.sent).sum();
        let received: u64 = sharded.per_shard.iter().map(|s| s.received).sum();
        assert_eq!(sent, received);
        assert!(sent >= 1, "a 2-shard ping-pong must cross the channel");
        let events: u64 = sharded.per_shard.iter().map(|s| s.events).sum();
        assert_eq!(events, sharded.events);
    }

    #[test]
    fn run_twice_supports_incremental_workloads() {
        let ss = ShardedSim::new(2, SimDuration::from_nanos(50));
        let hits = Arc::new(AtomicU64::new(0));
        for shard in 0..2 {
            let hits = Arc::clone(&hits);
            ss.sim(shard)
                .call_in(SimDuration::from_nanos(10), move |_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
        }
        let r1 = ss.run_to_completion();
        assert_eq!(r1.events, 2);
        let h2 = Arc::clone(&hits);
        ss.sim(1).call_in(SimDuration::from_nanos(5), move |_| {
            h2.fetch_add(10, Ordering::Relaxed);
        });
        let r2 = ss.run_to_completion();
        assert_eq!(r2.events, 1);
        assert_eq!(hits.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn process_parked_under_one_run_resumes_under_the_next() {
        let ss = ShardedSim::new(2, SimDuration::from_nanos(50));
        let waiting_on = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&waiting_on);
        let h = ss.sim(1).spawn("straddler", None, move |ctx| {
            let before = std::thread::current().id();
            let token = ctx.prepare_wait();
            *slot.lock() = Some(token);
            ctx.wait(token);
            (before, std::thread::current().id(), ctx.now())
        });
        let r1 = ss.run();
        assert_eq!(r1.blocked, vec!["straddler".to_string()]);
        let token = waiting_on.lock().take().expect("parked on a token");
        ss.sim(1).wake_in(SimDuration::from_nanos(10), token);
        ss.run_to_completion();
        // Each `run` drives shard 1 from a fresh scoped worker, so the
        // body started on one OS thread and finished on another.
        let (before, after, woke_at) = h.expect_result();
        let here = std::thread::current().id();
        assert!(before != here && after != here && before != after);
        assert_eq!(woke_at, r1.end_time + SimDuration::from_nanos(10));
    }

    #[test]
    fn thread_telemetry_credited_to_coordinator() {
        let before = crate::thread_events();
        let (_, report) = ping_pong(4, 12);
        assert!(report.events >= 13);
        assert_eq!(crate::thread_events() - before, report.events);
    }

    #[test]
    #[should_panic(expected = "lookahead must be nonzero")]
    fn zero_lookahead_is_rejected() {
        let _ = ShardedSim::new(2, SimDuration::ZERO);
    }
}
