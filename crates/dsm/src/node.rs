//! The per-rank DSM node: application handle + pager process.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use simkit::{Confined, Notify, ProcessCtx, ProcessHandle, Sim, WaitMode};
use via::{
    registered, Cluster, Cq, Descriptor, MemHandle, Mesh, Provider, QueueKind, RecvRing, Vi,
    ViAttributes,
};

use crate::wire::Msg;

/// Coherence granule (matches the testbed's virtual-memory page).
pub const PAGE_SIZE: u64 = 4096;

/// Number of shared pages (256 KiB of shared memory).
const PAGES: u64 = 64;
/// Pre-posted receive slots per lane.
const RING_SLOTS: usize = 8;

/// Per-rank counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct DsmStats {
    /// Accesses satisfied by an already-owned page.
    pub local_hits: u64,
    /// Accesses that had to acquire ownership remotely.
    pub faults: u64,
    /// Pages this rank shipped to others.
    pub pages_shipped: u64,
    /// Requests this rank's home directory served.
    pub directory_requests: u64,
    /// Forwards parked because the page was still in flight.
    pub parked_forwards: u64,
}

struct NodeState {
    /// Pages this rank currently owns (data in `store`).
    owned: HashSet<u64>,
    /// Local copies of owned pages (allocated lazily, zero-filled).
    store: HashMap<u64, Vec<u8>>,
    /// For pages homed here: the current owner per the directory.
    directory: HashMap<u64, u32>,
    /// Forwards awaiting a page that is in flight to this rank.
    pending_fwd: HashMap<u64, VecDeque<u32>>,
    /// A just-landed page reserved for the faulting application access.
    reserved_for_app: Option<u64>,
    /// The page the application has an outstanding request for (at most
    /// one: the application API is blocking). Suppresses duplicate
    /// requests when the arrival Notify delivers a banked/stale signal.
    fault_outstanding: Option<u64>,
    stats: DsmStats,
}

/// The mesh lane pagers ship pages and forwards on.
const PAGER: usize = 0;
/// The mesh lane applications send requests on (to the peer's pager).
const APP: usize = 1;

/// Shared plumbing between the application handle and the pager.
struct Shared {
    provider: Provider,
    rank: u32,
    ranks: u32,
    state: Confined<NodeState>,
    /// Signaled by the pager whenever a page lands.
    arrivals: Notify,
    /// Two lanes per peer, both feeding the pager's CQ: [`PAGER`] lanes
    /// carry pager-to-pager traffic, [`APP`] lanes this node's application
    /// requests (the app is the only sender on them).
    mesh: Mesh,
    /// World-wide count of application processes that have finished; the
    /// pagers stop only when every rank's application is done (a pager
    /// must keep serving remote faults after its own application exits).
    finished_apps: Arc<std::sync::atomic::AtomicUsize>,
}

/// Application-side handle to the shared memory.
pub struct Dsm {
    shared: Arc<Shared>,
    /// App-side registered send buffer.
    send_buf: (u64, MemHandle),
}

const SLOT_LEN: u64 = PAGE_SIZE + 64;

fn home_of(page: u64, ranks: u32) -> u32 {
    (page % ranks as u64) as u32
}

fn send_msg(ctx: &mut ProcessCtx, provider: &Provider, vi: &Vi, buf: (u64, MemHandle), msg: &Msg) {
    let bytes = msg.encode();
    provider.mem_write(buf.0, &bytes);
    vi.post_send(
        ctx,
        Descriptor::send().segment(buf.0, buf.1, bytes.len() as u32),
    )
    .expect("dsm send post");
    let comp = vi.send_wait(ctx, WaitMode::Poll);
    assert!(comp.is_ok(), "dsm send: {:?}", comp.status);
}

impl Dsm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.shared.rank as usize
    }

    /// World size.
    pub fn ranks(&self) -> usize {
        self.shared.ranks as usize
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DsmStats {
        self.shared.state.lock().stats
    }

    /// Total shared bytes.
    pub fn size(&self) -> u64 {
        PAGES * PAGE_SIZE
    }

    /// Read `len` bytes at shared address `addr` (may span pages).
    pub fn read(&self, ctx: &mut ProcessCtx, addr: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut cursor = addr;
        let end = addr + len as u64;
        assert!(end <= self.size(), "read past the shared segment");
        while cursor < end {
            let page = cursor / PAGE_SIZE;
            let off = (cursor % PAGE_SIZE) as usize;
            let take = ((PAGE_SIZE as usize - off) as u64).min(end - cursor) as usize;
            self.with_owned_page(ctx, page, |data| {
                out.extend_from_slice(&data[off..off + take]);
            });
            ctx.busy(self.shared.provider.profile().host.copy_time(take as u64));
            cursor += take as u64;
        }
        out
    }

    /// Write `data` at shared address `addr` (may span pages).
    pub fn write(&self, ctx: &mut ProcessCtx, addr: u64, data: &[u8]) {
        let end = addr + data.len() as u64;
        assert!(end <= self.size(), "write past the shared segment");
        let mut cursor = addr;
        let mut rest = data;
        while !rest.is_empty() {
            let page = cursor / PAGE_SIZE;
            let off = (cursor % PAGE_SIZE) as usize;
            let take = (PAGE_SIZE as usize - off).min(rest.len());
            let chunk = &rest[..take];
            self.with_owned_page_mut(ctx, page, |dst| {
                dst[off..off + take].copy_from_slice(chunk);
            });
            ctx.busy(self.shared.provider.profile().host.copy_time(take as u64));
            cursor += take as u64;
            rest = &rest[take..];
        }
    }

    /// Atomically read-modify-write up to one page worth of bytes (the
    /// ownership lock makes the page exclusive for the closure's duration).
    pub fn update(&self, ctx: &mut ProcessCtx, addr: u64, len: usize, f: impl FnOnce(&mut [u8])) {
        let page = addr / PAGE_SIZE;
        let off = (addr % PAGE_SIZE) as usize;
        assert!(
            off + len <= PAGE_SIZE as usize,
            "update must stay within one page"
        );
        self.with_owned_page_mut(ctx, page, |dst| f(&mut dst[off..off + len]));
        ctx.busy(self.shared.provider.profile().host.copy_time(len as u64));
    }

    fn with_owned_page<R>(&self, ctx: &mut ProcessCtx, page: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        self.acquire(ctx, page);
        let mut st = self.shared.state.lock();
        debug_assert!(st.owned.contains(&page));
        let data = st
            .store
            .entry(page)
            .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
        let r = f(data);
        drop(st);
        self.after_access(ctx, page);
        r
    }

    fn with_owned_page_mut<R>(
        &self,
        ctx: &mut ProcessCtx,
        page: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        self.acquire(ctx, page);
        let mut st = self.shared.state.lock();
        debug_assert!(st.owned.contains(&page));
        let data = st
            .store
            .entry(page)
            .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
        let r = f(data);
        drop(st);
        self.after_access(ctx, page);
        r
    }

    /// Ensure this rank owns `page`, faulting it over if necessary.
    fn acquire(&self, ctx: &mut ProcessCtx, page: u64) {
        assert!(page < PAGES, "page out of range");
        let me = self.shared.rank;
        let home = home_of(page, self.shared.ranks);
        loop {
            // Fast path.
            {
                let mut st = self.shared.state.lock();
                if st.owned.contains(&page) {
                    st.stats.local_hits += 1;
                    return;
                }
            }
            // Fault: issue exactly one request, then wait for the arrival.
            // (The arrival Notify can carry banked signals from earlier
            // faults, so a wake-up without ownership must NOT re-request.)
            let to_send: Option<(usize, Msg)> = {
                let mut st = self.shared.state.lock();
                if st.fault_outstanding == Some(page) {
                    None
                } else {
                    st.fault_outstanding = Some(page);
                    st.stats.faults += 1;
                    if home == me {
                        // We are the home: consult our own directory.
                        let owner = *st.directory.get(&page).unwrap_or(&home);
                        st.directory.insert(page, me);
                        st.stats.directory_requests += 1;
                        if owner == me {
                            // Directory says us, but we do not hold it: the
                            // page is already in flight to us — just wait.
                            None
                        } else {
                            Some((
                                owner as usize,
                                Msg::Fwd {
                                    page,
                                    requester: me,
                                },
                            ))
                        }
                    } else {
                        Some((
                            home as usize,
                            Msg::Req {
                                page,
                                requester: me,
                            },
                        ))
                    }
                }
            };
            if let Some((dst, msg)) = to_send {
                let vi = self.shared.mesh.lane(dst, APP).clone();
                send_msg(ctx, &self.shared.provider, &vi, self.send_buf, &msg);
            }
            // Wait until the pager lands a page, then re-check ownership.
            self.shared.arrivals.wait(ctx, WaitMode::Block);
        }
    }

    /// Post-access bookkeeping: release the app reservation and hand the
    /// page to any requesters that queued while it was in flight.
    fn after_access(&self, ctx: &mut ProcessCtx, page: u64) {
        let (ship_to, refwd): (Option<u32>, Vec<u32>) = {
            let mut st = self.shared.state.lock();
            if st.reserved_for_app == Some(page) {
                st.reserved_for_app = None;
            }
            let Some(mut queue) = st.pending_fwd.remove(&page) else {
                return;
            };
            let Some(first) = queue.pop_front() else {
                return;
            };
            // Ownership moves to `first`; later queued requesters chase it.
            st.owned.remove(&page);
            st.stats.pages_shipped += 1;
            (Some(first), queue.into_iter().collect())
        };
        let Some(first) = ship_to else { return };
        let data = {
            let mut st = self.shared.state.lock();
            st.store.remove(&page).expect("owned page has data")
        };
        let vi = self.shared.mesh.lane(first as usize, APP).clone();
        send_msg(
            ctx,
            &self.shared.provider,
            &vi,
            self.send_buf,
            &Msg::Page { page, data },
        );
        for chaser in refwd {
            let vi = self.shared.mesh.lane(first as usize, APP).clone();
            send_msg(
                ctx,
                &self.shared.provider,
                &vi,
                self.send_buf,
                &Msg::Fwd {
                    page,
                    requester: chaser,
                },
            );
        }
    }
}

// ---------------------------------------------------------------------
// Pager.
// ---------------------------------------------------------------------

struct Pager {
    shared: Arc<Shared>,
    cq: Cq,
    /// Per peer, the receive rings of its two mesh lanes.
    rings: Vec<Option<[RecvRing; 2]>>,
    send_buf: (u64, MemHandle),
}

impl Pager {
    fn run(&mut self, ctx: &mut ProcessCtx) {
        loop {
            // Drain ready completions; park briefly when idle so the stop
            // flag is observed promptly once the applications finish.
            let Some((vi_id, kind)) = self.cq.done(ctx) else {
                if self
                    .shared
                    .finished_apps
                    .load(std::sync::atomic::Ordering::Relaxed)
                    >= self.shared.ranks as usize
                {
                    return;
                }
                ctx.sleep(simkit::SimDuration::from_micros(5));
                continue;
            };
            if kind != QueueKind::Recv {
                continue;
            }
            let Some((src, lane)) = self.shared.mesh.lane_of(vi_id) else {
                continue;
            };
            let ring = &mut self.rings[src].as_mut().expect("lane")[lane];
            let comp = ring.vi().recv_done(ctx).expect("cq said so");
            assert!(comp.is_ok(), "pager recv: {:?}", comp.status);
            let slot = ring.rotate();
            let msg = Msg::decode(&self.shared.provider.mem_read(slot.0, comp.length));
            ring.repost(ctx, slot).expect("ring repost");
            self.handle(ctx, msg);
        }
    }

    fn handle(&mut self, ctx: &mut ProcessCtx, msg: Msg) {
        match msg {
            Msg::Req { page, requester } => {
                // We are the home: route per the directory.
                let action = {
                    let mut st = self.shared.state.lock();
                    st.stats.directory_requests += 1;
                    let owner = *st
                        .directory
                        .get(&page)
                        .unwrap_or(&home_of(page, self.shared.ranks));
                    if owner == requester {
                        // Stale/duplicate request: the requester already
                        // owns (or is about to receive) the page.
                        return;
                    }
                    st.directory.insert(page, requester);
                    if owner == self.shared.rank {
                        if st.owned.remove(&page) && st.reserved_for_app != Some(page) {
                            st.stats.pages_shipped += 1;
                            let data = st
                                .store
                                .remove(&page)
                                .unwrap_or_else(|| vec![0; PAGE_SIZE as usize]);
                            Some((requester, Msg::Page { page, data }))
                        } else {
                            // In flight to us, or reserved for our app:
                            // park the request.
                            if st.reserved_for_app == Some(page) {
                                st.owned.insert(page);
                            }
                            st.stats.parked_forwards += 1;
                            st.pending_fwd.entry(page).or_default().push_back(requester);
                            None
                        }
                    } else {
                        Some((owner, Msg::Fwd { page, requester }))
                    }
                };
                if let Some((dst, m)) = action {
                    self.ship(ctx, dst as usize, &m);
                }
            }
            Msg::Fwd { page, requester } => {
                if requester == self.shared.rank {
                    return; // stale self-forward; we hold or will hold it
                }
                let action = {
                    let mut st = self.shared.state.lock();
                    if st.owned.contains(&page) && st.reserved_for_app != Some(page) {
                        st.owned.remove(&page);
                        st.stats.pages_shipped += 1;
                        let data = st
                            .store
                            .remove(&page)
                            .unwrap_or_else(|| vec![0; PAGE_SIZE as usize]);
                        Some(Msg::Page { page, data })
                    } else {
                        st.stats.parked_forwards += 1;
                        st.pending_fwd.entry(page).or_default().push_back(requester);
                        None
                    }
                };
                if let Some(m) = action {
                    self.ship(ctx, requester as usize, &m);
                }
            }
            Msg::Page { page, data } => {
                {
                    let mut st = self.shared.state.lock();
                    st.owned.insert(page);
                    st.store.insert(page, data);
                    st.reserved_for_app = Some(page);
                    if st.fault_outstanding == Some(page) {
                        st.fault_outstanding = None;
                    }
                }
                self.shared.arrivals.signal(ctx.sim());
            }
        }
    }

    fn ship(&self, ctx: &mut ProcessCtx, dst: usize, msg: &Msg) {
        let vi = self.shared.mesh.lane(dst, PAGER).clone();
        send_msg(ctx, &self.shared.provider, &vi, self.send_buf, msg);
    }
}

// ---------------------------------------------------------------------
// World bring-up.
// ---------------------------------------------------------------------

impl Dsm {
    /// Populate a DSM world: on each node of `cluster` (one rank each), one
    /// application process running `body` plus one pager process. Drive
    /// the simulation with [`run_world`], not `run_to_completion` (pagers
    /// exit via a stop flag once every application returned); the caller
    /// keeps the cluster, so it can read or audit it after the run.
    pub fn spawn_world<F, R>(cluster: &Cluster, body: F) -> Vec<ProcessHandle<R>>
    where
        F: Fn(&mut ProcessCtx, Dsm) -> R + Clone + Send + 'static,
        R: Send + 'static,
    {
        let ranks = cluster.nodes();
        let finished = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        (0..ranks)
            .map(|rank| {
                let provider = cluster.provider(rank);
                let body = body.clone();
                let ranks = ranks as u32;
                let finished = Arc::clone(&finished);
                let sim = cluster.sim();
                sim.spawn(format!("dsm-app{rank}"), Some(provider.cpu()), move |ctx| {
                    let (dsm, pager) =
                        build_node(ctx, provider, rank as u32, ranks, Arc::clone(&finished));
                    let shared = Arc::clone(&dsm.shared);
                    let sim2 = ctx.sim().clone();
                    let mut pager = pager;
                    sim2.spawn(
                        format!("dsm-pager{rank}"),
                        Some(shared.provider.cpu()),
                        move |pctx| pager.run(pctx),
                    );
                    let out = body(ctx, dsm);
                    shared
                        .finished_apps
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    out
                })
            })
            .collect()
    }
}

fn build_node(
    ctx: &mut ProcessCtx,
    provider: Provider,
    rank: u32,
    ranks: u32,
    finished_apps: Arc<std::sync::atomic::AtomicUsize>,
) -> (Dsm, Pager) {
    let cq = provider
        .create_cq(ctx, (ranks as usize * RING_SLOTS * 2).max(64))
        .expect("pager cq");
    let mut mesh = Mesh::new(rank as usize, ranks as usize);
    let rings = (0..ranks as usize)
        .map(|peer| {
            if peer == rank as usize {
                return None;
            }
            let lanes = mesh
                .connect(ctx, &provider, &cq, ViAttributes::default(), peer)
                .expect("mesh bring-up");
            Some(
                [&lanes[PAGER], &lanes[APP]]
                    .map(|vi| RecvRing::post(ctx, vi, RING_SLOTS, SLOT_LEN).expect("slot post")),
            )
        })
        .collect();
    // Registered send buffers: one for the app, one for the pager.
    let app_buf = registered(ctx, &provider, SLOT_LEN);
    let pager_buf = registered(ctx, &provider, SLOT_LEN);
    // Initial ownership: each home owns its pages.
    let mut owned = HashSet::new();
    let mut directory = HashMap::new();
    for page in 0..PAGES {
        if home_of(page, ranks) == rank {
            owned.insert(page);
            directory.insert(page, rank);
        }
    }
    let shared = Arc::new(Shared {
        provider: provider.clone(),
        rank,
        ranks,
        state: provider.sim().confined(NodeState {
            owned,
            store: HashMap::new(),
            directory,
            pending_fwd: HashMap::new(),
            reserved_for_app: None,
            fault_outstanding: None,
            stats: DsmStats::default(),
        }),
        arrivals: Notify::new(provider.sim()),
        mesh,
        finished_apps,
    });
    let dsm = Dsm {
        shared: Arc::clone(&shared),
        send_buf: app_buf,
    };
    let pager = Pager {
        shared,
        cq,
        rings,
        send_buf: pager_buf,
    };
    (dsm, pager)
}

/// Drive a DSM world to completion: run until quiescent, tolerating only
/// the pager processes at their final park, then shut the simulation down.
pub fn run_world(sim: &Sim) -> simkit::RunReport {
    let report = sim.run();
    for name in &report.blocked {
        assert!(
            name.starts_with("dsm-pager"),
            "non-pager process blocked at end of world: {name}"
        );
    }
    sim.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homes_are_balanced() {
        let counts: Vec<usize> = (0..4u32)
            .map(|r| (0..64u64).filter(|&p| home_of(p, 4) == r).count())
            .collect();
        assert_eq!(counts, vec![16, 16, 16, 16]);
    }
}
