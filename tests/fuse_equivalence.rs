//! The fused-fast-path equivalence property: for randomized worlds —
//! profile, loss model, fault plan, reliability level,
//! message-size mix — a run with fusing enabled must be *byte-identical*
//! to the same run with `VIBE_FUSE=0` in everything virtual-time-derived:
//! per-node completion timelines, provider protocol counters, and the
//! logical scheduler census (fired / cancelled / dead-popped, per class —
//! elided hops are credited back to `fired`, so the totals must not move
//! by even one event).
//!
//! This is the randomized generalization of CI's `VIBE_FUSE=0` golden
//! leg: the goldens pin a handful of fixed workloads, this sweeps worlds
//! the suite never runs — including ones where every guard *passes* (the
//! interesting case) and ones where loss/faults force full fallback (the
//! knob-leak regression case).

use vibe_suite::fabric::FaultPlan;
use vibe_suite::simkit::{SchedStats, Sim, SimDuration, SimRng, SimTime, WaitMode};
use vibe_suite::via::{
    self, Cluster, Descriptor, Discriminator, MemAttributes, Profile, Reliability, ViAttributes,
};

/// Everything virtual-time-derived a run produces, rendered to a string
/// so divergence is a byte-diff, exactly like the committed goldens.
fn render_outcome(lines: &[String]) -> String {
    lines.join("\n")
}

/// One randomized world: run the workload and return (rendered outcome,
/// scheduler stats).
fn run_world(case: u64, fused: bool) -> (String, SchedStats) {
    via::fastpath::set_fuse(fused);
    let mut rng = SimRng::derive(0xF05E, &format!("fuse-prop-{case}"));
    let profile_pick = rng.below(3);
    let mut profile = match profile_pick {
        0 => Profile::mvia(),
        1 => Profile::bvia(),
        _ => Profile::clan(),
    };
    // Lossy worlds need retransmission for the ping-pong to terminate, so
    // a profile whose only level is Unreliable (bVIA) stays lossless.
    let reliable_levels: Vec<Reliability> = profile
        .reliability_levels
        .iter()
        .copied()
        .filter(|&r| r != Reliability::Unreliable)
        .collect();
    let lossy = !reliable_levels.is_empty() && rng.chance(0.35);
    if lossy {
        profile.net = profile.net.with_loss(0.03 + rng.unit() * 0.05);
    }
    let faulted = rng.chance(0.35);
    let reliability = if lossy {
        reliable_levels[rng.below(reliable_levels.len() as u64) as usize]
    } else {
        profile.reliability_levels[rng.below(profile.reliability_levels.len() as u64) as usize]
    };
    let iters = 3 + rng.below(4) as usize;
    // Sizes straddle the single-fragment guard: small ones fuse (on the
    // offload profile), large ones must fall back to fragmentation.
    let sizes: Vec<u32> = (0..iters)
        .map(|_| [4u32, 64, 1024, 3000, 9000][rng.below(5) as usize])
        .collect();

    let nodes = 2usize;
    let cluster = Cluster::new(Sim::new(), profile, nodes, case);
    if faulted {
        // Latency-only degrade windows (zero drop fraction): behaviourally
        // mild — no VI is killed, the ping-pong always terminates — but
        // `faults_installed` holds, so every fuse attempt must fall back.
        let mut plan = FaultPlan::new();
        for w in 0..1 + rng.below(3) {
            plan = plan.degrade(
                vibe_suite::fabric::NodeId(rng.below(nodes as u64) as u32),
                SimTime::ZERO + SimDuration::from_micros(5 + 40 * w),
                SimDuration::from_micros(10 + rng.below(60)),
                SimDuration::from_nanos(rng.below(900)),
                0.0,
            );
        }
        cluster.san().install_faults(&plan);
    }

    let attrs = ViAttributes::reliable(reliability);
    let (pa, pb) = (cluster.provider(0), cluster.provider(1));
    let max = *sizes.iter().max().unwrap() as u64;
    let sh = {
        let pb = pb.clone();
        let sizes = sizes.clone();
        cluster.sim().spawn("server", Some(pb.cpu()), move |ctx| {
            let vi = pb.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pb.malloc(max);
            let mh = pb
                .register_mem(ctx, buf, max, MemAttributes::default())
                .unwrap();
            pb.accept(ctx, &vi, Discriminator(1)).unwrap();
            let mut log = Vec::new();
            for &sz in &sizes {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, sz))
                    .unwrap();
                let rc = vi.recv_wait(ctx, WaitMode::Poll);
                log.push(format!(
                    "s-recv {} {} {:?}",
                    ctx.now().as_nanos(),
                    rc.length,
                    rc.status
                ));
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, sz))
                    .unwrap();
                let sc = vi.send_wait(ctx, WaitMode::Poll);
                log.push(format!(
                    "s-send {} {} {:?}",
                    ctx.now().as_nanos(),
                    sc.length,
                    sc.status
                ));
            }
            log
        })
    };
    let ch = {
        let pa = pa.clone();
        cluster.sim().spawn("client", Some(pa.cpu()), move |ctx| {
            let vi = pa.create_vi(ctx, attrs, None, None).unwrap();
            let buf = pa.malloc(max);
            let mh = pa
                .register_mem(ctx, buf, max, MemAttributes::default())
                .unwrap();
            pa.connect(
                ctx,
                &vi,
                vibe_suite::fabric::NodeId(1),
                Discriminator(1),
                None,
            )
            .unwrap();
            let mut log = Vec::new();
            for &sz in &sizes {
                vi.post_recv(ctx, Descriptor::recv().segment(buf, mh, sz))
                    .unwrap();
                vi.post_send(ctx, Descriptor::send().segment(buf, mh, sz))
                    .unwrap();
                let sc = vi.send_wait(ctx, WaitMode::Poll);
                log.push(format!(
                    "c-send {} {} {:?}",
                    ctx.now().as_nanos(),
                    sc.length,
                    sc.status
                ));
                let rc = vi.recv_wait(ctx, WaitMode::Poll);
                log.push(format!(
                    "c-recv {} {} {:?}",
                    ctx.now().as_nanos(),
                    rc.length,
                    rc.status
                ));
            }
            log
        })
    };
    let sched = cluster.sim().run_to_completion().sched;

    let mut lines = Vec::new();
    lines.extend(sh.expect_result());
    lines.extend(ch.expect_result());
    let audit = cluster.audit();
    assert!(
        audit.is_clean(),
        "case {case} fused={fused}: audit violations: {:?}",
        audit.violations
    );
    for (name, p) in [("a", &pa), ("b", &pb)] {
        let st = p.stats();
        lines.push(format!(
            "{name}: sent={} delivered={} acks={} retx={} dup={}",
            st.msgs_sent,
            st.msgs_delivered,
            st.acks_sent,
            st.retransmissions,
            st.duplicates_dropped
        ));
    }
    (render_outcome(&lines), sched)
}

/// Compare only the *logical* census fields: `fired` counts elided hops
/// too (that is the fused-path contract), while `events_elided`,
/// `macro_events`, and the fuse ledger legitimately differ between the
/// two runs — whole-struct equality would be a bug here.
fn assert_census_equal(case: u64, fused: &SchedStats, general: &SchedStats) {
    let ctx = format!("case {case}");
    assert_eq!(fused.fired, general.fired, "{ctx}: fired census moved");
    assert_eq!(fused.cancelled, general.cancelled, "{ctx}: cancelled moved");
    assert_eq!(
        fused.dead_popped, general.dead_popped,
        "{ctx}: dead_popped moved"
    );
    for (class, tally) in fused.classes() {
        assert_eq!(
            tally,
            general.class(class),
            "{ctx}: class {class:?} tally moved"
        );
    }
    assert!(
        fused.events_elided >= general.events_elided,
        "{ctx}: general path elided more than fused?"
    );
}

#[test]
fn random_worlds_fused_equals_general() {
    for case in 0..10u64 {
        let (out_fused, sched_fused) = run_world(case, true);
        let (out_general, sched_general) = run_world(case, false);
        assert_eq!(
            out_fused, out_general,
            "case {case}: fused outcome diverged from general"
        );
        assert_census_equal(case, &sched_fused, &sched_general);
    }
    via::fastpath::set_fuse(true);
}

/// Reproducer for a divergence the property above does not reach: outside
/// the experiments CI's `VIBE_FUSE=0` leg has always diffed, the fused
/// path is not timeline-neutral. F5's bandwidth panel at 25/50/75 %
/// buffer reuse (4–256 B; e.g. 50 % / 4 B reads 0.21227 MB/s fused,
/// 0.21494 general) and F6's BVIA bandwidth panel at 4–32 VIs (≤ 256 B,
/// and 32 VIs / 28 KiB) differ by up to 1.3 %, deterministically. The
/// committed `f5.json` / `f6.json` pin the default (fused) bytes. Flips
/// the process-global fuse knob, so run it alone:
/// `cargo test --test fuse_equivalence -- --ignored`.
#[test]
#[ignore = "fused path diverges on F5/F6 small-message bandwidth; ROADMAP item 1"]
fn f5_f6_render_identically_fused_and_general() {
    use vibe_suite::vibe::suite::find;
    for id in ["F5", "F6"] {
        let e = find(id).unwrap();
        via::fastpath::set_fuse(true);
        let fused = e.run_json();
        via::fastpath::set_fuse(false);
        let general = e.run_json();
        via::fastpath::set_fuse(true);
        assert!(fused == general, "{id}: VIBE_FUSE=0 changes the artifact");
    }
}
