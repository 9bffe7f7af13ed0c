//! Domain scenario: an iterative stencil computation with halo exchange —
//! the archetypal distributed-memory (MPI-style) workload the paper's §5
//! has in mind — running on the workspace's own message-passing layer
//! (`mpl`), which itself runs on the `via` stack.
//!
//! A 1-D heat-diffusion stencil is partitioned across 4 ranks; every
//! iteration each rank exchanges one-cell halos with its neighbors, then
//! relaxes its interior. We verify against a single-node computation of
//! the same system and report the per-iteration communication cost.
//!
//! Run with: `cargo run --release --example halo_exchange`

use mpl::{Mpl, MplConfig};
use simkit::Sim;
use via::{Cluster, Profile};

const RANKS: usize = 4;
const CELLS_PER_RANK: usize = 256;
const ITERS: usize = 40;
const TAG_LEFT: u16 = 1;
const TAG_RIGHT: u16 = 2;

fn f2b(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn b2f(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Single-node reference: the same diffusion, no communication.
fn reference() -> Vec<f64> {
    let n = RANKS * CELLS_PER_RANK;
    let mut grid: Vec<f64> = (0..n)
        .map(|i| if i == n / 3 { 1000.0 } else { 0.0 })
        .collect();
    for _ in 0..ITERS {
        let prev = grid.clone();
        for i in 0..n {
            let left = if i == 0 { prev[0] } else { prev[i - 1] };
            let right = if i == n - 1 { prev[n - 1] } else { prev[i + 1] };
            grid[i] = prev[i] + 0.25 * (left - 2.0 * prev[i] + right);
        }
    }
    grid
}

fn main() {
    let sim = Sim::new();
    let cluster = Cluster::new(sim.clone(), Profile::clan(), RANKS, 11);
    let handles = Mpl::spawn_world(&cluster, MplConfig::default(), |ctx, mut mpl| {
        let rank = mpl.rank();
        let n = RANKS * CELLS_PER_RANK;
        let base = rank * CELLS_PER_RANK;
        // Local slab with two ghost cells.
        let mut local: Vec<f64> = (0..CELLS_PER_RANK)
            .map(|i| if base + i == n / 3 { 1000.0 } else { 0.0 })
            .collect();
        let buf = mpl.malloc(64);
        let mh = mpl.register(ctx, buf, 64);

        let t0 = ctx.now();
        let mut comm_us = 0.0;
        for _ in 0..ITERS {
            let c0 = ctx.now();
            // Exchange halos with neighbors (boundary ranks clamp).
            let mut ghost_left = local[0];
            let mut ghost_right = local[CELLS_PER_RANK - 1];
            // Send right edge to the right neighbor, receive our right
            // ghost from it; then the mirrored left exchange. Even
            // ranks send first to break symmetry.
            let exchange = |ctx: &mut simkit::ProcessCtx,
                            mpl: &mut Mpl,
                            peer: usize,
                            tag_out: u16,
                            tag_in: u16,
                            val: f64|
             -> f64 {
                let send = |ctx: &mut simkit::ProcessCtx, mpl: &mut Mpl| {
                    mpl.mem_write(buf, &val.to_le_bytes());
                    mpl.send(ctx, peer, tag_out, buf, mh, 8);
                };
                let recv = |ctx: &mut simkit::ProcessCtx, mpl: &mut Mpl| -> f64 {
                    let got = mpl.recv(ctx, peer, tag_in, buf, mh, 64);
                    assert_eq!(got, 8);
                    f64::from_le_bytes(mpl.mem_read(buf, 8).try_into().unwrap())
                };
                if mpl.rank().is_multiple_of(2) {
                    send(ctx, mpl);
                    recv(ctx, mpl)
                } else {
                    let v = recv(ctx, mpl);
                    send(ctx, mpl);
                    v
                }
            };
            if rank + 1 < RANKS {
                ghost_right = exchange(
                    ctx,
                    &mut mpl,
                    rank + 1,
                    TAG_RIGHT,
                    TAG_LEFT,
                    local[CELLS_PER_RANK - 1],
                );
            }
            if rank > 0 {
                ghost_left = exchange(ctx, &mut mpl, rank - 1, TAG_LEFT, TAG_RIGHT, local[0]);
            }
            comm_us += (ctx.now() - c0).as_micros_f64();

            // Relax the slab.
            let prev = local.clone();
            for i in 0..CELLS_PER_RANK {
                let left = if i == 0 { ghost_left } else { prev[i - 1] };
                let right = if i == CELLS_PER_RANK - 1 {
                    ghost_right
                } else {
                    prev[i + 1]
                };
                local[i] = prev[i] + 0.25 * (left - 2.0 * prev[i] + right);
            }
        }
        let total_us = (ctx.now() - t0).as_micros_f64();
        mpl.barrier(ctx);
        (f2b(&local), comm_us / ITERS as f64, total_us)
    });
    sim.run_to_completion();

    // Stitch the distributed result together and verify.
    let mut distributed = Vec::new();
    let mut per_iter_comm = 0.0;
    for h in handles {
        let (bytes, comm, _total) = h.expect_result();
        distributed.extend(b2f(&bytes));
        per_iter_comm = f64::max(per_iter_comm, comm);
    }
    let reference = reference();
    let max_err = distributed
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("1-D heat diffusion, {RANKS} ranks x {CELLS_PER_RANK} cells, {ITERS} iterations");
    println!("max |distributed - single-node| = {max_err:.3e}");
    assert!(max_err < 1e-9, "halo exchange corrupted the stencil");
    println!("halo-exchange communication: {per_iter_comm:.1} us per iteration (slowest rank)");
    println!("verified: the mpl layer's messaging is numerically transparent.");
}
