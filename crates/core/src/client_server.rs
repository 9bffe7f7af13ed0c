//! Programming-model micro-benchmark: the client-server transaction test
//! (§3.3.1). A client sends a fixed-size request and waits for the whole
//! reply before issuing the next request; two distinct buffers are used.
//! The transactions/second figure relates to the RPC/method-call rate a
//! single VI connection can sustain. Reproduces Fig. 7.

use via::Profile;

use crate::harness::{transactions, DtConfig};
use crate::sweep::{Curve, Sweep};

/// The request sizes Fig. 7 plots.
pub fn request_sizes() -> Vec<u64> {
    vec![16, 256]
}

/// The reply sizes Fig. 7 sweeps.
pub fn reply_sizes() -> Vec<u64> {
    vec![4, 16, 64, 256, 1024, 4096, 12288, 20480, 28672]
}

/// Transactions/second vs. reply size; one curve per (profile, request
/// size), profile-major, named like the paper's legend ("clan 16",
/// "bvia 256", …).
pub fn transaction_sweep(profiles: &[Profile], requests: &[u64], replies: &[u64]) -> Sweep {
    let mut sweep = Sweep::new(
        "Client/server transactions per second (Fig 7)",
        "response bytes",
        "transactions/s",
    );
    for p in profiles {
        for &req in requests {
            let profile = p.clone();
            sweep.push(Curve::new(
                format!("{} {}", p.name.to_lowercase(), req),
                replies,
                move |rep| {
                    let cfg = DtConfig {
                        iters: 40,
                        ..DtConfig::base(profile.clone(), rep)
                    };
                    transactions(&cfg, req, rep)
                },
            ));
        }
    }
    sweep
}
