//! Shared plumbing for the paper-artifact bench targets.
//!
//! Each `cargo bench -p vibe-bench --bench <target>` regenerates one table
//! or figure of the paper as text (and notes the paper's reference values
//! where it reports any). The *simulator's* own host-time performance is
//! measured by the standalone `perfbench/` crate.

/// Print a bench-target banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("================================================================");
    println!("VIBe reproduction — {id}: {title}");
    println!("================================================================");
}

/// Run a registered suite experiment by id and print its artifact.
pub fn run_experiment(id: &str) {
    let exp = vibe::suite::find(id).unwrap_or_else(|| panic!("unknown experiment {id}"));
    banner(exp.id, exp.title);
    let t0 = std::time::Instant::now();
    let text = exp.run_text();
    println!("{text}");
    println!(
        "[regenerated in {:.2}s wall-clock]",
        t0.elapsed().as_secs_f64()
    );
}
