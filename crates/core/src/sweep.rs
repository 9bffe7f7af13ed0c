//! A figure's sweep, stated once, as data.
//!
//! The paper defines every data-transfer benchmark as the §3.2.1 base
//! setup with exactly one parameter varied, reported as latency,
//! bandwidth or CPU utilization: one loop over one axis. A [`Sweep`] is
//! that loop held as a value — a panel (title and axes) over [`Curve`]s
//! over points, each point one self-contained simulation — so the loop is
//! written in one place and read two ways: [`Sweep::figure`] evaluates
//! every point on the calling thread, [`Sweep::jobs`] hands the suite
//! runner one [`Job`] per point. A point is one simulation is one job;
//! there is no per-figure decomposition left to decide, and every point
//! of every figure has a name (`{id}/{panel title}/{curve}/{x}`).
//!
//! Jobs come out curve-major, then in x order, each carrying a one-point
//! slice of the panel; [`crate::report::merge_artifacts`] keeps the first
//! slice's title and axes and appends series in order of first
//! appearance, so replaying the jobs in plan order rebuilds exactly what
//! [`Sweep::figure`] builds. No state is carried between points.

use crate::harness::{bandwidth, ping_pong, DtConfig};
use crate::report::{Figure, Series};
use crate::runner::Job;

/// The three quantities the paper reports for a data-transfer benchmark
/// (§3.2: "LAT", "BW", "CPU").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Metric {
    /// One-way latency of a ping-pong, microseconds.
    Latency,
    /// Streamed bandwidth, MB/s.
    Bandwidth,
    /// Client CPU utilization over a ping-pong, percent.
    Cpu,
}

impl Metric {
    /// The quantity as panel titles spell it.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Latency => "latency",
            Metric::Bandwidth => "bandwidth",
            Metric::Cpu => "CPU utilization",
        }
    }

    /// The y-axis label of a panel reporting this quantity.
    pub fn y_label(self) -> &'static str {
        match self {
            Metric::Latency => "one-way latency (us)",
            Metric::Bandwidth => "bandwidth (MB/s)",
            Metric::Cpu => "CPU utilization (%)",
        }
    }

    /// Run the measurement `cfg` describes and return this quantity.
    pub fn measure(self, cfg: &DtConfig) -> f64 {
        match self {
            Metric::Latency => ping_pong(cfg).latency_us,
            Metric::Bandwidth => bandwidth(cfg).mbps,
            Metric::Cpu => ping_pong(cfg).client_util * 100.0,
        }
    }
}

/// A value a sweep varies: anything that plots as a number on the x-axis.
pub trait SweepX: Copy + Send + 'static {
    /// The x coordinate.
    fn x(self) -> f64;
}

macro_rules! sweep_x {
    ($($t:ty),*) => {$(
        impl SweepX for $t {
            fn x(self) -> f64 {
                self as f64
            }
        }
    )*};
}
sweep_x!(u32, u64, usize);

/// One deferred measurement: x, and the simulation that yields y.
type Point = (f64, Box<dyn FnOnce() -> f64 + Send>);

/// One curve of a sweep: a legend name over deferred points, in x order.
pub struct Curve {
    name: String,
    points: Vec<Point>,
}

impl Curve {
    /// A curve whose point at `x` is whatever `y(x)` measures. Every
    /// point gets its own copy of `y`, so points share nothing.
    pub fn new<X: SweepX>(
        name: impl Into<String>,
        xs: &[X],
        y: impl Fn(X) -> f64 + Clone + Send + 'static,
    ) -> Curve {
        assert!(!xs.is_empty(), "a curve has at least one point");
        let points = xs
            .iter()
            .map(|&x| {
                let y = y.clone();
                (x.x(), Box::new(move || y(x)) as Box<_>)
            })
            .collect();
        Curve {
            name: name.into(),
            points,
        }
    }

    /// A curve of one of the paper's three quantities: the point at `x`
    /// is `metric` measured under `cfg(x)`.
    pub fn dt<X: SweepX>(
        name: impl Into<String>,
        xs: &[X],
        metric: Metric,
        cfg: impl Fn(X) -> DtConfig + Clone + Send + 'static,
    ) -> Curve {
        Curve::new(name, xs, move |x| metric.measure(&cfg(x)))
    }
}

/// One figure panel as data: title, axes, and the curves to measure.
pub struct Sweep {
    title: String,
    x_label: String,
    y_label: String,
    curves: Vec<Curve>,
}

impl Sweep {
    /// An empty panel.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Sweep {
        Sweep {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            curves: Vec::new(),
        }
    }

    /// Add a curve after the ones already declared.
    pub fn push(&mut self, curve: Curve) {
        self.curves.push(curve);
    }

    /// Measure every point, in order, on the calling thread.
    pub fn figure(self) -> Figure {
        let mut fig = Figure::new(self.title, self.x_label, self.y_label);
        for c in self.curves {
            let mut s = Series::new(c.name);
            for (x, y) in c.points {
                s.push(x, y());
            }
            fig.push(s);
        }
        fig
    }

    /// One [`Job`] per point, curve-major then in x order, each yielding
    /// a one-point slice of this panel for `merge_artifacts` to stitch.
    pub fn jobs(self, id: &str) -> Vec<Job> {
        let mut jobs = Vec::new();
        for c in self.curves {
            for (x, y) in c.points {
                let mut slice = Figure::new(&self.title, &self.x_label, &self.y_label);
                let name = c.name.clone();
                jobs.push(Job::new(
                    format!("{id}/{}/{}/{x}", self.title, c.name),
                    move || {
                        let mut s = Series::new(name);
                        s.push(x, y());
                        slice.push(s);
                        vec![slice.into()]
                    },
                ));
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{merge_artifacts, Artifact};

    /// Synthetic curve: y = scale * x, no simulation.
    fn line(name: &str, xs: &[u64], scale: f64) -> Curve {
        Curve::new(name, xs, move |x| scale * x as f64)
    }

    fn panel(title: &str) -> Sweep {
        let mut s = Sweep::new(title, "x, quoted", "y");
        s.push(line("A", &[1, 2, 4], 1.0));
        s.push(line("B", &[1, 2], 10.0));
        s
    }

    fn json(artifacts: Vec<Artifact>) -> Vec<String> {
        artifacts.iter().map(Artifact::to_json).collect()
    }

    #[test]
    fn jobs_in_order_merge_to_the_figure() {
        let jobs = panel("p").jobs("ID");
        let labels: Vec<&str> = jobs.iter().map(Job::label).collect();
        assert_eq!(
            labels,
            ["ID/p/A/1", "ID/p/A/2", "ID/p/A/4", "ID/p/B/1", "ID/p/B/2"],
            "curve-major, then x"
        );
        let merged = merge_artifacts(jobs.into_iter().map(Job::run));
        assert_eq!(json(merged), json(vec![panel("p").figure().into()]));
    }

    #[test]
    fn curves_keep_declaration_order_when_a_later_one_is_shorter() {
        let fig = panel("p").figure();
        let names: Vec<&str> = fig.series.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["A", "B"]);
        assert_eq!(fig.series[0].points, [(1.0, 1.0), (2.0, 2.0), (4.0, 4.0)]);
        assert_eq!(fig.series[1].points, [(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(
            (fig.x_label.as_str(), fig.y_label.as_str()),
            ("x, quoted", "y")
        );
    }

    #[test]
    fn two_sweeps_in_one_plan_keep_first_appearance_order() {
        // The X-MTU shape: one plan, two panels, sweep by sweep.
        let plan: Vec<Job> = ["latency", "bandwidth"]
            .into_iter()
            .flat_map(|t| panel(t).jobs("X"))
            .collect();
        assert_eq!(plan.len(), 10);
        let merged = merge_artifacts(plan.into_iter().map(Job::run));
        let want = ["latency", "bandwidth"].map(|t| panel(t).figure().into());
        assert_eq!(json(merged), json(want.into()));
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn an_empty_curve_is_a_plan_bug() {
        line("A", &[], 1.0);
    }
}
