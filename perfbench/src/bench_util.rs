//! Helpers shared by the workloads, the probes and the command line:
//! CPU pinning, `getrusage` deltas, order statistics, an in-memory span
//! recorder with self-time, the metric-name rule, a content digest and a
//! small JSON value (writer and parser). No crate dependencies: the two
//! libc calls are declared `extern "C"` (std already links libc).

use std::fmt::Write as _;
use std::time::Instant;

// ---------------------------------------------------------------------
// CPU affinity
// ---------------------------------------------------------------------

/// A Linux `cpu_set_t` (1024 bits).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
#[repr(transparent)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    /// Lowest CPU in the set.
    pub fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The set holding only `cpu`.
    pub fn single(cpu: usize) -> CpuSet {
        let mut s = CpuSet::default();
        s.0[cpu / 64] = 1 << (cpu % 64);
        s
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get_affinity() -> Option<CpuSet> {
        let mut set = CpuSet::default();
        // SAFETY: `set` is a valid, writable 128-byte buffer and the size
        // passed is exactly its size; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set_affinity(set: &CpuSet) -> bool {
        // SAFETY: `set` points to a valid 128-byte mask of the size passed;
        // the kernel only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;
    pub fn get_affinity() -> Option<CpuSet> {
        None
    }
    pub fn set_affinity(_: &CpuSet) -> bool {
        false
    }
}

/// The calling thread's allowed CPUs (`None` where the platform has no
/// affinity call).
pub fn allowed_cpus() -> Option<CpuSet> {
    sys::get_affinity()
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to `set`. Returns whether the kernel accepted it.
pub fn set_allowed_cpus(set: &CpuSet) -> bool {
    sys::set_affinity(set)
}

/// Pin the calling thread to the first CPU of its allowed set. Returns
/// the original set (to widen again for one probe) and the CPU chosen.
///
/// The simulator's per-process OS threads are never runnable concurrently
/// (baton protocol), so a second core buys nothing and every hand-off
/// becomes a cross-core wake-up: unpinned walls measure the host
/// scheduler, not the program.
pub fn pin_to_first_cpu() -> Option<(CpuSet, usize)> {
    let all = allowed_cpus()?;
    let cpu = all.first()?;
    set_allowed_cpus(&CpuSet::single(cpu)).then_some((all, cpu))
}

// ---------------------------------------------------------------------
// getrusage
// ---------------------------------------------------------------------

/// Process resource usage since start (`RUSAGE_SELF`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set, KiB (a process-wide high-water mark).
    pub maxrss_kib: u64,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches (the noise flag).
    pub ivcsw: u64,
}

impl Usage {
    /// Read the current totals. All-zero where `getrusage` is unavailable.
    pub fn now() -> Usage {
        read_rusage()
    }

    /// Counters accumulated since `earlier`; `maxrss_kib` keeps the later
    /// reading (it is a high-water mark, not a sum).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            maxrss_kib: self.maxrss_kib,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }

    /// User + system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn read_rusage() -> Usage {
    #[repr(C)]
    #[derive(Default)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    struct RUsage {
        utime: TimeVal,
        stime: TimeVal,
        maxrss: i64,
        ixrss: i64,
        idrss: i64,
        isrss: i64,
        minflt: i64,
        majflt: i64,
        nswap: i64,
        inblock: i64,
        oublock: i64,
        msgsnd: i64,
        msgrcv: i64,
        nsignals: i64,
        nvcsw: i64,
        nivcsw: i64,
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` with the 64-bit
    // Linux layout declared above; the kernel fills it and keeps no pointer.
    if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
        return Usage::default();
    }
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
        maxrss_kib: ru.maxrss.max(0) as u64,
        vcsw: ru.nvcsw.max(0) as u64,
        ivcsw: ru.nivcsw.max(0) as u64,
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn read_rusage() -> Usage {
    Usage::default()
}

/// Peak resident set of this program, KiB: `VmHWM` from
/// `/proc/self/status` where it exists, else `ru_maxrss`. `ru_maxrss`
/// alone is not enough: it survives `execve`, so a process started by
/// `cargo run` reads at least cargo's own resident set at the fork.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| Usage::now().maxrss_kib)
}

/// 1-, 5- and 15-minute load averages, when `/proc/loadavg` exists.
pub fn load_average() -> Option<[f64; 3]> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|t| t.parse::<f64>().ok());
    Some([it.next()??, it.next()??, it.next()??])
}

// ---------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------

/// Median, extremes and count of a small sample. With 3 to ~15 samples no
/// percentile beyond the median is meaningful; none is reported.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Median (mean of the two middle values for an even count).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// The samples, in the order taken.
    pub samples: Vec<f64>,
}

impl Summary {
    /// Summarize `samples` (must be non-empty).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Summary {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            samples: samples.to_vec(),
        }
    }

    /// Distance between the first and third quartile (Python's
    /// `statistics.quantiles(samples, n=4)`, the driver's rule), as a share
    /// of the median. With fewer than four samples: `(max - min) / median`.
    pub fn quartile_spread(&self) -> f64 {
        let m = self.samples.len();
        if m < 4 || self.median == 0.0 {
            return self.spread();
        }
        let mut d = self.samples.clone();
        d.sort_by(f64::total_cmp);
        let quartile = |i: usize| {
            let j = (i * (m + 1) / 4).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
            (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
        };
        (quartile(3) - quartile(1)) / self.median.abs()
    }

    /// `(max - min) / median`: the run's own spread.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-boundary name (`rep`, `leg[clan/poll]`, `simulate`, …).
    pub name: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// `end - start`, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Disabled recorders (every untraced run) cost
/// one branch per call and record nothing.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Spans {
    /// A recorder; `enabled == false` turns every call into a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Tag subsequently opened spans with repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: impl Into<String>) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close open spans until only `depth` remain (after a caught panic
    /// skipped their `exit`).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Record an already-measured interval as a closed child of the
    /// innermost open span (for timings a layer reports itself, such as
    /// `SuiteRun.experiments[i].wall`). `start_ns` is relative to the
    /// recorder's creation.
    pub fn record(&mut self, name: impl Into<String>, start_ns: u64, duration_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// All spans, in start order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the duration of its direct children.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Chrome-trace ("Trace Event Format") JSON: one complete (`"ph":"X"`)
    /// event per span, `tid` = repetition, `args` carrying the parent index
    /// and self time. Loads in `chrome://tracing` and Perfetto.
    pub fn chrome_trace_json(&self, process_name: &str) -> String {
        let mut events = vec![Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("args", Json::obj([("name", Json::str(process_name))])),
        ])];
        for (id, s) in self.spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(&s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.rep as f64)),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("rep", Json::Num(s.rep as f64)),
                        ("self_us", Json::Num(self.self_time_ns(id) as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
        Json::obj([("traceEvents", Json::Arr(events))]).to_string()
    }
}

// ---------------------------------------------------------------------
// Names and digests
// ---------------------------------------------------------------------

/// The metric/workload name rule of `BENCHMARK.json`: 1–64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit rule of `BENCHMARK.json`: 1–16 characters of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// FNV-1a over `text`, as 16 hex digits. Digests fingerprint a leg's
/// simulated results through their `Debug` rendering, which prints floats
/// with shortest round-trip digits — equal digests mean bit-equal results.
pub fn digest(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value. Objects keep insertion order so documents diff cleanly.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers print without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// String value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Array of numbers.
    pub fn nums(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Object members.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(v)
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                // `{}` prints the shortest digits that round-trip, and
                // whole numbers without a fraction.
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_json_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact, single-line rendering.
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Nesting beyond this is refused: the documents this reads are four or
/// five levels deep, and the input comes from outside the program.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b'}')?;
                    return Ok(Json::Obj(pairs));
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    self.expect(b']')?;
                    return Ok(Json::Arr(items));
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.pos));
        }
        self.pos += 1;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?,
            );
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    // Backslash escape.
                    let esc = *self
                        .bytes
                        .get(self.pos + 1)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_self_time_is_duration_minus_direct_children() {
        let mut s = Spans::new(true);
        // Hand-built intervals so the arithmetic is exact:
        //   rep      [0, 1000)
        //     leg    [100, 700)
        //       sim  [200, 500)
        //     render [700, 900)
        s.spans = vec![
            Span {
                name: "rep".into(),
                start_ns: 0,
                end_ns: 1000,
                parent: None,
                rep: 0,
            },
            Span {
                name: "leg".into(),
                start_ns: 100,
                end_ns: 700,
                parent: Some(0),
                rep: 0,
            },
            Span {
                name: "sim".into(),
                start_ns: 200,
                end_ns: 500,
                parent: Some(1),
                rep: 0,
            },
            Span {
                name: "render".into(),
                start_ns: 700,
                end_ns: 900,
                parent: Some(0),
                rep: 0,
            },
        ];
        assert_eq!(s.self_time_ns(0), 1000 - 600 - 200);
        assert_eq!(s.self_time_ns(1), 600 - 300);
        assert_eq!(s.self_time_ns(2), 300);
        assert_eq!(s.self_time_ns(3), 200);
        // Self times of a tree sum to the root's duration.
        let total: u64 = (0..4).map(|i| s.self_time_ns(i)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn spans_nest_by_enter_order_and_disabled_records_nothing() {
        let mut s = Spans::new(true);
        s.set_rep(3);
        s.enter("rep");
        s.enter("leg");
        s.enter("simulate");
        s.exit();
        s.exit();
        s.record("exp[T1]", 5, 7);
        s.exit();
        let names: Vec<_> = s.spans().iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["rep", "leg", "simulate", "exp[T1]"]);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[2].parent, Some(1));
        assert_eq!(s.spans()[3].parent, Some(0));
        assert!(s.spans().iter().all(|x| x.rep == 3));
        assert!(s.spans().iter().all(|x| x.end_ns >= x.start_ns));
        let doc = Json::parse(&s.chrome_trace_json("t")).expect("valid JSON");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 5);

        let mut off = Spans::new(false);
        off.enter("rep");
        off.record("x", 0, 1);
        off.exit();
        assert!(off.spans().is_empty());
    }

    #[test]
    fn rusage_is_monotonic() {
        let a = Usage::now();
        // Burn a little CPU and force a voluntary switch.
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = Usage::now();
        let d = b.since(&a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0, "{d:?}");
        assert!(b.maxrss_kib >= a.maxrss_kib);
        assert!(b.vcsw >= a.vcsw && b.ivcsw >= a.ivcsw);
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(b.maxrss_kib > 0, "ru_maxrss should be populated");
            assert!(d.vcsw >= 1, "the sleep is a voluntary switch: {d:?}");
        }
    }

    #[test]
    fn peak_rss_is_positive_and_never_shrinks() {
        let a = peak_rss_kib();
        let ballast = vec![1u8; 8 << 20];
        std::hint::black_box(&ballast);
        let b = peak_rss_kib();
        assert!(a > 0 && b >= a, "{a} -> {b}");
    }

    #[test]
    fn pinning_narrows_to_one_allowed_cpu_and_can_be_widened_again() {
        let Some(before) = allowed_cpus() else { return };
        // Run on a scratch thread: affinity is per-thread, so the test
        // harness's other threads stay untouched.
        std::thread::spawn(move || {
            let (all, cpu) = pin_to_first_cpu().expect("pin");
            assert_eq!(all, before);
            assert_eq!(Some(cpu), before.first());
            assert_eq!(allowed_cpus().unwrap(), CpuSet::single(cpu));
            assert!(set_allowed_cpus(&all));
            assert_eq!(allowed_cpus().unwrap(), before);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn summary_median_min_max() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max), (2.0, 1.0, 3.0));
        assert_eq!(s.spread(), 1.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((Summary::of(&ten).quartile_spread() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert!((Summary::of(&[8.0, 1.0, 4.0, 2.0]).quartile_spread() - 5.75 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn name_and_unit_rules() {
        for ok in [
            "wall_s",
            "simkit.engine.class.user.busy_s",
            "core.suite.exp.X-ASY.wall_s",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".hidden", "has space", "slash/name", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "1/s", "MiB", "%", "count", "ns/event"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "events per s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn json_round_trips() {
        let doc = Json::obj([
            ("a", Json::Num(1.0)),
            ("b", Json::Num(0.1 + 0.2)),
            ("s", Json::str("q\"\\\n\u{1}é")),
            (
                "l",
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(true),
                    Json::nums(&[1.5, -2e-9]),
                ]),
            ),
            ("o", Json::obj([("k", Json::Obj(vec![]))])),
        ]);
        let text = doc.to_string();
        assert!(
            text.starts_with("{\"a\":1,\"b\":0.30000000000000004,"),
            "{text}"
        );
        assert!(!text.contains('\n'));
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert_eq!(
            Json::parse(" { \"x\" : [ 1 , 2 ] } ")
                .unwrap()
                .get("x")
                .unwrap()
                .as_arr()
                .unwrap()
                .len(),
            2
        );
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "1 2", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        assert!(Json::parse(&"[".repeat(100)).is_err());
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        assert_eq!(digest(""), "cbf29ce484222325");
        assert_eq!(digest("a"), "af63dc4c8601ec8c");
        assert_ne!(digest("1.25"), digest("1.250000001"));
    }
}
