//! The harness's clock and its in-memory span recorder.
//!
//! [`Clock`] reads *service time*: wall time with the harness's own
//! bookkeeping (input generation, id confirmation, output checks) paused
//! out, so no timed interval ever includes generating the next input. It
//! also reads the process's CPU time with the same pauses taken out; the
//! ack and freshness samples use that (see [`Clock::cpu`]).
//!
//! [`Tracer`] keeps spans in memory — name, group (the cycle or probe the
//! span belongs to), parent, start, end — and writes them out when the run
//! ends. Spans come only from the harness's own calls into the library;
//! "derived" spans carry a duration read from the program's existing
//! latency histograms (search, WAL commit) and hang under the harness
//! span that contains them.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Monotonic service-time clock in nanoseconds.
#[derive(Debug)]
pub struct Clock {
    origin: Instant,
    paused_ns: u64,
    /// Wall instant and process CPU nanoseconds at the current pause.
    paused_at: Option<(Instant, u64)>,
    cpu_paused_ns: u64,
}

impl Clock {
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            paused_ns: 0,
            paused_at: None,
            cpu_paused_ns: 0,
        }
    }

    /// Service nanoseconds since the clock started.
    #[must_use]
    pub fn now(&self) -> u64 {
        let at = self.paused_at.map_or_else(Instant::now, |p| p.0);
        at.duration_since(self.origin).as_nanos() as u64 - self.paused_ns
    }

    /// CPU nanoseconds the process (all its threads) has run, pauses taken
    /// out. On a shared host the wall time of an interval also holds the
    /// time the host ran other tenants instead — a pause that lands on
    /// whichever sample it hits, so it decides the tail percentiles — while
    /// the CPU time of a closed loop whose client waits without spinning is
    /// the work the system did for the interval. Worker threads busy at
    /// once are summed, so it can exceed the interval's wall time.
    #[must_use]
    pub fn cpu(&self) -> u64 {
        self.paused_at.map_or_else(process_cpu_ns, |p| p.1) - self.cpu_paused_ns
    }

    /// Stops the clock until [`Clock::resume`].
    pub fn pause(&mut self) {
        assert!(self.paused_at.is_none(), "clock paused twice");
        self.paused_at = Some((Instant::now(), process_cpu_ns()));
    }

    pub fn resume(&mut self) {
        let (at, cpu) = self.paused_at.take().expect("clock resumed while running");
        self.paused_ns += at.elapsed().as_nanos() as u64;
        self.cpu_paused_ns += process_cpu_ns() - cpu;
    }
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process, live and exited threads together, in
/// nanoseconds.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (64-bit Linux layout) and
    // the clock id is a constant the C library accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    /// Duration taken from a program histogram rather than timed here.
    pub derived: bool,
    /// A derived span measured on worker threads: busy time inside its
    /// parent, not a sub-interval of it, so it is not subtracted from the
    /// parent's self time.
    pub busy: bool,
}

impl Span {
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// In-memory span recorder; a disabled tracer records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            spans: Vec::new(),
        }
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn open(&mut self, name: &'static str, group: u64, parent: SpanId, now: u64) -> SpanId {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            group,
            parent,
            start: now,
            end: now,
            derived: false,
            busy: false,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId, now: u64) {
        if let Some(i) = id {
            self.spans[i].end = now;
        }
    }

    /// Records a child of `parent` whose duration came from a program
    /// histogram (microseconds); it is placed at the parent's start.
    pub fn derived(&mut self, name: &'static str, parent: SpanId, us: u64, busy: bool) {
        let Some(p) = parent else { return };
        let (group, start) = (self.spans[p].group, self.spans[p].start);
        self.spans.push(Span {
            name,
            group,
            parent: Some(p),
            start,
            end: start + us * 1_000,
            derived: true,
            busy,
        });
    }

    /// Self time per span name: duration minus the time covered by
    /// non-busy children. Returns `(name, total self ns, span count)`.
    #[must_use]
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.busy) {
                child_ns[p] += s.dur();
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur().saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += 1;
                }
                None => out.push((s.name, own, 1)),
            }
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    /// Whatever the filesystem reports.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"group\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"derived\": {}, \"busy\": {}}}",
                s.name, s.group, s.start, s.end, s.derived, s.busy
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_but_not_busy_time() {
        let mut t = Tracer::new(true);
        let root = t.open("cycle", 0, None, 0);
        let apply = t.open("apply", 0, root, 100);
        t.derived("search", apply, 1, false);
        t.derived("worker", apply, 5, true);
        t.close(apply, 4_100);
        t.close(root, 10_000);
        let st = t.self_times();
        let get = |n: &str| st.iter().find(|e| e.0 == n).unwrap().1;
        assert_eq!(get("cycle"), 10_000 - 4_000);
        assert_eq!(get("apply"), 4_000 - 1_000);
        assert_eq!(get("search"), 1_000);
        assert_eq!(get("worker"), 5_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x", 0, None, 1);
        t.derived("y", s, 3, false);
        t.close(s, 2);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn paused_time_is_excluded() {
        let mut c = Clock::new();
        c.pause();
        let frozen = c.now();
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(c.now(), frozen);
        c.resume();
        assert!(c.now() >= frozen);
        assert!(c.now() < frozen + 5_000_000);
    }

    fn spin_cpu(ns: u64) {
        let t = process_cpu_ns();
        while process_cpu_ns() - t < ns {}
    }

    #[test]
    fn cpu_clock_counts_work_but_not_paused_work() {
        let mut c = Clock::new();
        let start = c.cpu();
        c.pause();
        let frozen = c.cpu();
        spin_cpu(20_000_000);
        assert_eq!(c.cpu(), frozen);
        c.resume();
        assert!(c.cpu() - start < 10_000_000);
        spin_cpu(20_000_000);
        assert!(c.cpu() - start >= 20_000_000);
    }
}
