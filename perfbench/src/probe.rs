//! A measuring [`Transport`] decorator, owned by the benchmark.
//!
//! [`Probe`] wraps one endpoint of a mesh at one layer of the transport
//! stack — outermost, where the engine sees it, or innermost, directly on
//! the TCP socket transport — and forwards every call unchanged. What it
//! records lives in a shared [`ProbeLog`] the benchmark reads after the
//! run has consumed the endpoints:
//!
//! * always: when the rank first called [`Transport::flush`] (the engine
//!   flushes once its iteration loop is done), which times a rank's work
//!   without the reliability layer's teardown linger;
//! * when tracing: call counts, payload bytes (`Message::payload_len`),
//!   time spent in `send`, time blocked in `recv`/`recv_timeout`/
//!   `try_recv`, and one span per call with the enclosing outer call as
//!   its parent.
//!
//! Spans stay in memory until the benchmark writes them out once, at the
//! end, as Chrome trace JSON.

use janus_comm::liveness::DeathHandle;
use janus_comm::tcp::TcpTransport;
use janus_comm::{CommError, Message, Transport, TransportStats};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans kept per run; calls beyond the cap are still counted and timed.
const SPAN_CAP: usize = 400_000;

thread_local! {
    /// Id of the outer-layer call in flight on this thread (0 = none):
    /// the parent of any inner-layer call it makes.
    static OPEN_CALL: Cell<u64> = const { Cell::new(0) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh span id, unique within the process.
pub fn next_span_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Which stack position a probe sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Outermost: the endpoint the engine calls.
    Outer,
    /// Innermost: directly on the socket transport.
    Tcp,
}

impl Layer {
    /// The layer's name in traces and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Outer => "comm",
            Layer::Tcp => "comm.tcp",
        }
    }
}

/// One recorded transport call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call id, unique within the process (1-based).
    pub id: u64,
    /// Enclosing outer call, 0 for an outer call.
    pub parent: u64,
    /// The call: `send`, `recv`, `recv_timeout`, `try_recv`, or the name
    /// of a benchmark-timed call into a non-transport layer.
    pub op: &'static str,
    /// Layer (module) the call went into: `comm`, `comm.tcp`, `exec`, ...
    pub layer: &'static str,
    /// Endpoint rank.
    pub rank: usize,
    /// Start and end, relative to the run origin.
    pub start: Duration,
    /// See `start`.
    pub end: Duration,
}

/// Counters of one probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// `send` calls.
    pub send_calls: u64,
    /// Payload bytes handed to `send`.
    pub send_bytes: u64,
    /// Time inside `send`.
    pub send: Duration,
    /// `recv` / `recv_timeout` / `try_recv` calls.
    pub recv_calls: u64,
    /// Time blocked inside the receive calls.
    pub recv_wait: Duration,
}

impl Counts {
    /// Field-wise accumulate.
    pub fn add(&mut self, o: &Counts) {
        self.send_calls += o.send_calls;
        self.send_bytes += o.send_bytes;
        self.send += o.send;
        self.recv_calls += o.recv_calls;
        self.recv_wait += o.recv_wait;
    }

    /// Time inside any transport call.
    pub fn busy(&self) -> Duration {
        self.send + self.recv_wait
    }
}

/// What every probe of one run writes into, shared with the benchmark.
pub struct ProbeLog {
    origin: Instant,
    trace: bool,
    inner: Mutex<LogData>,
}

#[derive(Default)]
struct LogData {
    counts: Vec<[Counts; 2]>,
    flushed_at: Vec<Option<Instant>>,
    spans: Vec<Span>,
    dropped_spans: u64,
}

impl ProbeLog {
    /// A log for a `world`-rank mesh; spans and counters are recorded
    /// only when `trace` is set.
    pub fn new(world: usize, trace: bool, origin: Instant) -> Arc<ProbeLog> {
        Arc::new(ProbeLog {
            origin,
            trace,
            inner: Mutex::new(LogData {
                counts: vec![[Counts::default(); 2]; world],
                flushed_at: vec![None; world],
                ..LogData::default()
            }),
        })
    }

    /// Counters of `rank` at `layer`.
    pub fn counts(&self, rank: usize, layer: Layer) -> Counts {
        self.inner.lock().unwrap().counts[rank][layer as usize]
    }

    /// When `rank` first flushed its endpoint, if it has.
    pub fn flushed_at(&self, rank: usize) -> Option<Instant> {
        self.inner.lock().unwrap().flushed_at[rank]
    }

    /// Take the recorded spans and the number dropped past the cap.
    pub fn take_spans(&self) -> (Vec<Span>, u64) {
        let mut d = self.inner.lock().unwrap();
        (std::mem::take(&mut d.spans), d.dropped_spans)
    }

    /// Count one call (and keep its span). Inner-layer calls made after
    /// the rank started flushing are teardown, not work, and are skipped.
    fn record(&self, rank: usize, layer: Layer, span: Span, f: impl FnOnce(&mut Counts)) {
        let mut d = self.inner.lock().unwrap();
        if layer == Layer::Tcp && d.flushed_at[rank].is_some() {
            return;
        }
        f(&mut d.counts[rank][layer as usize]);
        if d.spans.len() < SPAN_CAP {
            d.spans.push(span);
        } else {
            d.dropped_spans += 1;
        }
    }
}

/// The decorator. See the module docs.
pub struct Probe<T: Transport> {
    inner: T,
    layer: Layer,
    log: Arc<ProbeLog>,
    on_drop: Option<fn(&T)>,
}

impl<T: Transport> Probe<T> {
    /// Wrap `inner` at `layer`, recording into `log`.
    pub fn new(inner: T, layer: Layer, log: Arc<ProbeLog>) -> Self {
        Probe {
            inner,
            layer,
            log,
            on_drop: None,
        }
    }

    /// Run one forwarded call, timing it and attributing it to `op`.
    fn call<R>(
        &self,
        op: &'static str,
        f: impl FnOnce(&T) -> R,
        count: impl FnOnce(&mut Counts, Duration),
    ) -> R {
        if !self.log.trace {
            return f(&self.inner);
        }
        let id = next_span_id();
        let parent = OPEN_CALL.with(|c| c.get());
        if self.layer == Layer::Outer {
            OPEN_CALL.with(|c| c.set(id));
        }
        let start = Instant::now();
        let out = f(&self.inner);
        let end = Instant::now();
        if self.layer == Layer::Outer {
            OPEN_CALL.with(|c| c.set(0));
        }
        let span = Span {
            id,
            parent: if self.layer == Layer::Outer {
                0
            } else {
                parent
            },
            op,
            layer: self.layer.name(),
            rank: self.inner.rank(),
            start: start - self.log.origin,
            end: end - self.log.origin,
        };
        self.log.record(self.inner.rank(), self.layer, span, |c| {
            count(c, end - start)
        });
        out
    }
}

impl Probe<TcpTransport> {
    /// Wrap a socket endpoint at [`Layer::Tcp`]. When the engine drops
    /// the endpoint, the probe closes it: the engines never call
    /// `TcpTransport::close`, and an unclosed endpoint leaves its peers'
    /// socket reader threads blocked for the life of the process, so a
    /// benchmark building one mesh after another would pile them up.
    pub fn tcp(inner: TcpTransport, log: Arc<ProbeLog>) -> Self {
        let mut probe = Probe::new(inner, Layer::Tcp, log);
        probe.on_drop = Some(TcpTransport::close);
        probe
    }
}

impl<T: Transport> Drop for Probe<T> {
    fn drop(&mut self) {
        if let Some(close) = self.on_drop {
            close(&self.inner);
        }
    }
}

impl<T: Transport> Transport for Probe<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CommError> {
        let bytes = msg.payload_len() as u64;
        self.call(
            "send",
            |t| t.send(to, msg),
            |c, d| {
                c.send_calls += 1;
                c.send_bytes += bytes;
                c.send += d;
            },
        )
    }

    fn recv(&self) -> Result<(usize, Message), CommError> {
        self.call("recv", |t| t.recv(), recv_count)
    }

    fn try_recv(&self) -> Result<Option<(usize, Message)>, CommError> {
        self.call("try_recv", |t| t.try_recv(), recv_count)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<(usize, Message)>, CommError> {
        self.call("recv_timeout", |t| t.recv_timeout(timeout), recv_count)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn flush(&self) -> Result<(), CommError> {
        if self.layer == Layer::Outer {
            let mut d = self.log.inner.lock().unwrap();
            let slot = &mut d.flushed_at[self.inner.rank()];
            slot.get_or_insert_with(Instant::now);
        }
        self.inner.flush()
    }

    fn death_handle(&self) -> DeathHandle {
        self.inner.death_handle()
    }

    fn acknowledge_dead(&self, rank: usize) {
        self.inner.acknowledge_dead(rank)
    }
}

fn recv_count(c: &mut Counts, d: Duration) {
    c.recv_calls += 1;
    c.recv_wait += d;
}

/// Spans as Chrome trace JSON: one process per rank, one thread lane
/// per layer, call ids and parents in the category string.
pub fn chrome_trace(spans: &[Span]) -> String {
    let events: Vec<janus_obs::TraceEvent> = spans
        .iter()
        .map(|s| janus_obs::TraceEvent {
            name: s.op.to_string(),
            cat: format!("id={} parent={}", s.id, s.parent),
            pid: s.rank as u32,
            tid: s.layer.to_string(),
            ts_us: s.start.as_secs_f64() * 1e6,
            dur_us: (s.end - s.start).as_secs_f64() * 1e6,
        })
        .collect();
    janus_obs::chrome_trace(&events)
}
