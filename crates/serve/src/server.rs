//! Blocking TCP server: one acceptor, one thread per connection, and a
//! sampler. A request never leaves its connection's thread: the thread
//! parses the frame, consults the plan cache, passes admission, takes one
//! of `workers` execution slots, runs the query and writes the rows.
//!
//! The expensive resource — query execution over the buffer pool — stays
//! bounded by `workers` regardless of how many clients connect (a query
//! executes only while holding a slot), while admission control bounds
//! how many requests may *wait* for a slot. An idle connection is a thread
//! blocked in `read`; it holds no snapshot, no slot and no pages.
//!
//! Each query executes against a fresh snapshot pinned for just that
//! query, so a long-lived server never pins old writer epochs (see the
//! reader-lifetime tests in `uindex` and `btree`).
//!
//! Shutdown protocol: set the stop flag, wake every blocked thread — the
//! sampler through its condvar, the acceptor with a throw-away connect,
//! each connection with `shutdown(Read)` on its socket — and join them. A
//! connection busy with a request finishes and answers it first, so every
//! admitted query is answered.
//!
//! Counting: the acceptor and every connection thread join one
//! [`telemetry::Group`] and count into their own registries, which the
//! group reads live. `Stats` replies, the sampler, [`Server::metrics`] and
//! the final [`ServeReport`] all read that one sum, so a counter adds up
//! exactly as if the whole run were single-threaded, and nothing is folded
//! per request.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pagestore::PageStore;
use telemetry::{Counter, Histogram, Span};
use uindex::{DatabaseReader, ScanStats};

use crate::admission::AdmissionGate;
use crate::cache::{CachedPlan, PlanCache};
use crate::proto::{
    self, DoneInfo, ErrorCode, Frame, ProtoError, RowBatchWriter, DEFAULT_MAX_PAYLOAD, HEADER_LEN,
};
use crate::slowlog::{SlowLog, SlowQueryEntry};
use crate::stats::{self, Occupancy, SamplerState, WorkerSlot};

/// Pause after a failed `accept()` (fd exhaustion, aborted handshakes): a
/// blocking accept that fails persistently must not spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Type-erased UQL parser bound to the served reader's metadata.
type ParseFn = Box<dyn Fn(&str) -> Result<uindex::Query, String> + Send + Sync>;

/// Type-erased guarded execution against a fresh snapshot, writing the
/// rows into the reply: the snapshot's epoch, and the scan counters and
/// degraded flag (or the error).
type ExecFn = Box<
    dyn Fn(&uindex::Query, &mut RowBatchWriter) -> (u64, uindex::Result<(ScanStats, bool)>)
        + Send
        + Sync,
>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Execution slots: at most this many queries execute at once, each on
    /// its connection's thread.
    pub workers: usize,
    /// Admission bound: queries in flight (executing or waiting for a
    /// slot) before requests are shed with `Overloaded`.
    pub max_inflight: usize,
    /// Per-frame payload cap; oversized frames are rejected before any
    /// allocation.
    pub max_payload: u32,
    /// Bound on the prepared-plan cache (insertion-order eviction).
    pub plan_cache_capacity: usize,
    /// Per-frame read deadline for untrusted clients: once the first byte
    /// of a frame arrives, the rest must follow within this budget or the
    /// connection is closed with a typed fatal error (counted as
    /// `serve.conn.deadline_closed`). `None` disables the deadline; a
    /// fully idle connection (no bytes of the next header yet) is never
    /// subject to it.
    pub read_deadline: Option<Duration>,
    /// Latency threshold for the slow-query log: only queries at or above
    /// this many microseconds compete for a slot. 0 means every query
    /// competes (the log still retains only the worst N).
    pub slow_query_us: u64,
    /// Worst-N retention of the slow-query log; 0 disables slow-query
    /// capture entirely.
    pub slow_log_capacity: usize,
    /// Sampling interval for the rolling stats window — how often the
    /// server-wide telemetry sum is diffed into one interval delta.
    pub sample_interval: Duration,
    /// Intervals retained by the rolling window (e.g. 60 × 1s).
    pub window_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            max_inflight: 64,
            max_payload: DEFAULT_MAX_PAYLOAD,
            plan_cache_capacity: 1024,
            read_deadline: Some(Duration::from_secs(5)),
            slow_query_us: 0,
            slow_log_capacity: 32,
            sample_interval: Duration::from_secs(1),
            window_capacity: 60,
        }
    }
}

/// The server's registry handles, resolved once per thread (catalog in
/// DESIGN.md §9). They are the server's only lifetime counts: `Stats`,
/// [`Server::metrics`] and [`ServeReport`] read them through the group.
struct ServeMetrics {
    connections: Counter,
    accept_errors: Counter,
    requests: Counter,
    /// Admitted; every admitted query executes and lands in `query_us`.
    queries: Counter,
    shed: Counter,
    proto_errors: Counter,
    deadline_closed: Counter,
    disconnects: Counter,
    degraded_answers: Counter,
    panics: Counter,
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    query_us: Histogram,
    /// Its sum is the rows sent.
    rows: Histogram,
}

thread_local! {
    static SERVE_METRICS: ServeMetrics = ServeMetrics {
        connections: telemetry::counter("serve.connections"),
        accept_errors: telemetry::counter("serve.accept_errors"),
        requests: telemetry::counter("serve.requests"),
        queries: telemetry::counter("serve.queries"),
        shed: telemetry::counter("serve.shed"),
        proto_errors: telemetry::counter("serve.proto_errors"),
        deadline_closed: telemetry::counter("serve.conn.deadline_closed"),
        disconnects: telemetry::counter("serve.disconnects"),
        degraded_answers: telemetry::counter("serve.degraded_answers"),
        panics: telemetry::counter("serve.worker.panics"),
        plan_cache_hits: telemetry::counter("serve.plan_cache.hits"),
        plan_cache_misses: telemetry::counter("serve.plan_cache.misses"),
        query_us: telemetry::histogram("serve.query_us"),
        rows: telemetry::histogram("serve.rows"),
    };
}

fn metrics<R>(f: impl FnOnce(&ServeMetrics) -> R) -> R {
    SERVE_METRICS.with(f)
}

/// Final accounting handed back by [`Server::shutdown`].
pub struct ServeReport {
    /// Telemetry summed over every server thread (`serve.*` counters,
    /// query latency/row histograms, and the engine counters the queries
    /// moved).
    pub metrics: telemetry::Snapshot,
}

/// Open connections, so `shutdown` can wake and join their threads. A
/// connection's entry leaves `open` when its thread exits; the handle
/// waits in `finished` until the acceptor (or `shutdown`) joins it.
#[derive(Default)]
struct ConnRegistry {
    /// Per connection id: a clone of the socket (to `shutdown(Read)` a
    /// blocked read) and the thread's handle.
    open: HashMap<u64, (TcpStream, JoinHandle<()>)>,
    finished: Vec<JoinHandle<()>>,
}

struct Shared {
    /// Set once by `shutdown`; every thread exits at its next check, a
    /// connection thread only between requests.
    stop: AtomicBool,
    gate: Arc<AdmissionGate>,
    cache: PlanCache,
    /// Parses UQL against the served reader's captured metadata. Boxed so
    /// `Shared` stays monomorphic over page stores.
    parse: ParseFn,
    /// Probes the served reader's shared quarantine flag — `true` while
    /// the index is quarantined and every answer is degraded. Always
    /// `false` for readers without a fallback source.
    degraded_probe: Box<dyn Fn() -> bool + Send + Sync>,
    /// Runs one query on the served reader.
    execute: ExecFn,
    /// The acceptor's and every connection thread's registry, read as one.
    telemetry: telemetry::Group,
    options: ServeOptions,
    /// Monotonic query ids, assigned at execution.
    query_ids: AtomicU64,
    /// Worst-N slow-query log (see [`crate::slowlog`]).
    slow_log: Mutex<SlowLog>,
    /// Rolling-window sampler state; written by the sampler thread once
    /// per interval, read by Stats handlers. Lock order: `sampler` before
    /// `telemetry` or `free_slots`; `slow_log` and `conns` are held alone.
    sampler: Mutex<SamplerState>,
    /// Wakes the sampler out of its interval wait at shutdown.
    sampler_wake: Condvar,
    /// Indices of the execution slots nobody holds (a counting semaphore
    /// that also names the slot, for the per-slot tallies).
    free_slots: Mutex<Vec<usize>>,
    slot_freed: Condvar,
    /// Per-slot tallies, the `workers` array of the Stats document.
    worker_slots: Vec<WorkerSlot>,
    conns: Mutex<ConnRegistry>,
}

impl Shared {
    /// Block until an execution slot is free and take it.
    fn take_slot(&self) -> ExecSlot<'_> {
        let free = self.free_slots.lock().unwrap();
        let mut free = self.slot_freed.wait_while(free, |f| f.is_empty()).unwrap();
        let index = free.pop().expect("waited for a free slot");
        ExecSlot {
            shared: self,
            index,
        }
    }

    fn occupancy(&self) -> Occupancy {
        let workers = self.worker_slots.len();
        let executing = workers - self.free_slots.lock().unwrap().len();
        let inflight = self.gate.inflight();
        Occupancy {
            inflight,
            queued: inflight.saturating_sub(executing),
            max_inflight: self.gate.limit(),
            workers,
            degraded: (self.degraded_probe)(),
        }
    }
}

/// RAII execution slot: dropping it frees the slot for the next waiter.
struct ExecSlot<'a> {
    shared: &'a Shared,
    index: usize,
}

impl Drop for ExecSlot<'_> {
    fn drop(&mut self) {
        if let Ok(mut free) = self.shared.free_slots.lock() {
            free.push(self.index);
        }
        self.shared.slot_freed.notify_one();
    }
}

/// A running UQL server. Dropping it without [`Server::shutdown`] leaks
/// the background threads; call `shutdown` to stop and join everything.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and sampler, and start serving `reader`'s
    /// database. Returns once the listener is live.
    pub fn start<P>(reader: DatabaseReader<P>, options: ServeOptions) -> std::io::Result<Server>
    where
        P: PageStore + Send + Sync + 'static,
    {
        let listener =
            TcpListener::bind(options.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        let local_addr = listener.local_addr()?;

        let parse_reader = reader.clone();
        let probe_reader = reader.clone();
        let slots = options.workers.max(1);
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            gate: AdmissionGate::new(options.max_inflight),
            cache: PlanCache::new(options.plan_cache_capacity),
            parse: Box::new(move |text| parse_reader.parse_uql(text).map_err(|e| e.to_string())),
            degraded_probe: Box::new(move || probe_reader.quarantined()),
            execute: Box::new(move |query, reply| {
                let snap = reader.snapshot();
                (snap.epoch(), reader.query_guarded_into(&snap, query, reply))
            }),
            telemetry: telemetry::Group::default(),
            query_ids: AtomicU64::new(0),
            slow_log: Mutex::new(SlowLog::new(options.slow_log_capacity)),
            sampler: Mutex::new(SamplerState::new(
                options.window_capacity,
                options.sample_interval,
            )),
            sampler_wake: Condvar::new(),
            free_slots: Mutex::new((0..slots).rev().collect()),
            slot_freed: Condvar::new(),
            worker_slots: (0..slots).map(|_| WorkerSlot::default()).collect(),
            conns: Mutex::new(ConnRegistry::default()),
            options,
        });

        let sampler = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-sampler".into())
                .spawn(move || sampler_loop(shared))?
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(listener, shared))?
        };

        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            sampler: Some(sampler),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The admission gate, exposed so tests and embedders can observe —
    /// or externally occupy — the in-flight bound.
    pub fn gate(&self) -> Arc<AdmissionGate> {
        Arc::clone(&self.shared.gate)
    }

    /// Telemetry summed over every server thread, as it stands (safe to
    /// poll while serving; counters only grow).
    pub fn metrics(&self) -> telemetry::Snapshot {
        self.shared.telemetry.snapshot()
    }

    /// Whether the served reader is currently quarantined (every answer
    /// degraded until a clean `check()` on the owning database).
    pub fn degraded(&self) -> bool {
        (self.shared.degraded_probe)()
    }

    /// Queries currently admitted and not yet finished.
    pub fn inflight(&self) -> usize {
        self.shared.gate.inflight()
    }

    /// Connection threads not yet joined: open connections plus the few
    /// that closed since the acceptor last reaped.
    pub fn open_connections(&self) -> usize {
        let conns = self.shared.conns.lock().unwrap();
        conns.open.len() + conns.finished.len()
    }

    /// Stop accepting, let every connection finish the request it is
    /// handling, join every thread, and return the summed telemetry.
    pub fn shutdown(mut self) -> ServeReport {
        self.shared.stop.store(true, Ordering::Release);
        // The sampler holds its mutex from checking the flag to waiting,
        // so once the mutex has been ours it is either waiting (and gets
        // the notify) or yet to check (and sees the flag).
        drop(self.shared.sampler.lock().unwrap());
        self.shared.sampler_wake.notify_all();
        // The acceptor is blocked in accept(): hand it one connection; it
        // checks the flag after every accept.
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake_addr, Duration::from_secs(1));
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // No new connections from here on. Idle ones are blocked in
        // read(): shutting the read half down returns 0 to them; a busy
        // one sees the flag once its request is answered.
        let ConnRegistry { open, finished } =
            std::mem::take(&mut *self.shared.conns.lock().unwrap());
        for (socket, _) in open.values() {
            let _ = socket.shutdown(Shutdown::Read);
        }
        for handle in open.into_values().map(|(_, h)| h).chain(finished) {
            let _ = handle.join();
        }
        if let Some(sampler) = self.sampler.take() {
            let _ = sampler.join();
        }
        ServeReport {
            metrics: self.metrics(),
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let _member = shared.telemetry.join();
    let mut next_conn = 0u64;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(_) => {
                metrics(|m| m.accept_errors.inc());
                std::thread::sleep(ACCEPT_BACKOFF);
                continue;
            }
        };
        metrics(|m| m.connections.inc());
        let id = next_conn;
        next_conn += 1;
        // Register under the lock the exiting thread takes to deregister,
        // so even a connection that closes at once finds its entry.
        let mut conns = shared.conns.lock().unwrap();
        let spawned = stream.try_clone().and_then(|socket| {
            let shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("serve-conn-{id}"))
                .spawn(move || connection_loop(stream, shared, id))?;
            Ok((socket, handle))
        });
        match spawned {
            Ok(entry) => {
                conns.open.insert(id, entry);
            }
            Err(_) => metrics(|m| m.disconnects.inc()),
        }
        let finished = std::mem::take(&mut conns.finished);
        drop(conns);
        for handle in finished {
            let _ = handle.join();
        }
    }
}

/// Read exactly `buf.len()` bytes with blocking reads. `idle`
/// distinguishes "waiting for the next frame" (EOF is a clean close) from
/// "mid-frame" (EOF is truncation — unless the server is stopping, when
/// the EOF is `shutdown`'s wake-up and the connection just closes).
///
/// `deadline` bounds how long a *partially received* frame may stall: for
/// idle reads the clock starts at the first byte (a quiet connection that
/// has sent nothing blocks without a timeout and is never killed), for
/// payload reads at entry — the header already arrived, so the connection
/// is mid-frame by definition.
fn read_exact_deadline(
    stream: &mut TcpStream,
    buf: &mut [u8],
    idle: bool,
    stop: &AtomicBool,
    deadline: Option<Duration>,
) -> Result<(), ProtoError> {
    let mut got = 0;
    let mut started = (!idle).then(Instant::now);
    let mut armed = false;
    let result = loop {
        if got == buf.len() {
            break Ok(());
        }
        if let (Some(limit), Some(t0)) = (deadline, started) {
            let left = limit.saturating_sub(t0.elapsed());
            if left.is_zero() {
                break Err(ProtoError::ReadDeadline);
            }
            let _ = stream.set_read_timeout(Some(left));
            armed = true;
        }
        match stream.read(&mut buf[got..]) {
            Ok(0) if (got == 0 && idle) || stop.load(Ordering::Acquire) => {
                break Err(ProtoError::Closed)
            }
            Ok(0) => break Err(ProtoError::Truncated),
            Ok(n) => {
                got += n;
                started.get_or_insert_with(Instant::now);
            }
            // The armed timeout fired or a signal arrived: the deadline
            // check at the top of the loop decides.
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => break Err(ProtoError::Io(e)),
        }
    };
    if armed {
        let _ = stream.set_read_timeout(None);
    }
    result
}

fn connection_loop(mut stream: TcpStream, shared: Arc<Shared>, id: u64) {
    let _member = shared.telemetry.join();
    let _ = stream.set_nodelay(true);
    let max_payload = shared.options.max_payload;
    let deadline = shared.options.read_deadline;
    // This thread's registry as of the end of its previous query: the
    // slow-query log's per-query delta is taken against it.
    let mut base = telemetry::Baseline::default();
    // Every query reply on this connection is built in this one buffer.
    let mut reply = RowBatchWriter::new();

    while !shared.stop.load(Ordering::Acquire) {
        // Header first (idle: a close here is clean), then payload.
        let mut header = [0u8; HEADER_LEN];
        let read = read_exact_deadline(&mut stream, &mut header, true, &shared.stop, deadline)
            .and_then(|()| proto::parse_header(&header, max_payload))
            .and_then(|(ty, len, crc)| {
                let mut payload = vec![0u8; len as usize];
                read_exact_deadline(&mut stream, &mut payload, false, &shared.stop, deadline)?;
                proto::verify_crc(crc, &payload)?;
                proto::parse_payload(ty, &payload)
            });

        let frame = match read {
            Ok(frame) => frame,
            Err(ProtoError::Closed) => break,
            Err(ProtoError::Io(_)) => {
                metrics(|m| m.disconnects.inc());
                break;
            }
            Err(err) => {
                // Framing violation: answer with a typed error. Fatal
                // errors (unframeable stream) then close; recoverable
                // ones keep serving this connection.
                metrics(|m| {
                    if matches!(err, ProtoError::ReadDeadline) {
                        m.deadline_closed.inc();
                    }
                    m.proto_errors.inc();
                });
                let reply = Frame::Error {
                    code: ErrorCode::Proto,
                    message: err.to_string(),
                };
                if !send(&mut stream, &reply) || err.is_fatal() {
                    break;
                }
                continue;
            }
        };

        metrics(|m| m.requests.inc());
        if !handle_request(&mut stream, frame, &shared, &mut base, &mut reply) {
            break;
        }
    }
    // Deregister: dropping the registry's clone of the socket (with ours,
    // at return) closes the connection; the handle waits to be joined.
    let mut conns = shared.conns.lock().unwrap();
    if let Some((_socket, handle)) = conns.open.remove(&id) {
        conns.finished.push(handle);
    }
}

/// Write one frame; `false` (and a counted disconnect) when the transport
/// failed and the connection must close.
fn send(stream: &mut TcpStream, frame: &Frame) -> bool {
    send_bytes(stream, &proto::encode_frame(frame))
}

/// [`send`] for frames already encoded.
fn send_bytes(stream: &mut TcpStream, bytes: &[u8]) -> bool {
    let ok = stream.write_all(bytes).is_ok();
    if !ok {
        metrics(|m| m.disconnects.inc());
    }
    ok
}

/// Handle one request frame; returns `false` when the connection must
/// close (transport failure writing the response).
fn handle_request(
    stream: &mut TcpStream,
    frame: Frame,
    shared: &Shared,
    base: &mut telemetry::Baseline,
    reply: &mut RowBatchWriter,
) -> bool {
    let parse_error = |message| Frame::Error {
        code: ErrorCode::Parse,
        message,
    };
    match frame {
        Frame::Ping => send(stream, &Frame::Pong),
        Frame::Prepare { uql } => {
            match shared
                .cache
                .lookup_or_parse(&uql, |text| (shared.parse)(text))
            {
                Ok((id, _, hit)) => {
                    record_cache_outcome(hit);
                    send(stream, &Frame::Prepared { id })
                }
                Err(msg) => send(stream, &parse_error(msg)),
            }
        }
        Frame::Query { uql } => {
            match shared
                .cache
                .lookup_or_parse(&uql, |text| (shared.parse)(text))
            {
                Ok((_, plan, hit)) => {
                    record_cache_outcome(hit);
                    serve_query(stream, &plan, hit, shared, base, reply)
                }
                Err(msg) => send(stream, &parse_error(msg)),
            }
        }
        Frame::Execute { id } => match shared.cache.by_id(id) {
            Some(plan) => serve_query(stream, &plan, true, shared, base, reply),
            None => send(
                stream,
                &Frame::Error {
                    code: ErrorCode::UnknownStatement,
                    message: format!("prepared statement {id} is unknown or evicted"),
                },
            ),
        },
        // Answered without an admission permit, an execution slot, a
        // snapshot or any buffer-pool traffic. An overloaded server — even
        // one configured with max_inflight = 0 — must still answer Stats;
        // that is the whole point of the frame.
        Frame::Stats { window_s } => {
            let json = build_stats_reply(shared, window_s);
            send(stream, &Frame::StatsReply { json })
        }
        Frame::Trace { id } => {
            let entry = shared.slow_log.lock().unwrap().get(id);
            match entry {
                Some(e) => send(stream, &Frame::TraceReply { json: e.to_json() }),
                None => send(
                    stream,
                    &Frame::Error {
                        code: ErrorCode::NotFound,
                        message: format!("query {id} is not in the slow-query log"),
                    },
                ),
            }
        }
        // A client sending response-typed frames is violating the
        // protocol, but the frame boundary is intact: recoverable.
        other @ (Frame::RowBatch { .. }
        | Frame::Done(_)
        | Frame::Error { .. }
        | Frame::Pong
        | Frame::Prepared { .. }
        | Frame::StatsReply { .. }
        | Frame::TraceReply { .. }) => {
            metrics(|m| m.proto_errors.inc());
            send(
                stream,
                &Frame::Error {
                    code: ErrorCode::Proto,
                    message: format!(
                        "unexpected response frame 0x{:02x} from client",
                        other.tag()
                    ),
                },
            )
        }
    }
}

/// Gather every input for a `StatsReply` without touching the admission
/// gate, an execution slot, or the buffer pool, and build the document.
fn build_stats_reply(shared: &Shared, window_s: u32) -> String {
    let slow = shared.slow_log.lock().unwrap().entries();
    // The sampled cumulative sum only moves under this lock, and counters
    // only grow: reading the live sum with the lock held keeps "sampled ≤
    // live" exact.
    let sampler = shared.sampler.lock().unwrap();
    let live = shared.telemetry.snapshot();
    let workers: Vec<(u64, u64)> = shared
        .worker_slots
        .iter()
        .map(|w| {
            (
                w.queries.load(Ordering::Relaxed),
                w.busy_us.load(Ordering::Relaxed),
            )
        })
        .collect();
    stats::build_stats_json(
        &sampler,
        window_s,
        &live,
        &shared.occupancy(),
        &workers,
        &slow,
    )
}

/// Admit, execute on this thread — the scan writes its rows straight into
/// `reply`'s frames — send the answer back, then account for it. Returns
/// `false` when the connection must close.
fn serve_query(
    stream: &mut TcpStream,
    plan: &CachedPlan,
    cached: bool,
    shared: &Shared,
    base: &mut telemetry::Baseline,
    reply: &mut RowBatchWriter,
) -> bool {
    // Admission first: a shed request must cost nothing downstream — no
    // execution slot, no snapshot, no buffer-pool traffic.
    let Some(permit) = shared.gate.try_admit() else {
        metrics(|m| m.shed.inc());
        let reply = Frame::Error {
            code: ErrorCode::Overloaded,
            message: format!(
                "server at max in-flight queries ({}); retry",
                shared.gate.limit()
            ),
        };
        return send(stream, &reply);
    };
    metrics(|m| m.queries.inc());

    let slot = shared.take_slot();
    let id = shared.query_ids.fetch_add(1, Ordering::Relaxed) + 1;
    let started = Instant::now();
    reply.clear();
    // Guarded execution behind a panic boundary: a storage fault degrades
    // or maps to a typed `Unavailable`, a panicking query to a typed
    // `Exec` — the slot and permit are released and the connection keeps
    // serving either way. Whatever rows a failed execution left in the
    // reply are never sent.
    let result = {
        let _span = Span::enter("serve.execute");
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (shared.execute)(&plan.query, reply)
        }))
    };
    let micros = started.elapsed().as_micros() as u64;
    metrics(|m| m.query_us.record(micros));
    let tally = &shared.worker_slots[slot.index];
    tally.queries.fetch_add(1, Ordering::Relaxed);
    tally.busy_us.fetch_add(micros, Ordering::Relaxed);
    // Execution is over: the slot and the admission permit go back before
    // the reply is sealed and the socket written, so a slow reader holds
    // neither.
    drop(slot);
    drop(permit);

    let mut executed = None; // (snapshot epoch, rows, ScanStats) on success
    let alive = match result {
        Ok((epoch, Ok((stats, degraded)))) => {
            let rows = reply.rows();
            metrics(|m| {
                if degraded {
                    m.degraded_answers.inc();
                }
                m.rows.record(rows);
            });
            executed = Some((epoch, rows, stats));
            let done = DoneInfo {
                rows,
                pages_read: stats.pages_read,
                entries_examined: stats.entries_examined,
                seeks: stats.seeks,
                micros,
                cached_plan: cached,
                degraded,
            };
            // The whole reply in one `write`: a small one is one segment
            // and wakes its reader once.
            send_bytes(stream, reply.finish(&done))
        }
        Ok((_, Err(e))) => {
            let code = error_code_for(&e);
            let message = e.to_string();
            send(stream, &Frame::Error { code, message })
        }
        Err(panic) => {
            metrics(|m| m.panics.inc());
            let code = ErrorCode::Exec;
            let message = format!("query execution panicked: {}", panic_message(&*panic));
            send(stream, &Frame::Error { code, message })
        }
    };

    // What this thread recorded since its previous query — this request's
    // frame handling, cache lookup and execution — is the slow-query
    // entry's registry delta, materialised only for a query the log takes.
    let logged = executed.filter(|_| {
        micros >= shared.options.slow_query_us && shared.slow_log.lock().unwrap().admits(micros)
    });
    match logged {
        Some((snapshot_epoch, rows, stats)) => {
            let delta = telemetry::delta_since(base);
            shared.slow_log.lock().unwrap().offer(SlowQueryEntry {
                id,
                uql: plan.text.clone(),
                micros,
                rows,
                cached_plan: cached,
                snapshot_epoch,
                stats,
                delta,
            });
        }
        None => base.advance(),
    }
    alive
}

fn record_cache_outcome(hit: bool) {
    metrics(|m| {
        if hit {
            m.plan_cache_hits.inc();
        } else {
            m.plan_cache_misses.inc();
        }
    });
}

/// Sampler loop: once per `sample_interval`, diff the server-wide
/// telemetry sum into the rolling window. The wall clock lives only
/// here — the window itself (and everything Stats computes from it) is a
/// pure function of the pushed intervals. The thread holds the sampler
/// mutex except while it waits, which is where Stats handlers get in.
fn sampler_loop(shared: Arc<Shared>) {
    let interval = shared.options.sample_interval.max(Duration::from_millis(1));
    let mut state = shared.sampler.lock().unwrap();
    loop {
        let (guard, wait) = shared
            .sampler_wake
            .wait_timeout_while(state, interval, |_| !shared.stop.load(Ordering::Acquire))
            .unwrap();
        state = guard;
        if !wait.timed_out() {
            break; // woken by shutdown
        }
        state.advance(shared.telemetry.snapshot());
    }
}

/// Map an engine error to the wire code. Storage trouble — pages or the
/// object store — is [`ErrorCode::Unavailable`]: the data is intact, the
/// request is retryable. Everything else (planning, bad queries) is a
/// deterministic [`ErrorCode::Exec`].
fn error_code_for(e: &uindex::Error) -> ErrorCode {
    match e {
        uindex::Error::Page(_) | uindex::Error::Store(_) => ErrorCode::Unavailable,
        _ => ErrorCode::Exec,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}
