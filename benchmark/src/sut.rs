//! The system under test, as the benchmark sees it. **Every** call into a
//! product crate is in this file; `README.md` lists the public items used,
//! which later changes must keep source-compatible. Nothing here reads a
//! field of the product's `ScanStats`/`PoolStats`/`SeekStats`/
//! `QueryStats`/`ServeStats`: counts come from `telemetry` counters by
//! name, the `Done`/`Stats` wire frames and `Server::shutdown`'s metrics.
//!
//! The wrappers are thin on purpose — callers time them from outside.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Duration;

use baselines::SetId;
use btree::{BTree, BTreeConfig, Node};
use objstore::{Oid, Value};
use pagestore::{disk as pdisk, BufferPool, MemStore};
use schema::AttrType;
use serve::proto::{self, Frame, WireRow};
use serve::{AdmissionGate, Client, PlanCache, ServeError, ServeOptions, Server};
use uindex::{Database, DatabaseReader, DbStore, DiskDatabase, DiskOptions, IndexSpec};
use workload::uniform::{generate_postings, key_bytes, KeyCount, UIndexSet, UniformConfig};
use workload::vehicle::{VehicleClasses, COLORS};

use crate::gen::{Digest, Population, ScanQuery, DISTINCT_KEYS, SETS};

/// Product types the workloads name but never look into.
pub use pagestore::PageStore;
pub use uindex::Query;

pub type LeafId = pagestore::PageId;
pub type DiskStack = pdisk::DiskStack;

const PAGE_SIZE: usize = 1024;

// ----- telemetry -------------------------------------------------------------

/// This thread's value of a product counter, by name.
pub fn counter(name: &'static str) -> u64 {
    telemetry::counter_value(name)
}

/// Cached handles, as the product's hot paths hold them, for the telemetry
/// single-layer pass.
pub struct TelemetryProbe {
    counter: telemetry::Counter,
    histogram: telemetry::Histogram,
}

pub fn telemetry_probe() -> TelemetryProbe {
    TelemetryProbe {
        counter: telemetry::counter("benchmark.probe.counter"),
        histogram: telemetry::histogram("benchmark.probe.histogram"),
    }
}

impl TelemetryProbe {
    pub fn inc(&self) {
        self.counter.inc();
    }

    pub fn record(&self, v: u64) {
        self.histogram.record(v);
    }
}

/// Open and close one product span.
pub fn telemetry_span() {
    drop(telemetry::Span::enter("benchmark.probe.span"));
}

/// Empty the thread's list of finished root spans.
pub fn telemetry_drain_spans() {
    telemetry::take_spans();
}

/// A parsed JSON document (the `Stats` reply, or a child run's result
/// line), addressed by key path.
pub struct JsonDoc(telemetry::json::Json);

impl JsonDoc {
    pub fn parse(text: &str) -> Result<JsonDoc, String> {
        telemetry::json::parse(text).map(JsonDoc)
    }

    fn at(&self, path: &[&str]) -> Option<&telemetry::json::Json> {
        path.iter().try_fold(&self.0, |v, key| v.get(key))
    }

    pub fn f64_at(&self, path: &[&str]) -> Option<f64> {
        self.at(path)?.as_f64()
    }

    pub fn bool_at(&self, path: &[&str]) -> Option<bool> {
        self.at(path)?.as_bool()
    }

    #[cfg(test)]
    pub fn str_at(&self, path: &[&str]) -> Option<&str> {
        self.at(path)?.as_str()
    }

    /// The elements of the array at `path`.
    #[cfg(test)]
    pub fn items_at(&self, path: &[&str]) -> Vec<JsonDoc> {
        let items = self.at(path).and_then(|v| v.as_arr()).unwrap_or(&[]);
        items.iter().cloned().map(JsonDoc).collect()
    }

    /// The keys of the object at `path`, in document order.
    pub fn keys_at(&self, path: &[&str]) -> Vec<String> {
        self.at(path)
            .and_then(|v| v.as_obj())
            .map(|o| o.iter().map(|(k, _)| k.clone()).collect())
            .unwrap_or_default()
    }
}

// ----- scan workloads: a bare U-index over uniform postings ------------------

/// The raw postings `(key, set, oid)` the scan indexes are loaded from.
pub struct Postings(Vec<(Vec<u8>, SetId, Oid)>);

impl Postings {
    pub fn generate(objects: u32, seed: u64) -> Postings {
        Postings(generate_postings(&UniformConfig {
            num_objects: objects,
            num_sets: SETS,
            keys: KeyCount::Distinct(DISTINCT_KEYS),
            seed,
        }))
    }

    /// `(key ordinal, set, oid)` per posting, for the truth sweep. Keys are
    /// the 8-hex-digit ordinals `key_bytes` makes.
    pub fn cells(&self) -> impl Iterator<Item = (u32, u16, u32)> + '_ {
        self.0.iter().map(|(key, set, oid)| {
            let hex = std::str::from_utf8(key).expect("hex key");
            (u32::from_str_radix(hex, 16).expect("hex key"), set.0, oid.0)
        })
    }
}

/// A loaded scan index and the reader queries go through.
pub struct ScanIndex<P: PageStore> {
    set: UIndexSet<P>,
    reader: DatabaseReader<P>,
}

/// Bulk-load into `MemStore` behind a pool larger than the index.
pub fn build_warm(postings: &Postings) -> ScanIndex<MemStore> {
    let mut set = UIndexSet::build(SETS, &postings.0).expect("bulk load into MemStore");
    let reader = set.reader();
    ScanIndex { set, reader }
}

/// Bulk-load onto the disk stack (WAL + checksums + file) in `dir`,
/// checkpoint, close, and reopen behind a pool of `pool_pages` pages.
pub fn build_cold(postings: &Postings, dir: &Path, pool_pages: usize) -> ScanIndex<DiskStack> {
    let mut stack = pdisk::create(dir, PAGE_SIZE).expect("create disk stack");
    stack.set_group_commit(8);
    let pool = BufferPool::new(stack, 1 << 17);
    let mut set = UIndexSet::build_with_pool(pool, SETS, &postings.0).expect("bulk load to disk");
    let (root, len) = set.persist().expect("persist the loaded index");
    let mut stack = set.into_pool().into_store();
    stack.checkpoint().expect("checkpoint the loaded index");
    drop(stack);

    let stack = pdisk::open(dir).expect("reopen disk stack");
    let pool = BufferPool::new(stack, pool_pages);
    let mut set = UIndexSet::open(pool, root, len).expect("reattach to the reopened index");
    let reader = set.reader();
    ScanIndex { set, reader }
}

/// The hits of one embedded query.
pub struct Hits(Vec<uindex::QueryHit>);

impl Hits {
    /// Over the last OID of each hit's key. That identifies the hit: a
    /// posting has one OID of its own, a `serial` entry is its vehicle, and
    /// an `age` path entry ends in its vehicle.
    pub fn digest(&self) -> Digest {
        Digest::of(
            self.0
                .iter()
                .map(|h| h.key.path.last().expect("non-empty path").oid.0),
        )
    }
}

impl<P: PageStore> ScanIndex<P> {
    /// Translate a generated query into the product's (default algorithm).
    pub fn plan(&self, q: &ScanQuery) -> Query {
        let sets: Vec<SetId> = q.sets.iter().map(|&s| SetId(s)).collect();
        if q.hi == q.lo + 1 {
            self.set.exact_query(&key_bytes(q.lo), &sets)
        } else {
            self.set
                .range_query(&key_bytes(q.lo), &key_bytes(q.hi), &sets)
        }
    }

    pub fn query(&self, q: &Query) -> Result<Hits, String> {
        match self.reader.query(q) {
            Ok((hits, _)) => Ok(Hits(hits)),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Bytes of index pages in the store.
    pub fn stored_bytes(&self) -> u64 {
        let pool = self.set.pool();
        (pool.live_pages() * pool.page_size()) as u64
    }

    /// Give up the index for direct access to its B-tree (single-layer
    /// passes).
    pub fn into_tree(self) -> TreeProbe<P> {
        let ScanIndex { mut set, reader } = self;
        drop(reader);
        let (root, len) = set.persist().expect("persist before reattaching");
        let tree = BTree::open(set.into_pool(), BTreeConfig::default(), root, len);
        TreeProbe { tree }
    }
}

/// Direct access to a loaded index's B-tree and buffer pool.
pub struct TreeProbe<P: PageStore> {
    tree: BTree<P>,
}

/// What one full leaf-level pass saw.
pub struct CursorPass {
    pub entries: u64,
    /// Every leaf, in key order.
    pub leaves: Vec<LeafId>,
    /// Every `sample_every`-th key.
    pub sample_keys: Vec<Vec<u8>>,
}

impl<P: PageStore> TreeProbe<P> {
    /// `seek_first`, then `cursor_entry_ref`/`cursor_advance` to the end.
    pub fn cursor_pass(&self, sample_every: u64) -> CursorPass {
        let view = self.tree.view();
        let mut cur = view.seek_first().expect("seek_first");
        let mut pass = CursorPass {
            entries: 0,
            leaves: Vec::new(),
            sample_keys: Vec::new(),
        };
        while let Some(entry) = view.cursor_entry_ref(&mut cur).expect("cursor read") {
            if pass.leaves.last() != Some(&cur.leaf_page()) {
                pass.leaves.push(cur.leaf_page());
            }
            if pass.entries.is_multiple_of(sample_every) {
                pass.sample_keys.push(entry.key().to_vec());
            }
            pass.entries += 1;
            view.cursor_advance(&mut cur);
        }
        pass
    }

    /// One root-to-leaf descent.
    pub fn seek(&self, key: &[u8]) {
        self.tree.view().seek(key).expect("seek");
    }

    /// One `BufferPool::fetch`.
    pub fn fetch(&self, id: LeafId) {
        self.tree.pool().fetch(id).expect("fetch");
    }

    pub fn page_bytes(&self, id: LeafId) -> Vec<u8> {
        self.tree.pool().fetch(id).expect("fetch").read().to_vec()
    }
}

/// `Node::decode` on page bytes; returns the entry count.
pub fn decode_node(page: &[u8]) -> usize {
    Node::decode(page).expect("decode a real page").count()
}

// ----- the vehicle database (serve and commit workloads) ---------------------

fn vehicle_schema() -> (schema::Schema, VehicleClasses) {
    workload::serve::schema()
}

/// Load `pop` through `Database`'s public API: employees and companies,
/// then the vehicles with `Color`, `ManufacturedBy` and the benchmark's
/// unique `Serial`, then the `color`, `age` and `serial` indexes. Returns
/// the OID of each vehicle, by serial.
fn populate<P: PageStore>(
    db: &mut Database<P>,
    classes: &VehicleClasses,
    pop: &Population,
) -> uindex::Result<Vec<u32>> {
    db.add_attr(classes.vehicle, "Serial", AttrType::Int)?;
    let mut companies = Vec::with_capacity(pop.ages.len());
    for (i, &age) in pop.ages.iter().enumerate() {
        let president = db.create_object(classes.employee)?;
        db.set_attr(president, "Age", Value::Int(age))?;
        let company = db.create_object(classes.company)?;
        db.set_attr(company, "Name", Value::Str(format!("Company{i}")))?;
        db.set_attr(company, "President", Value::Ref(president))?;
        companies.push(company);
    }
    let vehicle_classes = classes.vehicle_classes();
    let mut oids = Vec::with_capacity(pop.vehicles.len());
    for (serial, v) in pop.vehicles.iter().enumerate() {
        let oid = db.create_object(vehicle_classes[v.class as usize])?;
        db.set_attr(oid, "Color", Value::Str(COLORS[v.color as usize].into()))?;
        db.set_attr(
            oid,
            "ManufacturedBy",
            Value::Ref(companies[v.company as usize]),
        )?;
        db.set_attr(oid, "Serial", Value::Int(serial as i64))?;
        oids.push(oid.0);
    }
    db.define_index(IndexSpec::class_hierarchy(
        "color",
        classes.vehicle,
        "Color",
    ))?;
    db.define_index(IndexSpec::path(
        "age",
        classes.vehicle,
        &["ManufacturedBy", "President"],
        "Age",
    ))?;
    db.define_index(IndexSpec::class_hierarchy(
        "serial",
        classes.vehicle,
        "Serial",
    ))?;
    Ok(oids)
}

/// The name of colour `i`, as the `color` index stores it.
pub fn color_name(i: u8) -> &'static str {
    COLORS[i as usize]
}

/// The in-memory vehicle database.
pub struct VehicleDb {
    db: Database,
    oids: Vec<u32>,
}

pub fn build_vehicle_db(pop: &Population) -> VehicleDb {
    let (schema, classes) = vehicle_schema();
    let mut db = Database::in_memory(schema).expect("in-memory database");
    let oids = populate(&mut db, &classes, pop).expect("populate");
    VehicleDb { db, oids }
}

impl VehicleDb {
    /// OID of each vehicle, by serial.
    pub fn oids(&self) -> &[u32] {
        &self.oids
    }

    /// The reader the server is started with (fallback-armed, as
    /// `uindex-cli serve` does).
    pub fn reader(&mut self) -> Reader {
        Reader(self.db.reader_with_fallback())
    }

    /// Index pages plus the object snapshot, in bytes.
    pub fn stored_bytes(&self) -> u64 {
        let pool = self.db.index().tree().pool();
        (pool.live_pages() * pool.page_size()) as u64 + self.db.store().to_bytes().len() as u64
    }
}

/// A `Send + Clone` read handle; also the in-process reference the wire
/// latencies are compared against.
#[derive(Clone)]
pub struct Reader(DatabaseReader<DbStore>);

impl Reader {
    /// Parse only (`DatabaseReader::parse_uql`).
    pub fn parse(&self, uql: &str) -> Result<(), String> {
        self.0.parse_uql(uql).map(drop).map_err(|e| e.to_string())
    }

    /// Parse and run in-process; returns the hits.
    pub fn query_uql(&self, uql: &str) -> Result<Hits, String> {
        match self.0.query_uql(uql) {
            Ok((hits, _)) => Ok(Hits(hits)),
            Err(e) => Err(e.to_string()),
        }
    }
}

// ----- serve: server, client, single-layer pieces ----------------------------

/// A running server; shut down (threads joined) when dropped.
pub struct ServerHandle(Option<Server>);

/// What `Server::shutdown` reported, from its merged telemetry.
pub struct ServerTotals {
    pub queries: u64,
    pub shed: u64,
    pub plan_cache_hits: u64,
    pub plan_cache_misses: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

/// Start an in-process server on an ephemeral loopback port; every option
/// but `workers` is the product's default.
pub fn start_server(reader: Reader, workers: usize) -> ServerHandle {
    let options = ServeOptions {
        workers,
        ..ServeOptions::default()
    };
    ServerHandle(Some(
        Server::start(reader.0, options).expect("start server"),
    ))
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running").local_addr()
    }

    pub fn shutdown(mut self) -> ServerTotals {
        let report = self.0.take().expect("running").shutdown();
        let c = |name: &str| report.metrics.counters.get(name).copied().unwrap_or(0);
        ServerTotals {
            queries: c("serve.queries"),
            shed: c("serve.shed"),
            plan_cache_hits: c("serve.plan_cache.hits"),
            plan_cache_misses: c("serve.plan_cache.misses"),
            pool_hits: c("pagestore.pool.hits"),
            pool_misses: c("pagestore.pool.misses"),
        }
    }
}

/// Why a wire request did not produce an answer.
#[derive(Debug)]
pub enum WireError {
    /// Refused by admission control (`Overloaded`).
    Shed,
    /// The read timed out.
    Timeout,
    Other(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Shed => f.write_str("shed by admission control"),
            WireError::Timeout => f.write_str("timed out waiting for the reply"),
            WireError::Other(what) => f.write_str(what),
        }
    }
}

impl From<ServeError> for WireError {
    fn from(e: ServeError) -> WireError {
        if e.is_overloaded() {
            return WireError::Shed;
        }
        if let ServeError::Proto(proto::ProtoError::Io(io)) = &e {
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                return WireError::Timeout;
            }
        }
        WireError::Other(e.to_string())
    }
}

/// A complete reply: its rows and what the `Done` frame said.
#[derive(Default)]
pub struct WireReply {
    rows: Vec<WireRow>,
    pub pages_read: u64,
    pub entries_examined: u64,
}

impl WireReply {
    pub fn rows(&self) -> u64 {
        self.rows.len() as u64
    }

    /// A row's key ends with the OID of its last path position.
    pub fn digest(&self) -> Digest {
        Digest::of(self.rows.iter().map(|r| {
            let tail = r.key.len().saturating_sub(4);
            Oid::from_bytes(r.key[tail..].try_into().unwrap_or([0; 4])).0
        }))
    }

    /// The rows as the `RowBatch` frames a server would send (512 rows
    /// each), for the encode/decode pass.
    pub fn into_batches(self) -> Vec<RowBatch> {
        self.rows
            .chunks(512)
            .map(|c| RowBatch(Frame::RowBatch { rows: c.to_vec() }))
            .collect()
    }
}

pub struct RowBatch(Frame);

impl RowBatch {
    pub fn rows(&self) -> usize {
        match &self.0 {
            Frame::RowBatch { rows } => rows.len(),
            _ => 0,
        }
    }

    pub fn encode(&self) -> Vec<u8> {
        proto::encode_frame(&self.0)
    }
}

/// `proto::decode_frame` on one encoded frame.
pub fn decode_frame(bytes: &[u8]) {
    proto::decode_frame(bytes, proto::DEFAULT_MAX_PAYLOAD).expect("decode own encoding");
}

/// The bytes of a `Query` request frame.
pub fn encode_query(uql: &str) -> Vec<u8> {
    proto::encode_frame(&Frame::Query { uql: uql.into() })
}

pub struct WireClient(Client);

impl WireClient {
    /// Connect with a read timeout, so a lost reply is counted, not hung on.
    pub fn connect(addr: SocketAddr) -> WireClient {
        let mut client = Client::connect(addr).expect("connect to the in-process server");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        WireClient(client)
    }

    /// `Client::query`: send, then read to `Done`.
    pub fn query(&mut self, uql: &str) -> Result<WireReply, WireError> {
        let reply = self.0.query(uql)?;
        Ok(WireReply {
            rows: reply.rows,
            pages_read: reply.done.pages_read,
            entries_examined: reply.done.entries_examined,
        })
    }

    pub fn ping(&mut self) -> Result<(), WireError> {
        Ok(self.0.ping()?)
    }

    /// The server's `Stats` document over the last `window_s` seconds.
    pub fn stats(&mut self, window_s: u32) -> Result<JsonDoc, WireError> {
        let json = self.0.stats(window_s)?;
        JsonDoc::parse(&json).map_err(WireError::Other)
    }

    /// `Client::send_raw`.
    pub fn write(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.0
            .send_raw(bytes)
            .map_err(|e| WireError::from(ServeError::from(e)))
    }

    /// `Client::read_reply`, folded into `reply`; true once `Done` arrived.
    pub fn read_frame(&mut self, reply: &mut WireReply) -> Result<bool, WireError> {
        match self.0.read_reply().map_err(ServeError::from)? {
            Frame::RowBatch { rows } => {
                reply.rows.extend(rows);
                Ok(false)
            }
            Frame::Done(done) => {
                reply.pages_read = done.pages_read;
                reply.entries_examined = done.entries_examined;
                Ok(true)
            }
            Frame::Error { code, message } => Err(ServeError::Server { code, message }.into()),
            _ => Err(WireError::Other("unexpected frame".into())),
        }
    }
}

/// A plan cache of the server's default capacity, filled with `statements`.
pub struct PlanCacheProbe {
    cache: PlanCache,
    reader: Reader,
}

pub fn plan_cache_probe(reader: Reader, statements: &[String]) -> PlanCacheProbe {
    let probe = PlanCacheProbe {
        cache: PlanCache::new(ServeOptions::default().plan_cache_capacity),
        reader,
    };
    statements.iter().for_each(|s| probe.lookup(s));
    probe
}

impl PlanCacheProbe {
    /// `PlanCache::lookup_or_parse`, as a worker calls it.
    pub fn lookup(&self, uql: &str) {
        self.cache
            .lookup_or_parse(uql, |text| self.reader.0.parse_uql(text))
            .expect("statement parses");
    }
}

pub struct AdmissionProbe(std::sync::Arc<AdmissionGate>);

pub fn admission_probe() -> AdmissionProbe {
    AdmissionProbe(AdmissionGate::new(ServeOptions::default().max_inflight))
}

impl AdmissionProbe {
    /// `try_admit` and release.
    pub fn admit(&self) {
        drop(self.0.try_admit().expect("an idle gate admits"));
    }
}

// ----- commit_disk: the durable tier ----------------------------------------

pub struct DiskDb(DiskDatabase);

/// Create the vehicle database in `dir` with the workload's stated options
/// (background checkpoints stay off), load `pop`, commit and checkpoint.
pub fn create_disk_db(dir: &Path, pop: &Population) -> (DiskDb, Vec<u32>) {
    let (schema, classes) = vehicle_schema();
    let options = DiskOptions {
        page_size: PAGE_SIZE,
        pool_pages: 1 << 16,
        config: BTreeConfig::default(),
        group_commit: 8,
        checkpoint_every: 32,
    };
    let mut db = Database::create_on_disk(schema, dir, options).expect("create on disk");
    let oids = populate(&mut db, &classes, pop).expect("populate");
    db.checkpoint().expect("checkpoint the loaded database");
    (DiskDb(db), oids)
}

/// How `open_on_disk` found the store.
pub struct Reopened {
    pub db: DiskDb,
    /// `OpenReport::clean()`: verified from its own files.
    pub clean: bool,
    pub rebuilt: bool,
}

pub fn open_disk_db(dir: &Path) -> Result<Reopened, String> {
    let (db, report) = Database::open_on_disk(dir).map_err(|e| e.to_string())?;
    Ok(Reopened {
        db: DiskDb(db),
        clean: report.clean(),
        rebuilt: report.rebuilt,
    })
}

impl DiskDb {
    pub fn set_color(&mut self, oid: u32, color: u8) -> Result<(), String> {
        self.0
            .set_attr(Oid(oid), "Color", Value::Str(color_name(color).into()))
            .map(drop)
            .map_err(|e| e.to_string())
    }

    pub fn commit(&mut self) -> Result<(), String> {
        self.0.commit().map_err(|e| e.to_string())
    }

    /// Vehicles of one colour, through the `color` index.
    pub fn color_count(&self, color: u8) -> Result<u64, String> {
        let uql = format!("color: Color = '{}'", color_name(color));
        match self.0.query_uql(&uql) {
            Ok((hits, _)) => Ok(hits.len() as u64),
            Err(e) => Err(e.to_string()),
        }
    }

    /// `ObjectStore::to_bytes`: the snapshot every commit rewrites.
    pub fn object_snapshot_len(&self) -> usize {
        self.0.store().to_bytes().len()
    }

    /// Checkpoint and close.
    pub fn close(self) -> Result<(), String> {
        self.0.close().map_err(|e| e.to_string())
    }
}
