//! The wire decoder's allocation budget, as a test instead of a comment.
//!
//! A decoded `RowBatch` keeps its payload in one shared buffer and every
//! row is a view of it, so decoding costs a constant per frame and
//! nothing per row. A counting global allocator (forwarding to the system
//! allocator, as in `uindex/tests/alloc_budget.rs`) counts
//! `alloc`/`realloc` calls per thread and pins two budgets:
//!
//! * **a row allocates nothing** — `decode_frame` of a `RowBatch` of 1 row
//!   and of 512 rows performs the same number of allocations;
//! * **a reply allocates per batch** — a client reading an `N`-batch
//!   reply allocates `O(N)` (the payload buffer, the batch's row vector
//!   and the reply vector's logarithmic regrowth), not `O(rows)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpListener;

use serve::proto::{self, DoneInfo, Frame, WireRow, BATCH_ROWS, DEFAULT_MAX_PAYLOAD};
use serve::Client;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump that neither allocates nor unwinds (`try_with` tolerates a
// thread that is tearing its locals down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performs on this thread, its result dropped included.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    drop(f());
    ALLOCATIONS.with(Cell::get) - before
}

/// `n` rows shaped like the serve workload's: a 36-byte key and a
/// three-position assignment.
fn rows(n: usize) -> Vec<WireRow> {
    (0..n)
        .map(|i| WireRow {
            key: (0..36).map(|b| (b ^ i) as u8).collect::<Vec<u8>>().into(),
            assignment: vec![Some(i as u32 % 7), None, Some(2)].into(),
        })
        .collect()
}

#[test]
fn decoding_a_row_batch_allocates_per_frame_not_per_row() {
    let one = proto::encode_frame(&Frame::RowBatch { rows: rows(1) });
    let full = proto::encode_frame(&Frame::RowBatch {
        rows: rows(BATCH_ROWS),
    });
    let decode = |bytes: &[u8]| {
        let (frame, _) = proto::decode_frame(bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        frame
    };
    let (a1, a512) = (allocations(|| decode(&one)), allocations(|| decode(&full)));
    assert_eq!(
        a1, a512,
        "1 row: {a1} allocations, {BATCH_ROWS} rows: {a512}"
    );
    // The shared payload buffer and the row vector.
    assert!(a512 <= 2, "a RowBatch decode performs {a512} allocations");
}

/// Serve `reply` once to the first connection: swallow its request frame,
/// write the reply bytes.
fn serve_once(reply: Vec<u8>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut header = [0u8; proto::HEADER_LEN];
        stream.read_exact(&mut header).unwrap();
        let len = u32::from_be_bytes(header[6..10].try_into().unwrap()) as usize;
        stream.read_exact(&mut vec![0u8; len]).unwrap();
        stream.write_all(&reply).unwrap();
    });
    addr
}

/// Allocations of one `Client::query` whose answer is `batches` full
/// `RowBatch` frames and `Done`.
fn query_allocations(batches: usize) -> u64 {
    let rows = rows(batches * BATCH_ROWS);
    let mut reply = Vec::new();
    for batch in rows.chunks(BATCH_ROWS) {
        reply.extend(proto::encode_frame(&Frame::RowBatch {
            rows: batch.to_vec(),
        }));
    }
    let done = DoneInfo {
        rows: rows.len() as u64,
        ..DoneInfo::default()
    };
    reply.extend(proto::encode_frame(&Frame::Done(done)));
    let mut client = Client::connect(serve_once(reply)).unwrap();
    let mut got = None;
    let n = allocations(|| got = Some(client.query("color: Color = 'Red'").unwrap()));
    let got = got.unwrap();
    assert_eq!((got.rows, got.done), (rows, done));
    n
}

#[test]
fn reading_a_reply_allocates_per_batch_not_per_row() {
    let one = query_allocations(1);
    let sixteen = query_allocations(16);
    // Per further batch: the payload buffer, the row vector, and at most
    // one regrowth of the reply's vector.
    assert!(
        sixteen - one <= 3 * 15,
        "1 batch: {one} allocations, 16 batches ({} rows): {sixteen}",
        16 * BATCH_ROWS
    );
}
