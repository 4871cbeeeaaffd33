//! Allocation discipline of the GPA's receive path: once warm,
//! `Gpa::ingest_wire` on an in-order sealed batch must allocate a fixed
//! number of times per batch, however many records the batch carries.
//! Frames are borrowed from the wire bytes, records decode into one
//! reusable raw row, and retention evicts in place, so nothing on the
//! path is per record: a stray `to_vec`, `Vec<Value>` or `Vec::remove`
//! would make the count grow with the batch.
//!
//! This file is its own test binary so the counting `#[global_allocator]`
//! observes only this test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pubsub::reliable::encode_batch;
use pubsub::Hub;
use simcore::{NodeId, SimTime};
use simnet::{EndPoint, FlowKey, Ip, Port};
use sysprof::{Gpa, GpaConfig, InteractionRecord, INTERACTION_TOPIC};

/// Counts every allocation and every (re)allocation on the test thread
/// while [`TRACK`] is set. The count is per thread, so libtest's own
/// threads never show up in it.
struct CountingAlloc;

thread_local! {
    // const-initialized so the first access inside `alloc` itself never
    // allocates.
    static TRACK: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_if_tracking() {
    if TRACK.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: pure pass-through to `System`, which upholds the GlobalAlloc
// contract; the only addition is a thread-local counter bump that never
// allocates or touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_tracking();
        // SAFETY: caller upholds GlobalAlloc's contract for `layout`;
        // forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller guarantees `ptr` came from this allocator with
        // this `layout`; forwarded unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_tracking();
        // SAFETY: caller guarantees `ptr`/`layout` validity per the
        // GlobalAlloc contract; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    TRACK.with(|t| t.set(true));
    f();
    TRACK.with(|t| t.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// Record `i`: a handful of flows and latencies that repeat, so warm-up
/// has already seen every class and every latency-histogram bin.
fn record(i: u64) -> InteractionRecord {
    let start_us = i * 100;
    InteractionRecord {
        node: NodeId(3),
        flow: FlowKey::new(
            EndPoint::new(Ip(10), Port(40_000 + (i % 8) as u16)),
            EndPoint::new(Ip(20), Port(80 + (i % 2) as u16)),
        ),
        class_port: Port(80 + (i % 2) as u16),
        pid: 7,
        start_us,
        end_us: start_us + 50 + (i % 5) * 10,
        req_packets: 1,
        req_bytes: 100 + i % 50,
        resp_packets: 2,
        resp_bytes: 200 + i % 70,
        kernel_in_us: 10,
        user_us: 20,
        kernel_out_us: 5,
        blocked_us: 0,
        blocked_io_us: 0,
    }
}

/// Publishes `n` records through `hub` and frames them into one batch,
/// exactly as the daemon frames its sends.
fn batch(hub: &mut Hub, next: &mut u64, n: u64) -> Vec<u8> {
    let schema = InteractionRecord::schema();
    let topic = hub.topic(INTERACTION_TOPIC);
    let (mut out, mut row) = (Vec::new(), Vec::new());
    for _ in 0..n {
        record(*next).to_raw_row(&mut row);
        *next += 1;
        for (_, wire) in hub.publish_raw(topic, &schema, &row).unwrap() {
            pbio::write_u64(&mut out, wire.len() as u64);
            out.extend_from_slice(&wire);
        }
    }
    out
}

#[test]
fn in_order_batch_allocations_do_not_grow_with_its_records() {
    let me = EndPoint::new(Ip(99), Port(9999));
    let src = EndPoint::new(Ip(1), Port(9997));
    let mut hub = Hub::new();
    let topic = hub.topic(INTERACTION_TOPIC);
    hub.subscribe(topic, me, None).unwrap();
    let mut gpa = Gpa::new(GpaConfig {
        max_records: 256,
        ..GpaConfig::default()
    });
    gpa.install_digest(
        "static int n = 0; static int worst = 0;
         n = n + 1; worst = max(worst, end_us - start_us); return n;",
        2,
    )
    .unwrap();
    let (mut next, mut seq) = (0u64, 0u64);
    let mut sealed = |hub: &mut Hub, n: u64| {
        seq += 1;
        encode_batch(seq, &batch(hub, &mut next, n))
    };
    // Warm-up: well past the retention cap, so the window has compacted
    // and every buffer has reached its steady size.
    for _ in 0..40 {
        let wire = sealed(&mut hub, 64);
        gpa.ingest_wire(SimTime::from_millis(1), me, src, &wire);
    }
    let mut counts = Vec::new();
    for n in [1u64, 64, 1, 200, 64, 200] {
        let wire = sealed(&mut hub, n);
        let mut decoded = 0;
        let allocs = allocations_in(|| {
            decoded = gpa.ingest_wire(SimTime::from_millis(1), me, src, &wire).0;
        });
        assert_eq!(decoded, n as usize);
        counts.push((n, allocs));
    }
    let first = counts[0].1;
    assert!(
        counts.iter().all(|&(_, a)| a == first),
        "allocations per batch must not depend on its record count: {counts:?} (records, allocations)"
    );
    // The retention window kept up, and counted what it dropped.
    assert_eq!(gpa.interaction_count(), 256);
    assert_eq!(
        gpa.interaction_count() + gpa.gpa_stats().records_evicted,
        next
    );
    assert_eq!(gpa.decode_failures(), 0);
}
