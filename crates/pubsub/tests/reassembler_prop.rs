//! Property tests for `pubsub::reliable::Reassembler`: no interleaving
//! of loss, duplication, and reordering may ever produce an
//! out-of-order or duplicate delivery, and whatever survives the
//! network must be delivered exactly once, in sequence order.

use proptest::prelude::*;
use pubsub::reliable::{Offer, Reassembler};

/// One network action applied to a stream of sequenced batches.
#[derive(Debug, Clone)]
enum NetOp {
    /// Deliver the batch at this (wrapped) index of the pending set.
    Deliver(usize),
    /// Re-deliver an already-delivered batch (a network duplicate).
    Redeliver(usize),
    /// Drop the batch at this index — it never arrives.
    Drop(usize),
}

fn net_ops() -> impl Strategy<Value = Vec<NetOp>> {
    // Deliver-heavy mix (4:1:1) so streams usually make progress while
    // duplicates and drops stay common enough to matter.
    prop::collection::vec(
        (0usize..6, 0usize..64).prop_map(|(variant, i)| match variant {
            0..=3 => NetOp::Deliver(i),
            4 => NetOp::Redeliver(i),
            _ => NetOp::Drop(i),
        }),
        1..200,
    )
}

/// A delivered batch: sequence number plus its payload bytes.
type Delivered = Vec<(u64, Vec<u8>)>;

/// Drives a reassembler through an arbitrary interleaving and returns
/// every delivered `(seq, payload)` in delivery order, plus the set of
/// sequences the network actually dropped.
fn drive(total: u64, ops: &[NetOp]) -> (Delivered, Vec<u64>, Reassembler) {
    let payload = |seq: u64| vec![seq as u8, (seq >> 8) as u8];
    let mut in_flight: Vec<u64> = (1..=total).collect();
    let mut arrived: Vec<u64> = Vec::new();
    let mut dropped: Vec<u64> = Vec::new();
    let mut delivered: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut r = Reassembler::new();

    // The receiver's loop: deliver the borrowed in-order payload, then
    // every buffered successor it unblocked.
    let push = |r: &mut Reassembler, seq: u64, delivered: &mut Vec<(u64, Vec<u8>)>| {
        let wire = payload(seq);
        if r.offer(seq, &wire) == Offer::Deliver {
            delivered.push((seq, wire));
            delivered.extend(std::iter::from_fn(|| r.pop_ready()));
        }
    };

    for op in ops {
        match op {
            NetOp::Deliver(i) => {
                if in_flight.is_empty() {
                    continue;
                }
                let seq = in_flight.remove(i % in_flight.len());
                arrived.push(seq);
                push(&mut r, seq, &mut delivered);
            }
            NetOp::Redeliver(i) => {
                if arrived.is_empty() {
                    continue;
                }
                let seq = arrived[i % arrived.len()];
                push(&mut r, seq, &mut delivered);
            }
            NetOp::Drop(i) => {
                if in_flight.is_empty() {
                    continue;
                }
                dropped.push(in_flight.remove(i % in_flight.len()));
            }
        }
    }
    // The dissemination layer eventually retransmits everything lost in
    // flight (or the receiver NACKs it); model full recovery by
    // re-offering whatever never arrived.
    for seq in in_flight {
        push(&mut r, seq, &mut delivered);
    }
    (delivered, dropped, r)
}

proptest! {
    /// Core exactly-once/in-order property: under any interleaving of
    /// delivery, duplication, and loss-then-retransmit, the delivered
    /// stream is a strictly increasing run of sequence numbers with no
    /// duplicates, payloads intact, and — once the permanently-dropped
    /// sequences are skipped — every surviving batch is delivered.
    #[test]
    fn no_interleaving_breaks_order_or_exactly_once(
        total in 1u64..64,
        ops in net_ops(),
    ) {
        let (mut delivered, dropped, mut r) = drive(total, &ops);

        // Strictly increasing => no duplicates and no reordering.
        for w in delivered.windows(2) {
            prop_assert!(
                w[0].0 < w[1].0,
                "delivery order violated: seq {} then {}",
                w[0].0,
                w[1].0
            );
        }
        // Payload integrity: each batch carries its own sequence.
        for (seq, payload) in &delivered {
            prop_assert_eq!(payload[0] as u64 | ((payload[1] as u64) << 8), *seq);
        }

        // Permanent losses stall the stream at the first gap; abandoning
        // the gaps (as the GPA does when retries run out) must flush
        // every remaining survivor, still in order.
        let mut skip_targets: Vec<u64> = dropped.clone();
        skip_targets.sort_unstable();
        for gap_seq in skip_targets {
            r.skip_to(gap_seq + 1);
            delivered.extend(std::iter::from_fn(|| r.pop_ready()));
        }
        let got: Vec<u64> = delivered.iter().map(|(s, _)| *s).collect();
        let expected: Vec<u64> = (1..=total).filter(|s| !dropped.contains(s)).collect();
        prop_assert_eq!(got, expected, "every survivor delivered exactly once, in order");
        prop_assert_eq!(r.pending_len(), 0, "nothing left buffered after recovery");
    }

    /// Offering the same sequence twice is *always* reported as a
    /// duplicate, whether it was delivered or is still buffered.
    #[test]
    fn duplicate_offers_are_always_flagged(seqs in prop::collection::vec(1u64..32, 1..64)) {
        let mut r = Reassembler::new();
        let mut seen: Vec<u64> = Vec::new();
        for seq in seqs {
            let outcome = r.offer(seq, &[]);
            if seen.contains(&seq) {
                prop_assert_eq!(
                    outcome,
                    Offer::Duplicate,
                    "seq {} offered twice must be flagged",
                    seq
                );
            } else {
                prop_assert!(outcome != Offer::Duplicate, "fresh seq {} not a duplicate", seq);
                seen.push(seq);
            }
        }
    }

    /// `gap()` is `Some` exactly when something is buffered past a hole,
    /// and always spans `next_expected ..= first_buffered - 1`.
    #[test]
    fn gap_reporting_matches_buffer_state(
        total in 1u64..32,
        ops in net_ops(),
    ) {
        let payload = |seq: u64| vec![seq as u8];
        let mut in_flight: Vec<u64> = (1..=total).collect();
        let mut r = Reassembler::new();
        for op in &ops {
            let NetOp::Deliver(i) = op else { continue };
            if in_flight.is_empty() {
                break;
            }
            let seq = in_flight.remove(i % in_flight.len());
            if r.offer(seq, &payload(seq)) == Offer::Deliver {
                while r.pop_ready().is_some() {}
            }
            match r.gap() {
                Some((lo, hi)) => {
                    prop_assert_eq!(lo, r.next_expected());
                    prop_assert!(hi >= lo, "gap ({}, {}) is a real range", lo, hi);
                    prop_assert!(r.pending_len() > 0, "a gap implies buffered successors");
                }
                None => prop_assert_eq!(
                    r.pending_len(),
                    0,
                    "no gap implies nothing buffered"
                ),
            }
        }
    }
}
