//! Receive-side state per transmitter: the Block ACK scoreboard (what to
//! put in the bitmap), duplicate suppression, and the 802.11n reorder
//! buffer that delivers MSDUs to the upper layer in sequence order.
//!
//! In aggregation mode the buffer holds out-of-order MPDUs until the gap
//! fills, a BAR advances the window, or the 64-deep window overflows —
//! at which point held MSDUs are released (with gaps; TCP above deals
//! with the loss). In single-MPDU (802.11a) mode frames are delivered
//! immediately and only duplicates are suppressed, since the transmitter
//! never reorders.

use std::collections::{BTreeMap, VecDeque};

use hack_phy::StationId;

use crate::actions::Action;
use crate::frame::{AckBitmap, SeqNum, SEQ_SPACE};

/// Per-transmitter receive state.
#[derive(Debug)]
pub struct RxReorder<M> {
    src: StationId,
    /// Deliver strictly in order (802.11n aggregation) or immediately
    /// (802.11a single MPDUs).
    ordered: bool,
    /// Next sequence number owed to the upper layer.
    win_start: SeqNum,
    /// Out-of-order MPDUs held for delivery, keyed by distance from
    /// `win_start` at insertion time is wrong under wrap, so key by raw
    /// seq and consult distances on use.
    held: BTreeMap<u16, M>,
    /// Scoreboard of received-but-possibly-undelivered seqs for BA
    /// bitmaps and duplicate detection, as distances are recomputed per
    /// query: we keep the most recent 128 received seqs, oldest first.
    seen: VecDeque<SeqNum>,
    /// Membership bit per 12-bit sequence number for the seqs in
    /// `seen`. `seen` never holds a seq twice (only non-duplicates are
    /// noted), so setting a bit on push and clearing it on eviction keeps
    /// the set exact and the duplicate check O(1).
    seen_set: [u64; SEEN_WORDS],
    /// Highest (newest) sequence number ever received.
    highest: Option<SeqNum>,
}

const SEEN_CAP: usize = 128;

/// Words in the `seen` membership bitset: one bit per sequence number.
const SEEN_WORDS: usize = SEQ_SPACE as usize / 64;

impl<M> RxReorder<M> {
    /// New receive state for frames from `src`. The window starts at
    /// sequence 0 — the implicit Block ACK agreement starting point
    /// (transmitters assign sequence numbers from 0 per destination).
    /// Aligning to the first *received* frame instead would silently
    /// mark a lost first MPDU as delivered.
    pub fn new(src: StationId, ordered: bool) -> Self {
        RxReorder {
            src,
            ordered,
            win_start: SeqNum::new(0),
            held: BTreeMap::new(),
            seen: VecDeque::new(),
            seen_set: [0; SEEN_WORDS],
            highest: None,
        }
    }

    /// The transmitter this state tracks.
    pub fn src(&self) -> StationId {
        self.src
    }

    /// Next in-order sequence number owed upward.
    pub fn window_start(&self) -> SeqNum {
        self.win_start
    }

    /// Highest sequence number received so far.
    pub fn highest(&self) -> Option<SeqNum> {
        self.highest
    }

    /// Has `seq` been received before?
    pub fn is_duplicate(&self, seq: SeqNum) -> bool {
        let v = usize::from(seq.value());
        self.seen_set[v / 64] & (1 << (v % 64)) != 0
    }

    fn note_seen(&mut self, seq: SeqNum) {
        if self.seen.len() == SEEN_CAP {
            let old = usize::from(self.seen.pop_front().expect("full").value());
            self.seen_set[old / 64] &= !(1 << (old % 64));
        }
        self.seen.push_back(seq);
        let v = usize::from(seq.value());
        self.seen_set[v / 64] |= 1 << (v % 64);
        let newer = match self.highest {
            None => true,
            Some(h) => seq.is_newer_than(h),
        };
        if newer {
            self.highest = Some(seq);
        }
    }

    /// Offer one decoded MPDU. Appends an [`Action::Deliver`] to `out`
    /// for every MSDU it releases upward (possibly several, when it fills
    /// a gap; possibly none, when it is buffered), leaving what `out`
    /// already holds untouched. Returns whether the MPDU was new (false =
    /// duplicate of something already received).
    pub fn on_mpdu(&mut self, seq: SeqNum, msdu: M, out: &mut Vec<Action<M>>) -> bool {
        if self.is_duplicate(seq) {
            return false;
        }
        self.note_seen(seq);

        if !self.ordered {
            // Immediate delivery, duplicates already filtered.
            if seq == self.win_start || seq.is_newer_than(self.win_start) {
                self.win_start = seq.next();
            }
            self.deliver(msdu, out);
            return true;
        }

        // Ordered (Block ACK) path.
        let dist = seq.dist_from(self.win_start);
        if dist == 0 {
            // In order: straight through, then whatever it unblocks.
            self.deliver(msdu, out);
            self.win_start = seq.next();
            self.drain_in_order(out);
            return true;
        }
        if dist >= 2048 {
            // Behind the window: old duplicate that fell out of `seen`.
            return false;
        }
        if dist >= 64 {
            // Window overflow: slide forward to seq-63, releasing
            // everything that falls out (with gaps).
            let new_start = seq.add(4096 - 63);
            self.release_before(new_start, out);
            self.win_start = new_start;
        }
        self.held.insert(seq.value(), msdu);
        self.drain_in_order(out);
        true
    }

    /// A Block ACK Request names `start`: release everything held below
    /// it and advance the window, appending the deliveries to `out`.
    pub fn on_bar(&mut self, start: SeqNum, out: &mut Vec<Action<M>>) {
        if !start.is_newer_than(self.win_start) {
            return;
        }
        self.release_before(start, out);
        self.win_start = start;
        self.drain_in_order(out);
    }

    fn deliver(&self, msdu: M, out: &mut Vec<Action<M>>) {
        out.push(Action::Deliver {
            src: self.src,
            msdu,
        });
    }

    /// Release held MSDUs with seq strictly before `bound` (in order).
    fn release_before(&mut self, bound: SeqNum, out: &mut Vec<Action<M>>) {
        let mut keys: Vec<u16> = self
            .held
            .keys()
            .copied()
            .filter(|&k| bound.is_newer_than(SeqNum::new(k)))
            .collect();
        keys.sort_by_key(|&k| SeqNum::new(k).dist_from(self.win_start));
        for k in keys {
            let msdu = self.held.remove(&k).expect("key present");
            self.deliver(msdu, out);
        }
    }

    /// Deliver consecutively from `win_start` while held.
    fn drain_in_order(&mut self, out: &mut Vec<Action<M>>) {
        while let Some(msdu) = self.held.remove(&self.win_start.value()) {
            self.deliver(msdu, out);
            self.win_start = self.win_start.next();
        }
    }

    /// Build the Block ACK bitmap describing the current window: starts
    /// at the oldest unresolved point and marks everything received
    /// within 64 seqs. Window start alone tells the transmitter that all
    /// older seqs were delivered.
    pub fn ba_bitmap(&self) -> AckBitmap {
        let mut bm = AckBitmap::new(self.win_start);
        for &s in &self.seen {
            bm.set(s); // set() ignores seqs outside the 64 window
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::TimerKind;

    const AP: StationId = StationId(0);

    fn sb(ordered: bool) -> RxReorder<u32> {
        RxReorder::new(AP, ordered)
    }

    /// What `on_mpdu` answers: whether the MPDU was new, and the
    /// (source, MSDU) pairs it released.
    struct Accept {
        is_new: bool,
        deliver: Vec<(StationId, u32)>,
    }

    fn delivered(out: Vec<Action<u32>>) -> Vec<(StationId, u32)> {
        out.into_iter()
            .map(|a| match a {
                Action::Deliver { src, msdu } => (src, msdu),
                other => panic!("reorder emitted {other:?}"),
            })
            .collect()
    }

    fn offer(r: &mut RxReorder<u32>, seq: u16, msdu: u32) -> Accept {
        let mut out = Vec::new();
        let is_new = r.on_mpdu(SeqNum::new(seq), msdu, &mut out);
        Accept {
            is_new,
            deliver: delivered(out),
        }
    }

    fn bar(r: &mut RxReorder<u32>, start: u16) -> Vec<(StationId, u32)> {
        let mut out = Vec::new();
        r.on_bar(SeqNum::new(start), &mut out);
        delivered(out)
    }

    #[test]
    fn in_order_delivery() {
        let mut r = sb(true);
        for i in 0..5u16 {
            let acc = offer(&mut r, i, u32::from(i));
            assert!(acc.is_new);
            assert_eq!(acc.deliver, vec![(AP, u32::from(i))]);
        }
        assert_eq!(r.window_start(), SeqNum::new(5));
    }

    #[test]
    fn appends_to_a_non_empty_buffer_without_disturbing_it() {
        let mut r = sb(true);
        let mut out = vec![
            Action::CancelTimer {
                kind: TimerKind::TxStart,
            },
            Action::Deliver {
                src: StationId(9),
                msdu: 99,
            },
        ];
        // Held (gap at 0), duplicate, then the gap-filler and a BAR.
        assert!(r.on_mpdu(SeqNum::new(1), 1, &mut out));
        assert!(!r.on_mpdu(SeqNum::new(1), 1, &mut out));
        assert_eq!(out.len(), 2, "nothing released yet");
        assert!(r.on_mpdu(SeqNum::new(0), 0, &mut out));
        assert!(r.on_mpdu(SeqNum::new(3), 3, &mut out));
        r.on_bar(SeqNum::new(3), &mut out);
        assert!(matches!(
            out[0],
            Action::CancelTimer {
                kind: TimerKind::TxStart
            }
        ));
        assert_eq!(
            delivered(out.split_off(1)),
            vec![(StationId(9), 99), (AP, 0), (AP, 1), (AP, 3)]
        );
    }

    #[test]
    fn gap_holds_until_filled() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        // 2 arrives before 1: held.
        let acc = offer(&mut r, 2, 2);
        assert!(acc.is_new);
        assert!(acc.deliver.is_empty());
        // 1 fills the gap: both released in order.
        let acc = offer(&mut r, 1, 1);
        assert_eq!(acc.deliver, vec![(AP, 1), (AP, 2)]);
        assert_eq!(r.window_start(), SeqNum::new(3));
    }

    #[test]
    fn duplicates_not_redelivered_but_reacked() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        let acc = offer(&mut r, 0, 0);
        assert!(!acc.is_new);
        assert!(acc.deliver.is_empty());
        // The bitmap still covers it via the advanced window start.
        let bm = r.ba_bitmap();
        assert_eq!(bm.start, SeqNum::new(1));
    }

    #[test]
    fn bar_flushes_gap() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        offer(&mut r, 2, 2);
        offer(&mut r, 3, 3);
        // Transmitter gave up on seq 1 and BARs at 2: held frames flush.
        let out = bar(&mut r, 2);
        assert_eq!(out, vec![(AP, 2), (AP, 3)]);
        assert_eq!(r.window_start(), SeqNum::new(4));
    }

    #[test]
    fn bar_behind_window_is_noop() {
        let mut r = sb(true);
        for i in 0..4u16 {
            offer(&mut r, i, u32::from(i));
        }
        let out = bar(&mut r, 1);
        assert!(out.is_empty());
        assert_eq!(r.window_start(), SeqNum::new(4));
    }

    #[test]
    fn window_overflow_releases_stale_head() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        // Lose seq 1; receive 2..=64 (window start stuck at 1, 63 held).
        for i in 2..=64u16 {
            let acc = offer(&mut r, i, u32::from(i));
            assert!(acc.deliver.is_empty(), "seq {i} must be held");
        }
        // Seq 65 is 64 beyond win_start=1: slide to 65-63=2, release 2..,
        // then 65 itself joins in-order drain only after 64.
        let acc = offer(&mut r, 65, 65);
        assert!(acc.is_new);
        let vals: Vec<u32> = acc.deliver.iter().map(|&(_, v)| v).collect();
        assert_eq!(vals, (2..=65).collect::<Vec<u32>>());
        assert_eq!(r.window_start(), SeqNum::new(66));
    }

    #[test]
    fn window_starts_at_zero_so_lost_first_mpdu_stays_unacked() {
        // If MPDU 0 of the very first batch is lost and MPDU 1 arrives,
        // the Block ACK must NOT cover seq 0 — the transmitter needs to
        // retransmit it.
        let mut r = sb(true);
        let acc = offer(&mut r, 1, 1);
        assert!(acc.deliver.is_empty(), "held until seq 0 arrives");
        let bm = r.ba_bitmap();
        assert_eq!(bm.start, SeqNum::new(0));
        assert!(!bm.contains(SeqNum::new(0)));
        assert!(bm.contains(SeqNum::new(1)));
        // The retransmission completes the pair in order.
        let acc = offer(&mut r, 0, 0);
        assert_eq!(acc.deliver, vec![(AP, 0), (AP, 1)]);
    }

    #[test]
    fn unordered_mode_delivers_immediately_with_dedup() {
        let mut r = sb(false);
        assert_eq!(offer(&mut r, 0, 0).deliver.len(), 1);
        // Gap: seq 2 delivered immediately despite missing 1.
        assert_eq!(offer(&mut r, 2, 2).deliver.len(), 1);
        // Retransmitted dup suppressed.
        let acc = offer(&mut r, 2, 2);
        assert!(!acc.is_new);
        assert!(acc.deliver.is_empty());
        // Late arrival of 1 still delivered (upper layer reorders).
        assert_eq!(offer(&mut r, 1, 1).deliver.len(), 1);
    }

    #[test]
    fn ba_bitmap_reflects_window() {
        let mut r = sb(true);
        offer(&mut r, 0, 0);
        offer(&mut r, 2, 2);
        offer(&mut r, 5, 5);
        let bm = r.ba_bitmap();
        assert_eq!(bm.start, SeqNum::new(1));
        assert!(!bm.contains(SeqNum::new(1)));
        assert!(bm.contains(SeqNum::new(2)));
        assert!(bm.contains(SeqNum::new(5)));
        // seq 0 is covered by start > 0, not by a bit.
        assert!(SeqNum::new(1).is_newer_than(SeqNum::new(0)));
    }

    #[test]
    fn seq_wrap_handled() {
        // Walk the window all the way around the 12-bit space and cross
        // the wrap boundary in-order.
        let mut r = sb(true);
        for i in 0..4096u32 {
            let acc = offer(&mut r, i as u16, i);
            assert_eq!(acc.deliver.len(), 1, "i={i}");
        }
        assert_eq!(r.window_start(), SeqNum::new(0));
        for i in 0..6u32 {
            let acc = offer(&mut r, i as u16, 5000 + i);
            // Seqs 0..6 were seen 4096 frames ago but have fallen out of
            // the dedup history: they deliver again as the new epoch.
            assert_eq!(acc.deliver.len(), 1, "wrap i={i}");
        }
        assert_eq!(r.window_start(), SeqNum::new(6));
        assert_eq!(r.highest(), Some(SeqNum::new(5)));
    }

    #[test]
    fn highest_tracks_newest() {
        let mut r = sb(true);
        offer(&mut r, 10, 10);
        offer(&mut r, 12, 12);
        offer(&mut r, 11, 11);
        assert_eq!(r.highest(), Some(SeqNum::new(12)));
    }
}
