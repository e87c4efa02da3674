//! End-to-end flows through the sans-IO station state machine, driven by
//! hand without a medium: two stations' actions are shuttled between them
//! by the test harness. These tests pin the protocol behaviours the HACK
//! design depends on (§3 of the paper).

use hack_mac::frame::sizes;
use hack_mac::{
    AckBitmap, Action, Frame, HackBlob, MacConfig, Msdu, OverheardPpdu, RespKind, SeqNum, Station,
    TimerKind,
};
use hack_phy::{PhyRate, StationId};
use hack_sim::{SimDuration, SimRng, SimTime};

const AP: StationId = StationId(0);
const C1: StationId = StationId(1);

#[derive(Debug, Clone, PartialEq, Eq)]
struct Pkt {
    len: u32,
    is_ack: bool,
    id: u32,
}

impl Pkt {
    fn data(id: u32) -> Self {
        Pkt {
            len: 1500,
            is_ack: false,
            id,
        }
    }
}

impl Msdu for Pkt {
    fn wire_len(&self) -> u32 {
        self.len
    }
    fn is_transport_ack(&self) -> bool {
        self.is_ack
    }
}

type Act = Action<Pkt>;

/// Collect what one station callback appends to a fresh buffer.
fn run(f: impl FnOnce(&mut Vec<Act>)) -> Vec<Act> {
    let mut out = Vec::new();
    f(&mut out);
    out
}

fn sta(id: StationId, cfg: MacConfig) -> Station<Pkt> {
    Station::new(id, cfg, SimRng::new(7).fork(u64::from(id.0)))
}

/// Extract the single armed timer of `kind` from actions.
fn timer_at(actions: &[Act], kind: TimerKind) -> Option<SimTime> {
    actions.iter().find_map(|a| match a {
        Action::SetTimer { kind: k, at } if *k == kind => Some(*at),
        _ => None,
    })
}

fn start_tx(actions: &[Act]) -> Option<&hack_mac::TxDescriptor<Pkt>> {
    actions.iter().find_map(|a| match a {
        Action::StartTx(d) => Some(d),
        _ => None,
    })
}

/// Walk a station from "enqueue" through its TxStart timer, returning the
/// transmitted descriptor and the transmission start time.
fn drive_to_tx(
    station: &mut Station<Pkt>,
    pkts: Vec<Pkt>,
    dst: StationId,
    now: SimTime,
) -> (hack_mac::TxDescriptor<Pkt>, SimTime) {
    let mut acts = Vec::new();
    for p in pkts {
        acts.extend(run(|o| station.enqueue(dst, p, now, o)));
    }
    let tx_at = timer_at(&acts, TimerKind::TxStart).expect("contention armed");
    let acts = run(|o| station.on_timer(TimerKind::TxStart, tx_at, o));
    let desc = start_tx(&acts).expect("transmission started").clone();
    (desc, tx_at)
}

#[test]
fn contention_waits_at_least_difs() {
    let mut a = sta(AP, MacConfig::dot11a(PhyRate::dot11a(54)));
    let t0 = SimTime::from_millis(1);
    let acts = run(|o| a.enqueue(C1, Pkt::data(0), t0, o));
    let tx_at = timer_at(&acts, TimerKind::TxStart).unwrap();
    assert!(tx_at >= t0 + SimDuration::from_micros(34), "DIFS = 34 µs");
    assert!(
        tx_at <= t0 + SimDuration::from_micros(34 + 15 * 9),
        "within CWmin backoff"
    );
}

#[test]
fn dot11a_single_frame_exchange_with_ack() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let mut ap = sta(AP, cfg.clone());
    let mut c1 = sta(C1, cfg.clone());
    let t0 = SimTime::from_millis(1);

    let (desc, tx_at) = drive_to_tx(&mut ap, vec![Pkt::data(0)], C1, t0);
    assert_eq!(desc.frames.len(), 1);
    assert!(!desc.is_response);

    // Airtime elapses; client receives, AP's tx ends.
    let rx_t = tx_at + desc.duration;
    let acts_ap = run(|o| ap.on_tx_end(rx_t, o));
    let ack_to = timer_at(&acts_ap, TimerKind::AckTimeout).unwrap();
    assert_eq!(ack_to, rx_t + cfg.ack_timeout());

    let acts_c1 = run(|o| c1.on_rx_ppdu(desc.frames.clone(), false, rx_t, o));
    // Client delivers the MSDU upward and schedules a SIFS ACK.
    assert!(acts_c1.iter().any(|a| matches!(
        a,
        Action::Deliver { src, msdu } if *src == AP && msdu.id == 0
    )));
    let resp_at = timer_at(&acts_c1, TimerKind::SendResponse).unwrap();
    assert_eq!(resp_at, rx_t + SimDuration::from_micros(16), "SIFS");
    // DataReceived fires for the driver with correct metadata.
    assert!(acts_c1.iter().any(|a| matches!(
        a,
        Action::DataReceived(info)
            if info.from == AP && info.mpdus_ok == 1 && !info.is_aggregate && info.advances_seq
    )));

    // Client sends the ACK.
    let acts_resp = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    let resp = start_tx(&acts_resp).unwrap().clone();
    assert!(resp.is_response);
    assert!(matches!(resp.frames[0], Frame::Ack { hack: None, .. }));
    assert_eq!(resp.rate.mbps(), 24, "ACK at the basic rate below 54");

    // AP receives the ACK before its timeout.
    let ack_rx = resp_at + resp.duration;
    assert!(ack_rx < ack_to, "ACK arrives before the timeout");
    let acts_done = run(|o| ap.on_rx_ppdu(resp.frames.clone(), false, ack_rx, o));
    assert!(acts_done.iter().any(|a| matches!(
        a,
        Action::CancelTimer {
            kind: TimerKind::AckTimeout
        }
    )));
    assert!(acts_done.iter().any(|a| matches!(
        a,
        Action::ResponseReceived { from, acked: 1, blob: None, .. } if *from == C1
    )));
    assert_eq!(ap.stats().mpdus_first_try.get(), 1);
    assert_eq!(ap.stats().mpdus_retried.get(), 0);
}

#[test]
fn ack_timeout_triggers_retransmission_with_retry_bit() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let mut ap = sta(AP, cfg.clone());
    let t0 = SimTime::from_millis(1);
    let (desc, tx_at) = drive_to_tx(&mut ap, vec![Pkt::data(0)], C1, t0);
    let end = tx_at + desc.duration;
    let acts = run(|o| ap.on_tx_end(end, o));
    let to_at = timer_at(&acts, TimerKind::AckTimeout).unwrap();

    // No ACK: timeout fires, contention re-arms.
    let acts = run(|o| ap.on_timer(TimerKind::AckTimeout, to_at, o));
    assert_eq!(ap.stats().ack_timeouts.get(), 1);
    let tx2_at = timer_at(&acts, TimerKind::TxStart).unwrap();
    let acts = run(|o| ap.on_timer(TimerKind::TxStart, tx2_at, o));
    let desc2 = start_tx(&acts).unwrap();
    match &desc2.frames[0] {
        Frame::Data(d) => {
            assert!(d.retry, "retransmission carries the retry bit");
            assert_eq!(d.seq, SeqNum::new(0), "same sequence number");
        }
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn dot11n_ampdu_block_ack_roundtrip() {
    let cfg = MacConfig::dot11n(PhyRate::ht(150));
    let mut ap = sta(AP, cfg.clone());
    let mut c1 = sta(C1, cfg.clone());
    let t0 = SimTime::from_millis(1);

    let pkts: Vec<Pkt> = (0..50).map(Pkt::data).collect();
    let (desc, tx_at) = drive_to_tx(&mut ap, pkts, C1, t0);
    assert_eq!(desc.frames.len(), 42, "64 KB A-MPDU of 1538 B MPDUs");

    let rx_t = tx_at + desc.duration;
    run(|o| ap.on_tx_end(rx_t, o));

    // Client decodes all but seqs 5 and 9.
    let partial: Vec<Frame<Pkt>> = desc
        .frames
        .iter()
        .filter(|f| match f {
            Frame::Data(d) => d.seq != SeqNum::new(5) && d.seq != SeqNum::new(9),
            _ => true,
        })
        .cloned()
        .collect();
    let acts = run(|o| c1.on_rx_ppdu(partial, true, rx_t, o));
    // In-order delivery stops at the first gap (seq 5).
    let delivered: Vec<u32> = acts
        .iter()
        .filter_map(|a| match a {
            Action::Deliver { msdu, .. } => Some(msdu.id),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, (0..5).collect::<Vec<u32>>());

    let resp_at = timer_at(&acts, TimerKind::SendResponse).unwrap();
    let acts = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    let resp = start_tx(&acts).unwrap().clone();
    let Frame::BlockAck { bitmap, .. } = &resp.frames[0] else {
        panic!("expected Block ACK");
    };
    assert_eq!(bitmap.start, SeqNum::new(5), "window stuck at first gap");
    assert!(!bitmap.contains(SeqNum::new(5)));
    assert!(!bitmap.contains(SeqNum::new(9)));
    assert!(bitmap.contains(SeqNum::new(6)));

    // AP resolves: 40 acked, 2 requeued; retransmission batch leads with
    // seqs 5 and 9 and the client then delivers the rest in order.
    let ba_rx = resp_at + resp.duration;
    let acts = run(|o| ap.on_rx_ppdu(resp.frames.clone(), false, ba_rx, o));
    assert!(acts
        .iter()
        .any(|a| matches!(a, Action::ResponseReceived { acked: 40, .. })));
    let tx2_at = timer_at(&acts, TimerKind::TxStart).unwrap();
    let acts = run(|o| ap.on_timer(TimerKind::TxStart, tx2_at, o));
    let desc2 = start_tx(&acts).unwrap().clone();
    let seqs: Vec<u16> = desc2
        .frames
        .iter()
        .filter_map(|f| match f {
            Frame::Data(d) => Some(d.seq.value()),
            _ => None,
        })
        .collect();
    assert_eq!(&seqs[..2], &[5, 9], "retransmissions first");
    assert_eq!(desc2.frames.len(), 10, "2 retx + remaining 8 new");

    run(|o| ap.on_tx_end(tx2_at + desc2.duration, o));
    let acts = run(|o| c1.on_rx_ppdu(desc2.frames.clone(), true, tx2_at + desc2.duration, o));
    let delivered: Vec<u32> = acts
        .iter()
        .filter_map(|a| match a {
            Action::Deliver { msdu, .. } => Some(msdu.id),
            _ => None,
        })
        .collect();
    assert_eq!(
        delivered,
        (5..50).collect::<Vec<u32>>(),
        "gap filled, all flushed"
    );
}

#[test]
fn missing_block_ack_solicits_bar() {
    let cfg = MacConfig::dot11n(PhyRate::ht(150));
    let mut ap = sta(AP, cfg.clone());
    let t0 = SimTime::from_millis(1);
    let (desc, tx_at) = drive_to_tx(&mut ap, (0..3).map(Pkt::data).collect(), C1, t0);
    let end = tx_at + desc.duration;
    let acts = run(|o| ap.on_tx_end(end, o));
    let to_at = timer_at(&acts, TimerKind::AckTimeout).unwrap();

    // Block ACK never arrives.
    let acts = run(|o| ap.on_timer(TimerKind::AckTimeout, to_at, o));
    let tx2_at = timer_at(&acts, TimerKind::TxStart).unwrap();
    let acts = run(|o| ap.on_timer(TimerKind::TxStart, tx2_at, o));
    let desc2 = start_tx(&acts).unwrap();
    assert!(
        matches!(desc2.frames[0], Frame::BlockAckReq { start, .. } if start == SeqNum::new(0)),
        "a BAR is sent instead of re-sending the whole batch"
    );
    assert_eq!(ap.stats().bars_sent.get(), 1);
}

#[test]
fn bar_exhaustion_emits_sync_batch() {
    let mut cfg = MacConfig::dot11n(PhyRate::ht(150)).with_hack_bits();
    cfg.timings.retry_limit = 2; // keep the test short
    let mut ap = sta(AP, cfg.clone());
    let t0 = SimTime::from_millis(1);
    let (desc, tx_at) = drive_to_tx(&mut ap, (0..3).map(Pkt::data).collect(), C1, t0);
    let mut now = tx_at + desc.duration;
    let mut acts = run(|o| ap.on_tx_end(now, o));

    let mut exhausted_acts = None;
    for _round in 0..5 {
        let to_at = timer_at(&acts, TimerKind::AckTimeout).unwrap();
        acts = run(|o| ap.on_timer(TimerKind::AckTimeout, to_at, o));
        if acts
            .iter()
            .any(|a| matches!(a, Action::BarExhausted { dst } if *dst == C1))
        {
            exhausted_acts = Some(acts.clone());
            break;
        }
        let tx_at = timer_at(&acts, TimerKind::TxStart).unwrap();
        acts = run(|o| ap.on_timer(TimerKind::TxStart, tx_at, o));
        let d = start_tx(&acts).unwrap();
        assert!(matches!(d.frames[0], Frame::BlockAckReq { .. }));
        now = tx_at + d.duration;
        acts = run(|o| ap.on_tx_end(now, o));
    }
    let exhausted_acts = exhausted_acts.expect("BAR retries must exhaust");
    assert_eq!(ap.stats().bars_exhausted.get(), 1);

    // The exhaustion path re-arms contention; the next data batch carries
    // SYNC and retransmits everything.
    let tx_at =
        timer_at(&exhausted_acts, TimerKind::TxStart).expect("contention armed after exhaustion");
    let acts = run(|o| ap.on_timer(TimerKind::TxStart, tx_at, o));
    let d = start_tx(&acts).unwrap();
    match &d.frames[0] {
        Frame::Data(dd) => {
            assert!(dd.sync, "SYNC bit set on the post-exhaustion batch");
            assert!(dd.retry);
        }
        other => panic!("expected data, got {other:?}"),
    }
}

#[test]
fn hack_blob_rides_block_ack_and_is_retained() {
    let cfg = MacConfig::dot11n(PhyRate::ht(150));
    let mut c1 = sta(C1, cfg.clone());
    let t0 = SimTime::from_millis(1);

    // Driver installs a compressed-ACK blob for the AP.
    c1.set_hack_blob(
        AP,
        HackBlob {
            bytes: vec![1, 2, 3, 4],
        },
    );

    // Data arrives from the AP; the Block ACK must carry the blob.
    let data = Frame::Data(hack_mac::DataMpdu {
        src: AP,
        dst: C1,
        seq: SeqNum::new(0),
        retry: false,
        more_data: true,
        sync: false,
        payload: Pkt::data(0),
    });
    let acts = run(|o| c1.on_rx_ppdu(vec![data.clone()], true, t0, o));
    let resp_at = timer_at(&acts, TimerKind::SendResponse).unwrap();
    let acts = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::ResponseSent { to, kind: RespKind::BlockAck, attached_blob: true } if *to == AP
    )));
    let resp = start_tx(&acts).unwrap();
    let Frame::BlockAck {
        hack: Some(blob), ..
    } = &resp.frames[0]
    else {
        panic!("Block ACK must carry the HACK blob");
    };
    assert_eq!(blob.bytes, vec![1, 2, 3, 4]);
    run(|o| c1.on_tx_end(resp_at + resp.duration, o));

    // Retention: the blob is still installed and rides the next response
    // too (until the driver clears it on a §3.4 confirmation signal).
    assert!(c1.hack_blob(AP).is_some());
    let t1 = t0 + SimDuration::from_millis(1);
    let data2 = Frame::Data(hack_mac::DataMpdu {
        src: AP,
        dst: C1,
        seq: SeqNum::new(1),
        retry: false,
        more_data: true,
        sync: false,
        payload: Pkt::data(1),
    });
    let acts = run(|o| c1.on_rx_ppdu(vec![data2], true, t1, o));
    let resp_at = timer_at(&acts, TimerKind::SendResponse).unwrap();
    let acts = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    let resp = start_tx(&acts).unwrap();
    assert!(
        matches!(&resp.frames[0], Frame::BlockAck { hack: Some(_), .. }),
        "blob retained across responses"
    );

    // Driver clears after confirmation: next response is plain.
    c1.clear_hack_blob(AP);
    run(|o| c1.on_tx_end(resp_at + resp.duration, o));
    let t2 = t1 + SimDuration::from_millis(1);
    let data3 = Frame::Data(hack_mac::DataMpdu {
        src: AP,
        dst: C1,
        seq: SeqNum::new(2),
        retry: false,
        more_data: false,
        sync: false,
        payload: Pkt::data(2),
    });
    let acts = run(|o| c1.on_rx_ppdu(vec![data3], true, t2, o));
    let resp_at = timer_at(&acts, TimerKind::SendResponse).unwrap();
    let acts = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::ResponseSent {
            attached_blob: false,
            ..
        }
    )));
}

#[test]
fn blob_only_attaches_to_the_hack_peer() {
    let cfg = MacConfig::dot11n(PhyRate::ht(150));
    let mut c1 = sta(C1, cfg.clone());
    let other = StationId(9);
    c1.set_hack_blob(AP, HackBlob { bytes: vec![7] });
    let data = Frame::Data(hack_mac::DataMpdu {
        src: other,
        dst: C1,
        seq: SeqNum::new(0),
        retry: false,
        more_data: false,
        sync: false,
        payload: Pkt::data(0),
    });
    let acts = run(|o| c1.on_rx_ppdu(vec![data], true, SimTime::from_millis(1), o));
    let resp_at = timer_at(&acts, TimerKind::SendResponse).unwrap();
    let acts = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::ResponseSent {
            attached_blob: false,
            ..
        }
    )));
}

#[test]
fn negotiation_gates_blob_attachment() {
    // The AP lacks the HACK capability bit: after association the client
    // must never attach a blob toward it, even with one installed.
    let mut ap_cfg = MacConfig::dot11n(PhyRate::ht(150));
    ap_cfg.hack_capable = false;
    let mut ap = sta(AP, ap_cfg);
    let mut c1 = sta(C1, MacConfig::dot11n(PhyRate::ht(150)));

    let resp = ap.on_assoc_request(&c1.assoc_request());
    assert!(!resp.hack_negotiated, "AP lacks the bit");
    c1.on_assoc_response(&resp);
    assert_eq!(c1.hack_negotiated(AP), Some(false));
    assert_eq!(ap.hack_negotiated(C1), Some(false));

    c1.set_hack_blob(AP, HackBlob { bytes: vec![7] });
    let data = Frame::Data(hack_mac::DataMpdu {
        src: AP,
        dst: C1,
        seq: SeqNum::new(0),
        retry: false,
        more_data: false,
        sync: false,
        payload: Pkt::data(0),
    });
    let acts = run(|o| c1.on_rx_ppdu(vec![data], true, SimTime::from_millis(1), o));
    let resp_at = timer_at(&acts, TimerKind::SendResponse).unwrap();
    let acts = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::ResponseSent {
            attached_blob: false,
            ..
        }
    )));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::StartTx(d) if matches!(&d.frames[0], Frame::BlockAck { hack: None, .. })
    )));
}

#[test]
fn negotiation_between_capable_stations_attaches_blob() {
    let mut ap = sta(AP, MacConfig::dot11n(PhyRate::ht(150)));
    let mut c1 = sta(C1, MacConfig::dot11n(PhyRate::ht(150)));
    let resp = ap.on_assoc_request(&c1.assoc_request());
    assert!(resp.hack_negotiated);
    c1.on_assoc_response(&resp);
    assert_eq!(c1.hack_negotiated(AP), Some(true));

    c1.set_hack_blob(AP, HackBlob { bytes: vec![7] });
    let data = Frame::Data(hack_mac::DataMpdu {
        src: AP,
        dst: C1,
        seq: SeqNum::new(0),
        retry: false,
        more_data: false,
        sync: false,
        payload: Pkt::data(0),
    });
    let acts = run(|o| c1.on_rx_ppdu(vec![data], true, SimTime::from_millis(1), o));
    let resp_at = timer_at(&acts, TimerKind::SendResponse).unwrap();
    let acts = run(|o| c1.on_timer(TimerKind::SendResponse, resp_at, o));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::ResponseSent {
            attached_blob: true,
            ..
        }
    )));
}

#[test]
fn busy_channel_pauses_and_resumes_backoff() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let mut ap = sta(AP, cfg);
    let t0 = SimTime::from_millis(1);
    let acts = run(|o| ap.enqueue(C1, Pkt::data(0), t0, o));
    let tx_at = timer_at(&acts, TimerKind::TxStart).unwrap();

    // Medium goes busy before our slot: timer cancelled.
    let busy_at = t0 + SimDuration::from_micros(20);
    assert!(busy_at < tx_at);
    let acts = run(|o| ap.on_channel_busy(busy_at, o));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::CancelTimer {
            kind: TimerKind::TxStart
        }
    )));

    // Idle again: contention resumes and eventually transmits.
    let idle_at = busy_at + SimDuration::from_micros(300);
    let acts = run(|o| ap.on_channel_idle(idle_at, o));
    let tx2_at = timer_at(&acts, TimerKind::TxStart).unwrap();
    assert!(tx2_at >= idle_at + SimDuration::from_micros(34));
    let acts = run(|o| ap.on_timer(TimerKind::TxStart, tx2_at, o));
    assert!(start_tx(&acts).is_some());
}

#[test]
fn overheard_data_sets_nav_and_blocks_contention() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let mut c1 = sta(C1, cfg);
    let t0 = SimTime::from_millis(1);
    // C1 wants to send to the AP.
    let acts = run(|o| c1.enqueue(AP, Pkt::data(0), t0, o));
    assert!(timer_at(&acts, TimerKind::TxStart).is_some());

    // Busy: another station transmits to someone else.
    run(|o| c1.on_channel_busy(t0 + SimDuration::from_micros(5), o));
    let rx_t = t0 + SimDuration::from_micros(250);
    let overheard = Frame::Data(hack_mac::DataMpdu {
        src: AP,
        dst: StationId(5),
        seq: SeqNum::new(0),
        retry: false,
        more_data: false,
        sync: false,
        payload: Pkt::data(0),
    });
    let ppdu = OverheardPpdu {
        mpdus_ok: 1,
        ..OverheardPpdu::of(&[overheard], false)
    };
    let acts = run(|o| c1.on_overheard(ppdu, rx_t, o));
    let nav_at = timer_at(&acts, TimerKind::NavExpire).expect("NAV armed");
    assert!(
        nav_at > rx_t + SimDuration::from_micros(16),
        "covers SIFS+ACK"
    );

    // Channel idle at frame end, but NAV blocks contention.
    let acts = run(|o| c1.on_channel_idle(rx_t, o));
    assert!(
        timer_at(&acts, TimerKind::TxStart).is_none(),
        "NAV must block contention"
    );
    // NAV expiry resumes it.
    let acts = run(|o| c1.on_timer(TimerKind::NavExpire, nav_at, o));
    assert!(timer_at(&acts, TimerKind::TxStart).is_some());
}

/// The summary an overhearer gets for a one-MPDU PPDU carrying `frame`.
fn overheard(frame: Frame<Pkt>, aggregated: bool) -> OverheardPpdu {
    OverheardPpdu {
        mpdus_ok: 1,
        ..OverheardPpdu::of(&[frame], aggregated)
    }
}

#[test]
fn overheard_data_or_bar_sets_nav_pauses_countdown_and_cancels_tx_start() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let data = Frame::Data(hack_mac::DataMpdu {
        src: AP,
        dst: StationId(5),
        seq: SeqNum::new(0),
        retry: false,
        more_data: false,
        sync: false,
        payload: Pkt::data(0),
    });
    let bar = Frame::BlockAckReq {
        src: AP,
        dst: StationId(5),
        start: SeqNum::new(0),
    };
    // (PPDU, whether it was an A-MPDU, the response it reserves for)
    let cases = [
        (data.clone(), false, sizes::ACK),
        (data, true, sizes::BLOCK_ACK),
        (bar, false, sizes::BLOCK_ACK),
    ];
    for (frame, aggregated, resp_bytes) in cases {
        let mut c1 = sta(C1, cfg.clone());
        let t0 = SimTime::from_millis(1);
        let acts = run(|o| c1.enqueue(AP, Pkt::data(0), t0, o));
        let tx_at = timer_at(&acts, TimerKind::TxStart).expect("countdown running");
        let rx_t = t0 + SimDuration::from_micros(20);
        assert!(rx_t < tx_at);

        let acts = run(|o| c1.on_overheard(overheard(frame.clone(), aggregated), rx_t, o));
        let resp_air = cfg
            .data_rate
            .basic_response_rate()
            .ppdu_duration(u64::from(resp_bytes));
        let nav_at = rx_t + cfg.timings.sifs + resp_air + SimDuration::from_micros(8);
        assert_eq!(
            timer_at(&acts, TimerKind::NavExpire),
            Some(nav_at),
            "{frame:?}: NAV = SIFS + basic-rate response + 8 µs"
        );
        assert!(
            acts.iter().any(|a| matches!(
                a,
                Action::CancelTimer {
                    kind: TimerKind::TxStart
                }
            )),
            "{frame:?}: the running countdown's TxStart is cancelled"
        );
        assert_eq!(acts.len(), 2, "{frame:?}: NAV timer and cancel only");

        // Paused, not lost: the countdown resumes once the NAV expires.
        let acts = run(|o| c1.on_timer(TimerKind::NavExpire, nav_at, o));
        let resumed = timer_at(&acts, TimerKind::TxStart).expect("countdown resumes");
        assert_eq!(
            resumed.duration_since(nav_at),
            tx_at.duration_since(t0),
            "{frame:?}: paused inside DIFS, the full backoff remains"
        );
    }
}

#[test]
fn overheard_ack_or_block_ack_only_clears_eifs() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let ack = Frame::Ack {
        src: AP,
        dst: StationId(5),
        hack: Some(HackBlob { bytes: vec![7] }),
    };
    let block_ack = Frame::BlockAck {
        src: AP,
        dst: StationId(5),
        bitmap: AckBitmap::new(SeqNum::new(0)),
        hack: None,
    };
    for frame in [ack, block_ack] {
        let mut c1 = sta(C1, cfg.clone());
        let t0 = SimTime::from_millis(1);
        let acts = run(|o| c1.enqueue(AP, Pkt::data(0), t0, o));
        let normal_tx = timer_at(&acts, TimerKind::TxStart).unwrap();

        // Busy, then a garbage reception arms EIFS; the overheard
        // response that follows decodes cleanly and clears it.
        run(|o| c1.on_channel_busy(t0 + SimDuration::from_micros(1), o));
        let g_t = t0 + SimDuration::from_micros(100);
        c1.on_rx_garbage(g_t);
        let acts = run(|o| c1.on_overheard(overheard(frame.clone(), false), g_t, o));
        assert!(acts.is_empty(), "{frame:?}: no NAV, no timer change");

        let acts = run(|o| c1.on_channel_idle(g_t, o));
        let tx_at = timer_at(&acts, TimerKind::TxStart).unwrap();
        assert_eq!(
            tx_at.duration_since(g_t),
            normal_tx.duration_since(t0),
            "{frame:?}: DIFS again, not EIFS"
        );
    }
}

#[test]
fn garbage_reception_forces_eifs() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let mut ap = sta(AP, cfg.clone());
    let t0 = SimTime::from_millis(1);
    let acts = run(|o| ap.enqueue(C1, Pkt::data(0), t0, o));
    let normal_tx = timer_at(&acts, TimerKind::TxStart).unwrap();

    // Busy then garbage: next contention uses EIFS.
    run(|o| ap.on_channel_busy(t0 + SimDuration::from_micros(1), o));
    let g_t = t0 + SimDuration::from_micros(100);
    ap.on_rx_garbage(g_t);
    assert_eq!(ap.stats().rx_garbage.get(), 1);
    let acts = run(|o| ap.on_channel_idle(g_t, o));
    let eifs_tx = timer_at(&acts, TimerKind::TxStart).unwrap();
    // Relative wait after idle must exceed the normal DIFS-based wait
    // after enqueue (same frozen backoff, longer IFS).
    let normal_wait = normal_tx.duration_since(t0);
    let eifs_wait = eifs_tx.duration_since(g_t);
    assert!(
        eifs_wait > normal_wait,
        "EIFS ({eifs_wait}) must exceed DIFS wait ({normal_wait})"
    );
}

#[test]
fn more_data_bit_reaches_rx_info() {
    let cfg = MacConfig::dot11n(PhyRate::ht(150)).with_hack_bits();
    let mut ap = sta(AP, cfg.clone());
    let mut c1 = sta(C1, MacConfig::dot11n(PhyRate::ht(150)));
    let t0 = SimTime::from_millis(1);
    // 50 packets: one full batch of 42 + backlog => MORE DATA set.
    let (desc, tx_at) = drive_to_tx(&mut ap, (0..50).map(Pkt::data).collect(), C1, t0);
    let acts = run(|o| c1.on_rx_ppdu(desc.frames.clone(), true, tx_at + desc.duration, o));
    assert!(acts.iter().any(|a| matches!(
        a,
        Action::DataReceived(info) if info.more_data
    )));
}

#[test]
fn transport_ack_class_accounted_separately() {
    let cfg = MacConfig::dot11a(PhyRate::dot11a(54));
    let mut c1 = sta(C1, cfg);
    let t0 = SimTime::from_millis(1);
    let ack_pkt = Pkt {
        len: 40,
        is_ack: true,
        id: 0,
    };
    let (_desc, _tx_at) = drive_to_tx(&mut c1, vec![ack_pkt], AP, t0);
    assert_eq!(c1.stats().airtime_ack.events(), 1);
    assert_eq!(c1.stats().airtime_data.events(), 0);
    assert!(c1.stats().acquire_wait_ack.total() > SimDuration::ZERO);
}
