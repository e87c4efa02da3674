//! Layer stage timings, taken from outside the simulator: each stage
//! calls one layer crate's public functions in a loop shaped like the
//! workload and reports mean nanoseconds per call.
//!
//! The `sim`, `rohc` and `driver` stages are not re-implemented here:
//! [`bench_stages`] runs the repository's `bench` harness and reads its
//! per-stage results.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use hack_core::{encode_run_result, RunResult};
use hack_mac::{AckBitmap, DestQueue, MacConfig, Msdu, SeqNum};
use hack_phy::{LossModel, Medium, PhyRate, PpduMeta, StationId};
use hack_sim::{SimDuration, SimRng, SimTime};
use hack_tcp::{Connection, FiveTuple, Ipv4Addr, Ipv4Packet, SendBudget, TcpConfig, Transport};

/// Minimum host time one stage measures for.
const STAGE_TIME: std::time::Duration = std::time::Duration::from_millis(300);

/// Repeat `batch` (which performs `ops` calls and returns the host
/// nanoseconds they took) until [`STAGE_TIME`] has been measured, after
/// one unmeasured warm-up batch. Returns mean ns per call.
fn measure(mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    batch();
    let (mut ops, mut ns) = (0u64, 0u64);
    while ns < STAGE_TIME.as_nanos() as u64 {
        let (o, n) = batch();
        ops += o;
        ns += n;
    }
    ns as f64 / ops.max(1) as f64
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// `phy`: one `Medium::begin_tx` + `end_tx` pair, per PPDU, on a
/// medium of `listeners` stations in one interference domain. The AP
/// sends `mpdus`-MPDU aggregates to each client in turn and the client
/// answers with a one-MPDU control response, so half the PPDUs carry
/// the workload's aggregate and every one computes `listeners - 1`
/// receptions.
pub fn phy_tx_ns(listeners: u32, mpdus: u32, mpdu_bytes: u32, seed: u64) -> f64 {
    let stations: Vec<StationId> = (0..listeners.max(2)).map(StationId).collect();
    let n = stations.len() as u32;
    let mut medium = Medium::new(stations, LossModel::Ideal, None);
    let mut rng = SimRng::new(seed);
    let mut now = SimTime::ZERO;
    let mut data_lens = vec![mpdu_bytes; mpdus.max(1) as usize];
    let mut ctl_lens = vec![32u32];
    let mut client = 0u32;
    measure(|| {
        let t0 = Instant::now();
        for _ in 0..1_000 {
            client = client % (n - 1) + 1;
            for (src, dst, control) in [(0, client, false), (client, 0, true)] {
                let lens = if control {
                    &mut ctl_lens
                } else {
                    &mut data_lens
                };
                let duration = SimDuration::from_micros(if control { 32 } else { 300 });
                let meta = PpduMeta {
                    src: StationId(src),
                    dst: Some(StationId(dst)),
                    rate: PhyRate::ht(150),
                    mpdu_lens: std::mem::take(lens),
                    control,
                    duration,
                };
                let id = medium.begin_tx(meta, now);
                now += duration;
                let out = medium.end_tx(id, now, &mut rng);
                *lens = std::hint::black_box(out).meta.mpdu_lens;
                now += SimDuration::from_micros(16);
            }
        }
        (2_000, elapsed_ns(t0))
    })
}

#[derive(Debug, Clone)]
struct Pkt(u32);

impl Msdu for Pkt {
    fn wire_len(&self) -> u32 {
        self.0
    }
}

/// Queues prepared per measured batch (their set-up is not timed).
const MAC_BATCH: usize = 64;

/// `mac`: `DestQueue::build_batch` over a queue holding the workload's
/// mean A-MPDU of `mpdus` MSDUs of `mpdu_bytes` each, and the Block
/// ACK resolution (`on_block_ack`) of that batch. Returns ns per call
/// of each.
pub fn mac_ns(mpdus: u32, mpdu_bytes: u32) -> (f64, f64) {
    let cfg = MacConfig::dot11n(PhyRate::ht(150));
    let queue = || {
        let mut q = DestQueue::new(StationId(1));
        for _ in 0..mpdus.max(1) {
            q.enqueue(Pkt(mpdu_bytes));
        }
        q
    };
    let build = measure(|| {
        let mut qs: Vec<_> = (0..MAC_BATCH).map(|_| queue()).collect();
        let t0 = Instant::now();
        for q in &mut qs {
            std::hint::black_box(q.build_batch(StationId(0), &cfg));
        }
        (MAC_BATCH as u64, elapsed_ns(t0))
    });
    let resolve = measure(|| {
        let mut pairs: Vec<_> = (0..MAC_BATCH)
            .map(|_| {
                let mut q = queue();
                let batch = q.build_batch(StationId(0), &cfg);
                let mut bm = AckBitmap::new(SeqNum::new(0));
                for m in &batch {
                    bm.set(m.seq);
                }
                (q, bm)
            })
            .collect();
        let t0 = Instant::now();
        for (q, bm) in &mut pairs {
            std::hint::black_box(q.on_block_ack(bm, 7));
        }
        (MAC_BATCH as u64, elapsed_ns(t0))
    });
    (build, resolve)
}

fn tuple(port: u16) -> FiveTuple {
    FiveTuple {
        src_ip: Ipv4Addr::new(192, 168, 0, 2),
        dst_ip: Ipv4Addr::new(10, 0, 0, 1),
        src_port: port,
        dst_port: 5001,
        protocol: 6,
    }
}

fn is_data(p: &Ipv4Packet) -> bool {
    matches!(&p.transport, Transport::Tcp(t) if t.payload_len > 0)
}

/// Run one lossless download through a client/server `Connection`
/// pair: handshake, then data from the server and delayed ACKs from
/// the client, 1 ms apart in each direction, until `budget` is acked
/// (or `max_segments` data segments have been sent when unlimited).
/// Returns the data segments sent.
fn tcp_transfer(port: u16, budget: SendBudget, max_segments: u64) -> u64 {
    let hop = SimDuration::from_millis(1);
    let mut now = SimTime::from_millis(1);
    let (mut client, syn) = Connection::client(TcpConfig::default(), tuple(port), 1000, now);
    let mut server = Connection::server(TcpConfig::default(), tuple(port).reversed(), 9000);
    let synack = server.on_packet(&syn[0], now);
    let mut to_server = client.on_packet(&synack[0], now);
    server.set_budget(budget);
    let mut to_client = Vec::new();
    let mut segments = 0u64;
    loop {
        for p in to_server.drain(..) {
            to_client.extend(server.on_packet(&p, now));
        }
        to_client.extend(server.poll_send(now));
        segments += to_client.iter().filter(|p| is_data(p)).count() as u64;
        if server.send_complete() || segments >= max_segments {
            return segments;
        }
        now += hop;
        for p in to_client.drain(..) {
            to_server.extend(client.on_packet(&p, now));
        }
        if to_server.is_empty() {
            // The odd trailing segment waits for the delayed-ACK timer.
            if let Some(t) = client.next_timer() {
                now = now.max(t);
                to_server.extend(client.on_timer(now));
            }
        }
        if to_server.is_empty() {
            if let Some(t) = server.next_timer() {
                now = now.max(t);
                to_client.extend(server.on_timer(now));
            }
        }
        now += hop;
    }
}

/// `tcp`: host time per data segment of a sender/receiver exchange
/// through `hack-tcp`'s public API, ACK processing included. With
/// `transfer_bytes` each transfer is a fresh connection (handshake and
/// slow start every time, as short flows pay); without, one long-lived
/// saturating connection.
pub fn tcp_segment_ns(transfer_bytes: Option<u64>) -> f64 {
    let mut port = 40_000u16;
    measure(|| {
        let t0 = Instant::now();
        let segments = match transfer_bytes {
            Some(bytes) => (0..8)
                .map(|_| {
                    port = port.wrapping_add(1);
                    tcp_transfer(port, SendBudget::Bytes(bytes), u64::MAX)
                })
                .sum(),
            None => tcp_transfer(port, SendBudget::Unlimited, 20_000),
        };
        (segments, elapsed_ns(t0))
    })
}

/// `codec`: `encode_run_result` over every result of a run (ns per
/// run) and the encoded size in bytes.
pub fn codec(results: &[RunResult]) -> (f64, u64) {
    let bytes = results
        .iter()
        .map(|r| encode_run_result(r).len() as u64)
        .sum();
    let ns = measure(|| {
        let t0 = Instant::now();
        for _ in 0..20 {
            for r in results {
                std::hint::black_box(encode_run_result(r));
            }
        }
        (20, elapsed_ns(t0))
    });
    (ns, bytes)
}

/// The `bench` harness's stages this benchmark reads, by name.
pub const BENCH_STAGES: [&str; 7] = [
    "queue_push_pop",
    "rohc_compress_confirm",
    "rohc_decompress_blob21",
    "driver_blob_rebuild_x8",
    "cid_lookup_x64",
    "md5_cid",
    "header_serialize",
];

/// Run the `bench` executable at `bench` `reps` times (each writing
/// its JSON report to `scratch`) and return the median `ns_per_op` of
/// each of [`BENCH_STAGES`], in that order.
pub fn bench_stages(bench: &Path, scratch: &Path, reps: usize) -> Result<Vec<f64>, String> {
    let mut samples = vec![Vec::new(); BENCH_STAGES.len()];
    for _ in 0..reps {
        // `bench --json` keeps a baseline from an existing file; start
        // from none so every repetition reports only itself.
        let _ = std::fs::remove_file(scratch);
        let status = Command::new(bench)
            .arg("--json")
            .arg(scratch)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", bench.display()))?;
        if !status.success() {
            return Err(format!("{} exited with {status}", bench.display()));
        }
        let text = std::fs::read_to_string(scratch)
            .map_err(|e| format!("cannot read {}: {e}", scratch.display()))?;
        for (name, s) in BENCH_STAGES.iter().zip(&mut samples) {
            s.push(stage_ns(&text, name).ok_or(format!("stage {name} missing from bench output"))?);
        }
    }
    let _ = std::fs::remove_file(scratch);
    Ok(samples
        .into_iter()
        .map(|s| crate::stats::Summary::of(s).median)
        .collect())
}

/// `ns_per_op` of stage `name` in a `bench --json` report.
fn stage_ns(text: &str, name: &str) -> Option<f64> {
    let rest = &text[text.find(&format!("\"{name}\": {{"))?..];
    let rest = &rest[rest.find("\"ns_per_op\": ")? + "\"ns_per_op\": ".len()..];
    let end = rest.find([',', ' ', '}'])?;
    rest[..end].parse().ok()
}
