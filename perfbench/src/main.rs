//! `hack-perfbench` — the repository benchmark of the TCP/HACK simulator.
//!
//! ```text
//! hack-perfbench --workload <bulk_hack|dense_tcp|churn_roam> --seed <n>
//!                --seconds <s> --trace <0|1> [--bench-bin <path>]
//!                [--out <dir>] [--rustc <version>] [--rev <revision>]
//! ```
//!
//! Normally started by `run.py`, which builds it first. With
//! `--trace 0` it reports the end-to-end metrics: simulated seconds per
//! host second, CPU seconds per simulated second, world set-up time and
//! peak heap, as medians over repeated runs of one seeded scenario.
//! With `--trace 1` it reports the per-layer ledger: exact per-layer
//! counts from a traced run, stage timings of each layer's public
//! functions, and the tracing overhead. Every run's simulated results
//! are checked. The last line of standard output is the result object;
//! the line before it carries the sample counts and quartiles, the host
//! fingerprint and the per-kind trace counters.

mod alloc;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hack_core::RunResult;
use hack_sim::QuantileSketch;
use hack_trace::{Event, Layer, RingSink, EVENT_META};

use stats::{process_cpu_seconds, Summary};
use workload::{Kind, Outcome, Workload, DENSE_THREADS};

#[global_allocator]
static GLOBAL: alloc::Tracking = alloc::Tracking;

/// Runs measured in every invocation, however short `--seconds` is.
const MIN_RUNS: usize = 5;
/// World set-ups timed after each measured run.
const SETUPS_PER_RUN: usize = 25;
/// Trace ring capacity per world: the tail of the run, which shapes
/// the stage timings; counts and digests cover the whole run anyway.
const RING_CAPACITY: usize = 1 << 16;
/// Repetitions of the `bench` harness whose stage medians are used.
const BENCH_REPS: usize = 3;

struct Options {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    bench_bin: Option<PathBuf>,
    out: Option<PathBuf>,
    rustc: String,
    rev: String,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("hack-perfbench: {msg}");
    eprintln!(
        "usage: hack-perfbench --workload <bulk_hack|dense_tcp|churn_roam> --seed <n> \
         --seconds <s> --trace <0|1> [--bench-bin <path>] [--out <dir>] \
         [--rustc <version>] [--rev <revision>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bench_bin = None;
    let mut out = None;
    let mut rustc = "unknown".to_string();
    let mut rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage_exit(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => kind = Kind::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--bench-bin" => bench_bin = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--rustc" => rustc = value,
            "--rev" => rev = value,
            other => usage_exit(&format!("unknown flag {other:?}")),
        }
    }
    Options {
        kind: kind.unwrap_or_else(|| usage_exit("--workload must name a workload")),
        seed: seed.unwrap_or_else(|| usage_exit("--seed must be a whole number")),
        seconds: seconds.unwrap_or_else(|| usage_exit("--seconds must be a positive number")),
        trace: trace.unwrap_or_else(|| usage_exit("--trace must be 0 or 1")),
        bench_bin,
        out,
        rustc,
        rev,
    }
}

// ---------------------------------------------------------------------
// Spans: host-time intervals around the benchmark's calls into each
// layer, kept in memory and written out when the benchmark ends.
// ---------------------------------------------------------------------

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

struct Spans {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    fn begin(&mut self, name: impl Into<String>) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    fn end(&mut self) {
        let id = self.open.pop().expect("end() without begin()");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// One JSON object per span, with its self time (its duration less
    /// the time its child spans cover).
    fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[id])
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// Checking every run.
// ---------------------------------------------------------------------

/// Counts runs attempted and failed; a run fails when any workload
/// check fails or its simulated results differ from the first run's.
struct Checker<'a> {
    wl: &'a Workload,
    digest: Option<String>,
    exchange: Option<String>,
    attempted: u64,
    failed: u64,
}

impl Checker<'_> {
    fn check(&mut self, out: &Outcome, what: &str) {
        self.attempted += 1;
        let mut failures = self.wl.check(out);
        let digest = out.digest();
        match &self.digest {
            None => self.digest = Some(digest),
            Some(first) if *first != digest => {
                failures.push(format!("results digest {digest} differs from {first}"))
            }
            Some(_) => {}
        }
        if let Some(ex) = &out.exchange_digest {
            match &self.exchange {
                None => self.exchange = Some(ex.clone()),
                Some(first) if first != ex => {
                    failures.push(format!("exchange digest {ex} differs from {first}"))
                }
                Some(_) => {}
            }
        }
        if !failures.is_empty() {
            self.failed += 1;
            eprintln!("hack-perfbench: {what} failed: {}", failures.join("; "));
        }
    }
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end(
    wl: &Workload,
    opts: &Options,
    spans: &mut Spans,
    checker: &mut Checker,
    detail: &mut Vec<(&'static str, Summary)>,
) -> Vec<Metric> {
    // Warm-up run (not timed): fills caches and the allocator, and is
    // the one run whose peak heap is tracked.
    let (warm, heap) = spans.time("run.warmup", || alloc::tracked(|| wl.run(DENSE_THREADS)));
    checker.check(&warm, "warm-up run");
    drop(warm);

    let (mut rate, mut cpu, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs(opts.seconds);
    while rate.len() < MIN_RUNS || Instant::now() < deadline {
        let cpu0 = process_cpu_seconds();
        let t0 = Instant::now();
        let out = spans.time("run", || wl.run(DENSE_THREADS));
        let wall = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_seconds() - cpu0;
        checker.check(&out, "timed run");
        rate.push(wl.sim_seconds() / wall);
        cpu.push(cpu_s / wl.sim_seconds());
        // Set-ups are spread over the measurement window, so a burst of
        // host noise cannot skew all of them at once.
        spans.time("setup", || {
            for _ in 0..SETUPS_PER_RUN {
                let t0 = Instant::now();
                let worlds = wl.build_worlds();
                setup.push(t0.elapsed().as_secs_f64());
                drop(std::hint::black_box(worlds));
            }
        });
    }

    if wl.kind == Kind::DenseTcp {
        // Once per invocation: the shard engine's exchange ledger (and
        // every result) must be identical on one thread.
        let one = spans.time("run.one_thread", || wl.run(1));
        checker.check(&one, "one-thread run");
    }

    let rate = Summary::of(rate);
    let cpu = Summary::of(cpu);
    let setup = Summary::of(setup);
    detail.extend([
        ("sim_s_per_s", rate),
        ("cpu_s_per_sim_s", cpu),
        ("setup_s", setup),
    ]);
    vec![
        metric("sim_s_per_s", rate.median, "s/s"),
        metric("cpu_s_per_sim_s", cpu.median, "s/s"),
        metric("setup_s", setup.median, "s"),
        metric("heap_peak_mb", heap.peak_bytes as f64 / 1e6, "MB"),
    ]
}

/// Indices (into `RunResult::mac`) of the APs of a world.
fn ap_indices(cfg: &hack_core::ScenarioConfig) -> Vec<usize> {
    if cfg.bss.is_empty() {
        return vec![0];
    }
    let mut next = 0;
    cfg.bss
        .iter()
        .map(|b| {
            let ap = next;
            next += 1 + b.n_clients;
            ap
        })
        .collect()
}

/// Stations that hear one another in the busiest interference domain
/// of any world: a single cell's AP and clients, or a whole shard.
fn listeners(wl: &Workload) -> u32 {
    wl.parts
        .iter()
        .map(|c| match c.bss.first() {
            None => 1 + c.n_clients,
            Some(first) => c
                .bss
                .iter()
                .filter(|b| b.channel == first.channel)
                .map(|b| 1 + b.n_clients)
                .sum(),
        })
        .max()
        .unwrap_or(2) as u32
}

/// Mean MPDUs and mean bytes per MPDU of the A-MPDU batches retained
/// in the rings (the tail of the traced run).
fn ampdu_shape(rings: &[Arc<RingSink>]) -> (u32, u32) {
    let (mut batches, mut mpdus, mut bytes) = (0u64, 0u64, 0u64);
    for ring in rings {
        for rec in ring.drain() {
            if let Event::MacAmpdu {
                mpdus: m, bytes: b, ..
            } = rec.event
            {
                batches += 1;
                mpdus += u64::from(m);
                bytes += b;
            }
        }
    }
    if batches == 0 || mpdus == 0 {
        return (1, 1500);
    }
    (
        (mpdus as f64 / batches as f64).round() as u32,
        (bytes / mpdus) as u32,
    )
}

fn sum_by(results: &[RunResult], f: impl Fn(&RunResult) -> u64) -> u64 {
    results.iter().map(f).sum()
}

fn per_layer(
    wl: &Workload,
    opts: &Options,
    spans: &mut Spans,
    checker: &mut Checker,
    detail: &mut Vec<(&'static str, Summary)>,
    kinds: &mut Vec<(&'static str, u64)>,
) -> Result<Vec<Metric>, String> {
    let (warm, heap) = spans.time("run.warmup", || alloc::tracked(|| wl.run(DENSE_THREADS)));
    checker.check(&warm, "warm-up run");
    let allocs_per_event = heap.allocs as f64 / warm.events().max(1) as f64;
    let epochs = warm.epochs;
    drop(warm);

    // Untraced and traced runs alternate, so both see the same host,
    // and both run the worlds the same way (see `run_worlds`).
    let (mut plain, mut traced, mut plain_wall, mut events_rate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let deadline = Instant::now() + Duration::from_secs(opts.seconds) * 3 / 5;
    while traced.len() < 3 || Instant::now() < deadline {
        for ring in [None, Some(RING_CAPACITY)] {
            let name = if ring.is_some() {
                "run.traced"
            } else {
                "run.untraced"
            };
            let t0 = Instant::now();
            let (out, rings) = spans.time(name, || wl.run_worlds(ring));
            let wall = t0.elapsed().as_secs_f64();
            checker.check(&out, name);
            if ring.is_some() {
                traced.push(wl.sim_seconds() / wall);
                last = Some((out, rings));
            } else {
                plain.push(wl.sim_seconds() / wall);
                plain_wall.push(wall);
                events_rate.push(out.events() as f64 / wall);
            }
        }
    }
    let (out, rings) = last.expect("at least one traced run");
    let plain = Summary::of(plain);
    let traced = Summary::of(traced);
    let wall_ms = Summary::of(plain_wall).median * 1e3;
    let events_rate = Summary::of(events_rate);
    detail.extend([
        ("untraced_sim_s_per_s", plain),
        ("traced_sim_s_per_s", traced),
        ("sim.events_per_s", events_rate),
    ]);

    // Exact counts: from the results and the rings' whole-run counters.
    let r = &out.results;
    let counter = |name: &str| -> u64 {
        let kind = hack_trace::kind_by_name(name).expect("known trace event kind");
        rings.iter().map(|ring| ring.counters().get(kind)).sum()
    };
    for meta in EVENT_META {
        let n = counter(meta.name);
        if n > 0 {
            kinds.push((meta.name, n));
        }
    }
    let layer_records = |layer: Layer| -> u64 {
        rings
            .iter()
            .map(|ring| ring.digest().per_layer[layer as usize])
            .sum()
    };
    let records: u64 = rings.iter().map(|ring| ring.emitted()).sum();
    let events = out.events();
    let mac_all =
        |f: fn(&hack_mac::MacStats) -> u64| -> u64 { sum_by(r, |x| x.mac.iter().map(f).sum()) };
    let mac_clients = |f: fn(&hack_mac::MacStats) -> u64| -> u64 {
        r.iter()
            .zip(&wl.parts)
            .map(|(x, cfg)| {
                let aps = ap_indices(cfg);
                x.mac
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !aps.contains(i))
                    .map(|(_, m)| f(m))
                    .sum::<u64>()
            })
            .sum()
    };
    let tcp_sum = |f: fn(&hack_tcp::TcpStats) -> u64| -> u64 {
        sum_by(r, |x| {
            x.sender_tcp.iter().chain(&x.receiver_tcp).map(f).sum()
        })
    };
    let drv_sum = |f: fn(&hack_core::CompressSideStats) -> u64| -> u64 {
        sum_by(r, |x| x.driver.iter().chain(&x.driver_ap).map(f).sum())
    };
    let ppdus = sum_by(r, |x| x.ppdus);
    let blob_responses = mac_all(|m| m.responses_with_blob.get());
    let hacked = drv_sum(|d| d.hacked_acks);
    let compressed = sum_by(r, |x| x.compressor.iter().map(|c| c.compressed).sum());
    let decompressed = sum_by(r, |x| x.decompressor.decompressed);
    let ctx_init = counter("ctx_init");
    let data_segments = tcp_sum(|t| t.data_segments_sent);
    let transfers: u64 = r.iter().flat_map(|x| &x.classes).map(|k| k.transfers).sum();
    // A flow's TCP statistics cover its current connection only; on
    // churn_roam every completed transfer's connection is gone, so the
    // ledger adds the segments of its fixed-size transfers.
    let mss = u64::from(hack_tcp::TcpConfig::default().mss);
    let tcp_calls = data_segments
        + wl.short_transfer()
            .map_or(0, |bytes| transfers * bytes.div_ceil(mss));
    let acks_per_blob = if blob_responses > 0 {
        hacked as f64 / blob_responses as f64
    } else {
        0.0
    };
    let mut fct = QuantileSketch::new();
    for c in r.iter().flat_map(|x| &x.classes) {
        fct.merge(&c.fct);
    }
    let fct_ms = |q: f64| fct.quantile(q).map_or(0.0, |ns| ns as f64 / 1e6);

    // Stage timings shaped like this workload.
    let (mpdus, mpdu_bytes) = ampdu_shape(&rings);
    let n_listeners = listeners(wl);
    let phy_tx_ns = spans.time(format!("stage.phy.tx.{n_listeners}x{mpdus}"), || {
        layers::phy_tx_ns(n_listeners, mpdus, mpdu_bytes, opts.seed)
    });
    let (batch_ns, block_ack_ns) = spans.time(format!("stage.mac.{mpdus}x{mpdu_bytes}"), || {
        layers::mac_ns(mpdus, mpdu_bytes)
    });
    let segment_ns = spans.time("stage.tcp.exchange", || {
        layers::tcp_segment_ns(wl.short_transfer())
    });
    let (encode_ns, codec_bytes) = spans.time("stage.codec.encode", || layers::codec(r));
    let bench_bin = opts
        .bench_bin
        .as_deref()
        .ok_or("--trace 1 needs --bench-bin (the repository's `bench` executable)")?;
    let scratch = opts
        .out
        .clone()
        .unwrap_or_else(std::env::temp_dir)
        .join(format!("bench-stages-{}.json", std::process::id()));
    let bench = spans.time("stage.bench", || {
        layers::bench_stages(bench_bin, &scratch, BENCH_REPS)
    })?;
    let [queue_ns, compress_ns, blob21_ns, rebuild8_ns, cid_lookup_ns, md5_ns, header_ns] =
        bench[..]
    else {
        unreachable!("bench_stages returns one value per stage")
    };
    // Per-blob decode at this workload's mean ACKs per blob (the bench
    // stage decodes 21); a workload without blobs keeps the 21-ACK blob.
    let decode_per_ack_ns = blob21_ns / 21.0;
    let decompress_blob_ns = decode_per_ack_ns
        * if acks_per_blob > 0.0 {
            acks_per_blob
        } else {
            21.0
        };
    let rebuild_ns = rebuild8_ns / 8.0;

    // The ledger: calls × ns per layer, and the wall time it leaves.
    let ms = |ns: f64| ns / 1e6;
    let sim_est = ms(events as f64 * queue_ns);
    let phy_est = ms(ppdus as f64 * phy_tx_ns);
    let mac_est = ms(counter("ampdu") as f64 * batch_ns + counter("ll_ack") as f64 * block_ack_ns);
    let tcp_est = ms(tcp_calls as f64 * segment_ns);
    let rohc_est = ms(compressed as f64 * compress_ns
        + decompressed as f64 * decode_per_ack_ns
        + ctx_init as f64 * md5_ns
        + (compressed + decompressed) as f64 * cid_lookup_ns);
    let driver_est = ms(hacked as f64 * rebuild_ns);
    let residual = wall_ms - (sim_est + phy_est + mac_est + tcp_est + rohc_est + driver_est);

    let supervisor_transitions: u64 = [
        "sup_degraded",
        "sup_fallback",
        "sup_probation",
        "sup_recovered",
        "sup_handoff",
    ]
    .iter()
    .map(|k| counter(k))
    .sum();
    let dense = wl.kind == Kind::DenseTcp;
    let c = |v: u64| v as f64;
    Ok(vec![
        metric("sim.events", c(events), "count"),
        metric("sim.events_per_s", events_rate.median, "1/s"),
        metric("sim.queue_ns", queue_ns, "ns"),
        metric("sim.est_ms", sim_est, "ms"),
        metric("phy.ppdus", c(ppdus), "count"),
        metric("phy.collisions", c(sum_by(r, |x| x.collisions)), "count"),
        metric("phy.per_drops", c(counter("per_drop")), "count"),
        metric("phy.tx_ns", phy_tx_ns, "ns"),
        metric("phy.est_ms", phy_est, "ms"),
        metric(
            "mac.tx_attempts",
            c(mac_all(|m| m.tx_attempts.get())),
            "count",
        ),
        metric(
            "mac.client_tx_attempts",
            c(mac_clients(|m| m.tx_attempts.get())),
            "count",
        ),
        metric(
            "mac.retries",
            c(mac_all(|m| m.mpdus_retried.get())),
            "count",
        ),
        metric(
            "mac.ack_timeouts",
            c(mac_all(|m| m.ack_timeouts.get())),
            "count",
        ),
        metric("mac.blob_responses", c(blob_responses), "count"),
        metric("mac.handoffs", c(sum_by(r, |x| x.roams)), "count"),
        metric("mac.batch_build_ns", batch_ns, "ns"),
        metric("mac.block_ack_ns", block_ack_ns, "ns"),
        metric("mac.est_ms", mac_est, "ms"),
        metric("tcp.data_segments", c(data_segments), "count"),
        metric("tcp.acks_sent", c(tcp_sum(|t| t.acks_sent)), "count"),
        metric("tcp.retransmits", c(tcp_sum(|t| t.retransmits)), "count"),
        metric("tcp.timeouts", c(tcp_sum(|t| t.timeouts)), "count"),
        metric("tcp.segment_ns", segment_ns, "ns"),
        metric("tcp.header_ns", header_ns, "ns"),
        metric("tcp.est_ms", tcp_est, "ms"),
        metric("rohc.ctx_init", c(ctx_init), "count"),
        metric("rohc.ctx_update", c(counter("ctx_update")), "count"),
        metric("rohc.decompressed", c(decompressed), "count"),
        metric(
            "rohc.crc_failures",
            c(sum_by(r, |x| x.decompressor.crc_failures)),
            "count",
        ),
        metric("rohc.compress_ns", compress_ns, "ns"),
        metric("rohc.decompress_blob_ns", decompress_blob_ns, "ns"),
        metric("rohc.md5_cid_ns", md5_ns, "ns"),
        metric("rohc.cid_lookup_ns", cid_lookup_ns, "ns"),
        metric("rohc.est_ms", rohc_est, "ms"),
        metric("driver.hacked_acks", c(hacked), "count"),
        metric("driver.native_acks", c(drv_sum(|d| d.native_acks)), "count"),
        metric("driver.acks_per_blob", acks_per_blob, "count"),
        metric(
            "driver.timer_flushes",
            c(drv_sum(|d| d.timer_flushes)),
            "count",
        ),
        metric("driver.blob_rebuild_ns", rebuild_ns, "ns"),
        metric("driver.est_ms", driver_est, "ms"),
        metric("supervisor.transitions", c(supervisor_transitions), "count"),
        metric("traffic.transfers", c(transfers), "count"),
        metric("traffic.fct_p50_ms", fct_ms(0.5), "ms"),
        metric("traffic.fct_p99_ms", fct_ms(0.99), "ms"),
        metric("world.allocs_per_event", allocs_per_event, "count"),
        metric(
            "world.goodput_mbps",
            r.iter().map(|x| x.aggregate_goodput_mbps).sum(),
            "Mbps",
        ),
        metric("world.residual_ms", residual, "ms"),
        metric(
            "dense.shards",
            if dense { c(r.len() as u64) } else { 0.0 },
            "count",
        ),
        metric("dense.epochs", c(epochs), "count"),
        metric("trace.records", c(records), "count"),
        metric(
            "trace.overhead_pct",
            (plain.median / traced.median - 1.0) * 100.0,
            "%",
        ),
        metric("trace.phy_records", c(layer_records(Layer::Phy)), "count"),
        metric("trace.mac_records", c(layer_records(Layer::Mac)), "count"),
        metric("trace.tcp_records", c(layer_records(Layer::Tcp)), "count"),
        metric("trace.rohc_records", c(layer_records(Layer::Rohc)), "count"),
        metric("trace.sim_records", c(layer_records(Layer::Sim)), "count"),
        metric("codec.encode_ns", encode_ns, "ns"),
        metric("codec.bytes", c(codec_bytes), "B"),
    ])
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: Rust's shortest round-trip form keeps every digit
/// that was measured.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"rustc\":{},\"rev\":{},\"seed\":{},\"profile\":\"release\",\"workload\":{},\"seconds\":{},\"trace\":{},\"dense_threads\":{DENSE_THREADS}}}",
        json_str(&cpu_model()),
        json_str(&opts.rustc),
        json_str(&opts.rev),
        opts.seed,
        json_str(opts.kind.name()),
        opts.seconds,
        u8::from(opts.trace),
    )
}

fn main() {
    if cfg!(debug_assertions) {
        eprintln!("hack-perfbench: refusing to report from a debug build; build with --release");
        std::process::exit(2);
    }
    let opts = parse_args();
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("hack-perfbench: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let wl = Workload::new(opts.kind, opts.seed);
    let mut spans = Spans::new();
    let mut checker = Checker {
        wl: &wl,
        digest: None,
        exchange: None,
        attempted: 0,
        failed: 0,
    };
    let mut detail = Vec::new();
    let mut kinds = Vec::new();
    spans.begin(format!("{}.seed{}", opts.kind.name(), opts.seed));
    let metrics = if opts.trace {
        per_layer(
            &wl,
            &opts,
            &mut spans,
            &mut checker,
            &mut detail,
            &mut kinds,
        )
    } else {
        Ok(end_to_end(
            &wl,
            &opts,
            &mut spans,
            &mut checker,
            &mut detail,
        ))
    };
    spans.end();
    let metrics = metrics.unwrap_or_else(|e| {
        eprintln!("hack-perfbench: {e}");
        std::process::exit(1);
    });

    if let Some(dir) = &opts.out {
        let path = dir.join(format!(
            "spans.{}.seed{}.trace{}.jsonl",
            opts.kind.name(),
            opts.seed,
            u8::from(opts.trace)
        ));
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("hack-perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let mut samples = String::new();
    for (i, (name, s)) in detail.iter().enumerate() {
        let _ = write!(
            samples,
            "{}{}:{{\"median\":{},\"p25\":{},\"p75\":{},\"n\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(name),
            json_num(s.median),
            json_num(s.p25),
            json_num(s.p75),
            s.n
        );
    }
    let counters: Vec<String> = kinds
        .iter()
        .map(|(k, n)| format!("{}:{n}", json_str(k)))
        .collect();
    println!(
        "{{\"host\":{},\"digest\":{},\"samples\":{{{samples}}},\"trace_counters\":{{{}}}}}",
        fingerprint(&opts),
        json_str(checker.digest.as_deref().unwrap_or("")),
        counters.join(",")
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(",")
    );
}
