//! The three workloads: how each is generated from the seed, built,
//! run (plain and traced), and checked.
//!
//! See `README.md` beside this crate for why each one exists.

use std::sync::Arc;

use hack_core::{
    encode_run_result, run_dense, shard_configs, ArrivalDist, BssSpec, DenseOptions, HackMode,
    RoamEvent, RunResult, ScenarioBuilder, ScenarioConfig, ShortFlowConfig, SizeDist, StableHasher,
    SupervisorConfig, TrafficModel, World,
};
use hack_sim::{SimDuration, SimRng};
use hack_trace::{RingSink, TraceHandle};

/// Worker threads `dense_tcp` runs its shards on.
pub const DENSE_THREADS: usize = 2;

/// Size of every `churn_roam` short-flow transfer.
const SHORT_TRANSFER_BYTES: u64 = 64 * 1024;

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 802.11n 150 Mbps, one BSS, 4 saturating TCP/HACK downloads.
    BulkHack,
    /// `apartment_block(8, 4)`, HACK off, sharded on two threads.
    DenseTcp,
    /// Two cells, 4 short-flow clients roaming every ~500 ms.
    ChurnRoam,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [Kind::BulkHack, Kind::DenseTcp, Kind::ChurnRoam];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::BulkHack => "bulk_hack",
            Kind::DenseTcp => "dense_tcp",
            Kind::ChurnRoam => "churn_roam",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One workload instance: the scenario generated from the seed.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The scenario every run of this invocation simulates.
    pub cfg: ScenarioConfig,
    /// The worlds a run consists of, in result order: the shard
    /// configurations for `dense_tcp`, the scenario itself otherwise.
    pub parts: Vec<ScenarioConfig>,
}

/// What one run produced.
pub struct Outcome {
    /// One result per entry of [`Workload::parts`].
    pub results: Vec<RunResult>,
    /// Epoch barriers crossed (0 outside the shard engine).
    pub epochs: u64,
    /// The shard engine's exchange-ledger digest (`dense_tcp` only).
    pub exchange_digest: Option<String>,
}

impl Outcome {
    /// Digest of every result's canonical encoding: equal digests mean
    /// the runs simulated identical statistics.
    pub fn digest(&self) -> String {
        let mut h = StableHasher::new();
        for r in &self.results {
            h.write(&encode_run_result(r));
        }
        h.finish_hex()
    }

    /// Simulator events dispatched, summed over worlds.
    pub fn events(&self) -> u64 {
        self.results.iter().map(|r| r.events_dispatched).sum()
    }
}

/// A seeded roam schedule: each flow hands off between the two cells
/// about every 500 ms (jittered by up to 100 ms), first to cell 1, then
/// back, until `end`. Flows are phase-shifted so handoffs interleave.
fn roam_schedule(seed: u64, flows: usize, end: SimDuration) -> Vec<RoamEvent> {
    let mut rng = SimRng::new(seed).fork(0x524f_414d); // "ROAM"
    let mut schedule = Vec::new();
    for flow in 0..flows {
        let mut at = 400 + 125 * flow as u64;
        let mut target_bss = 1;
        while at < end.as_nanos() / 1_000_000 {
            let jitter = u64::from(rng.uniform(100));
            schedule.push(RoamEvent {
                flow,
                at: SimDuration::from_millis(at + jitter),
                target_bss,
            });
            target_bss = 1 - target_bss;
            at += 500;
        }
    }
    schedule.sort_by_key(|e| (e.at, e.flow));
    schedule
}

impl Workload {
    /// Generate the workload's scenario from `seed`.
    pub fn new(kind: Kind, seed: u64) -> Workload {
        let cfg = match kind {
            Kind::BulkHack => ScenarioBuilder::dot11n_download(150, 4, HackMode::MoreData)
                .duration(SimDuration::from_secs(10))
                .warmup(SimDuration::from_secs(1))
                .stagger(SimDuration::from_millis(100))
                .seed(seed)
                .build(),
            // 6 s, not less: with 16 flows per shard a flow can sit out
            // several back-to-back RTOs, and a shorter run can end
            // inside that back-off with zero goodput in its window.
            Kind::DenseTcp => ScenarioConfig::builder()
                .hack(HackMode::Disabled)
                .bss(BssSpec::apartment_block(8, 4))
                .duration(SimDuration::from_secs(6))
                .warmup(SimDuration::from_millis(500))
                .stagger(SimDuration::from_millis(2))
                .seed(seed)
                .build(),
            Kind::ChurnRoam => {
                let duration = SimDuration::from_secs(10);
                let clients = 4;
                let mut cfg = ScenarioBuilder::dot11n_download(150, clients, HackMode::MoreData)
                    .bss(vec![
                        BssSpec {
                            x: 0.0,
                            y: 0.0,
                            channel: 1,
                            n_clients: clients,
                        },
                        BssSpec {
                            x: 25.0,
                            y: 0.0,
                            channel: 6,
                            n_clients: 0,
                        },
                    ])
                    .traffic(TrafficModel::ShortFlows(ShortFlowConfig {
                        sizes: SizeDist::Fixed(SHORT_TRANSFER_BYTES),
                        think: ArrivalDist::Fixed(SimDuration::from_millis(1)),
                        reuse: false,
                    }))
                    .supervisor(SupervisorConfig::default())
                    .duration(duration)
                    .warmup(SimDuration::from_secs(1))
                    .stagger(SimDuration::from_millis(10))
                    .seed(seed)
                    .build();
                cfg.roam.ap_hack_capable = vec![true, false];
                // Leave the last 400 ms free so every handoff completes.
                cfg.roam.schedule = roam_schedule(
                    seed,
                    clients,
                    duration.saturating_sub(SimDuration::from_millis(400)),
                );
                cfg
            }
        };
        let parts = match kind {
            Kind::DenseTcp => shard_configs(&cfg).into_iter().map(|(c, _)| c).collect(),
            _ => vec![cfg.clone()],
        };
        Workload { kind, cfg, parts }
    }

    /// The fixed size of each short-flow transfer, on the workload that
    /// runs them.
    pub fn short_transfer(&self) -> Option<u64> {
        (self.kind == Kind::ChurnRoam).then_some(SHORT_TRANSFER_BYTES)
    }

    /// Simulated seconds one run advances.
    pub fn sim_seconds(&self) -> f64 {
        self.cfg.duration.as_secs_f64()
    }

    /// Construct the run's worlds, exactly as a run does before its
    /// first event: the shard split plus every shard world on
    /// `dense_tcp`, the one world otherwise.
    pub fn build_worlds(&self) -> Vec<World> {
        match self.kind {
            Kind::DenseTcp => shard_configs(&self.cfg)
                .into_iter()
                .map(|(c, _)| World::builder(c).build())
                .collect(),
            _ => vec![World::builder(self.cfg.clone()).build()],
        }
    }

    /// One untraced run; `dense_tcp` goes through the shard engine on
    /// `threads` workers.
    pub fn run(&self, threads: usize) -> Outcome {
        match self.kind {
            Kind::DenseTcp => {
                let report = run_dense(
                    &self.cfg,
                    &DenseOptions {
                        threads,
                        ..DenseOptions::default()
                    },
                );
                Outcome {
                    results: report.shards.into_iter().map(|s| s.result).collect(),
                    epochs: report.epochs,
                    exchange_digest: Some(report.exchange_digest),
                }
            }
            _ => Outcome {
                results: vec![World::builder(self.cfg.clone()).build().run()],
                epochs: 0,
                exchange_digest: None,
            },
        }
    }

    /// One run of the worlds of [`Workload::parts`] outside the shard
    /// engine, each on a thread of its own and, given a `ring` capacity,
    /// with its own trace ring of that many records. Shard worlds run
    /// this way give the engine's results exactly (its sharding
    /// oracle); running both the traced and the untraced side of a
    /// comparison this way keeps the epoch barriers out of it.
    pub fn run_worlds(&self, ring: Option<usize>) -> (Outcome, Vec<Arc<RingSink>>) {
        let one = |cfg: ScenarioConfig| match ring {
            Some(capacity) => {
                let (handle, ring) = TraceHandle::ring(capacity);
                let r = World::builder(cfg).trace(handle).build().run();
                (r, Some(ring))
            }
            None => (World::builder(cfg).build().run(), None),
        };
        let runs: Vec<(RunResult, Option<Arc<RingSink>>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .parts
                .iter()
                .map(|c| scope.spawn(move || one(c.clone())))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("world thread panicked"))
                .collect()
        });
        let (results, rings): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
        let outcome = Outcome {
            results,
            epochs: 0,
            exchange_digest: None,
        };
        (outcome, rings.into_iter().flatten().collect())
    }

    /// The workload's correctness checks on one run; each failure is a
    /// one-line reason.
    pub fn check(&self, out: &Outcome) -> Vec<String> {
        let mut failures = Vec::new();
        for (w, r) in out.results.iter().enumerate() {
            if r.flow_goodput_mbps.is_empty() {
                failures.push(format!("world {w}: no flows"));
            }
            for (f, g) in r.flow_goodput_mbps.iter().enumerate() {
                if *g <= 0.0 || g.is_nan() {
                    failures.push(format!("world {w} flow {f}: zero goodput"));
                }
            }
        }
        let hacked: u64 = out
            .results
            .iter()
            .flat_map(|r| r.driver.iter().chain(&r.driver_ap))
            .map(|d| d.hacked_acks)
            .sum();
        let crc_failures: u64 = out
            .results
            .iter()
            .map(|r| r.decompressor.crc_failures)
            .sum();
        match self.kind {
            Kind::BulkHack => {
                if hacked == 0 {
                    failures.push("no ACK rode a HACK blob".into());
                }
                if crc_failures != 0 {
                    failures.push(format!("{crc_failures} ROHC CRC failures on ideal links"));
                }
            }
            Kind::DenseTcp => {
                if hacked != 0 {
                    failures.push(format!("{hacked} hacked ACKs with HACK disabled"));
                }
                if out.results.len() != self.parts.len() {
                    failures.push(format!(
                        "{} shards run, {} expected",
                        out.results.len(),
                        self.parts.len()
                    ));
                }
            }
            Kind::ChurnRoam => {
                let r = &out.results[0];
                let scheduled = self.cfg.roam.schedule.len() as u64;
                if r.roams != scheduled {
                    failures.push(format!(
                        "{} roams completed, {scheduled} scheduled",
                        r.roams
                    ));
                }
                for (f, g) in r.flow_goodput_final_mbps.iter().enumerate() {
                    if *g <= 0.0 || g.is_nan() {
                        failures.push(format!("flow {f} stalled (zero final-window goodput)"));
                    }
                }
            }
        }
        failures
    }
}
