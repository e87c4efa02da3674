//! Dense multi-BSS worlds: the sharding oracle, parallel==serial
//! byte-identity at scale, and world-level pins for the mid-run
//! channel-dynamics bugfixes (loss-override composition under burst
//! media, Gilbert–Elliott state reset on station moves).

use hack_core::{
    run_dense, shard_configs, BssSpec, ChannelChange, ChannelEvent, DenseOptions, GeParams,
    HackMode, LossConfig, ScenarioConfig, StandardKind, World,
};
use hack_sim::SimDuration;
use hack_trace::TraceHandle;
use proptest::prelude::*;

fn digest_hex(ring: &hack_trace::RingSink) -> String {
    ring.digest()
        .to_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Run one scenario standalone with a trace ring; returns (digest,
/// per-flow goodput).
fn run_pinned(cfg: ScenarioConfig) -> (String, Vec<f64>) {
    let (handle, ring) = TraceHandle::ring(1 << 12);
    let result = World::builder(cfg).trace(handle).run();
    (digest_hex(&ring), result.flow_goodput_mbps)
}

fn dense_base(bss: Vec<BssSpec>, seed: u64, hack: HackMode) -> ScenarioConfig {
    ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .hack(hack)
        .bss(bss)
        .duration(SimDuration::from_millis(50))
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(5))
        .seed(seed)
        .build()
}

proptest! {
    /// The sharding oracle: a multi-BSS world with ZERO cross-BSS
    /// interference edges (grid pitch 40 m > the 30 m co-channel range)
    /// must produce per-BSS trace digests and goodputs byte-identical
    /// to the same BSSs run as independent single-cell worlds. This is
    /// the correctness contract `run_dense` rests on — the shard
    /// engine adds no observable behaviour of its own.
    #[test]
    fn zero_edge_world_equals_independent_cells(
        n_bss in 2usize..5,
        clients in 1usize..3,
        chan_pick in proptest::collection::vec(0usize..3, 4),
        seed in 0u64..1_000,
        hack in any::<bool>(),
    ) {
        let bss: Vec<BssSpec> = (0..n_bss)
            .map(|i| BssSpec {
                x: (i as f64) * 40.0,
                y: 0.0,
                channel: [1u8, 6, 11][chan_pick[i % chan_pick.len()]],
                n_clients: clients,
            })
            .collect();
        let hack = if hack { HackMode::MoreData } else { HackMode::Disabled };
        let cfg = dense_base(bss, seed, hack);

        let parts = shard_configs(&cfg);
        prop_assert_eq!(parts.len(), n_bss, "40 m pitch must shard fully");

        let opts = DenseOptions { threads: 1, epoch: SimDuration::from_millis(10), digests: true };
        let report = run_dense(&cfg, &opts);

        for (shard, (sub, flows)) in report.shards.iter().zip(parts) {
            let (digest, goodput) = run_pinned(sub);
            prop_assert_eq!(
                shard.digest.as_deref(),
                Some(digest.as_str()),
                "shard {:?} diverged from its standalone single-cell run",
                shard.bss
            );
            for (j, &f) in flows.iter().enumerate() {
                prop_assert_eq!(report.flow_goodput_mbps[f], goodput[j]);
            }
        }
    }
}

/// The scale + parallelism acceptance test: a 16-BSS, 512-station
/// enterprise floor runs sharded on 4 threads with output byte-identical
/// to the serial (1-thread) execution — shard trace digests, the epoch
/// exchange ledger, and every merged flow goodput.
#[test]
fn parallel_equals_serial_at_16_bss_512_stations() {
    let cfg = {
        let mut c = dense_base(BssSpec::enterprise_floor(16, 32), 42, HackMode::MoreData);
        c.stagger = SimDuration::from_micros(500);
        c.duration = SimDuration::from_millis(60);
        c
    };
    assert_eq!(cfg.n_clients, 512);
    // 16 APs + 512 clients = 528 stations on the floor.

    let serial = run_dense(
        &cfg,
        &DenseOptions {
            threads: 1,
            epoch: SimDuration::from_millis(5),
            digests: true,
        },
    );
    let parallel = run_dense(
        &cfg,
        &DenseOptions {
            threads: 4,
            epoch: SimDuration::from_millis(5),
            digests: true,
        },
    );

    assert_eq!(serial.shards.len(), 16, "3-coloured floor shards fully");
    assert_eq!(serial.epochs, parallel.epochs);
    assert_eq!(
        serial.exchange_digest, parallel.exchange_digest,
        "epoch exchange ledgers diverged across thread counts"
    );
    for (s, p) in serial.shards.iter().zip(&parallel.shards) {
        assert_eq!(s.bss, p.bss);
        assert_eq!(s.digest, p.digest, "shard {:?} trace diverged", s.bss);
        assert_eq!(
            s.result.events_dispatched, p.result.events_dispatched,
            "shard {:?} dispatched different event counts",
            s.bss
        );
    }
    assert_eq!(serial.flow_goodput_mbps, parallel.flow_goodput_mbps);
    assert_eq!(
        serial.aggregate_goodput_mbps,
        parallel.aggregate_goodput_mbps
    );
    assert!(
        serial.aggregate_goodput_mbps > 0.0,
        "a 512-station floor must move bytes"
    );
}

/// World-level pin for the burst-medium loss-override fix: a mid-run
/// `ClientLoss` step on a Gilbert–Elliott medium must actually take
/// effect (it used to silently no-op). The step is observable (digest
/// differs from the no-dynamics run) and counted via the
/// `loss_override` trace event.
#[test]
fn client_loss_step_composes_on_burst_medium() {
    let base = |dynamics: Vec<ChannelEvent>| {
        ScenarioConfig::builder()
            .clients(2)
            .hack(HackMode::MoreData)
            .loss(LossConfig::Burst(GeParams {
                p_enter_bad: 0.02,
                p_exit_bad: 0.2,
                per_good: 0.001,
                per_bad: 0.3,
            }))
            .dynamics(dynamics)
            .duration(SimDuration::from_millis(120))
            .stagger(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(5))
            .seed(7)
            .build()
    };
    let step = vec![ChannelEvent {
        at: SimDuration::from_millis(20),
        change: ChannelChange::ClientLoss {
            client: 0,
            per: 0.9,
        },
    }];

    let (h_with, ring_with) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(step)).trace(h_with).run();
    let (h_without, ring_without) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(Vec::new())).trace(h_without).run();

    let overrides: u64 = ring_with
        .counters()
        .snapshot()
        .iter()
        .find(|(name, _)| *name == "loss_override")
        .map_or(0, |&(_, n)| n);
    assert!(
        overrides >= 1,
        "ClientLoss on a burst medium must be counted, not dropped"
    );
    assert_ne!(
        digest_hex(&ring_with),
        digest_hex(&ring_without),
        "a 90% loss override must be observable in the trace"
    );
}

/// World-level pin for the mobility fix: moving a station and moving it
/// back is deterministic (same seed ⇒ same digest), and the move is
/// observable even on a pure burst medium — because `place_station`
/// resets the moved station's per-link Gilbert–Elliott state instead of
/// leaving it stale.
#[test]
fn move_then_restore_is_deterministic_and_resets_ge_state() {
    let base = |dynamics: Vec<ChannelEvent>| {
        ScenarioConfig::builder()
            .clients(2)
            .hack(HackMode::MoreData)
            .loss(LossConfig::Burst(GeParams {
                p_enter_bad: 0.1,
                p_exit_bad: 0.05,
                per_good: 0.001,
                per_bad: 0.8,
            }))
            .dynamics(dynamics)
            .duration(SimDuration::from_millis(120))
            .stagger(SimDuration::from_millis(2))
            .warmup(SimDuration::from_millis(5))
            .seed(9)
            .build()
    };
    let move_and_back = || {
        vec![
            ChannelEvent {
                at: SimDuration::from_millis(30),
                change: ChannelChange::MoveClient {
                    client: 0,
                    x: 40.0,
                    y: 0.0,
                },
            },
            ChannelEvent {
                at: SimDuration::from_millis(60),
                change: ChannelChange::MoveClient {
                    client: 0,
                    x: 3.0,
                    y: 0.0,
                },
            },
        ]
    };

    let (ha, ra) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(move_and_back())).trace(ha).run();
    let (hb, rb) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(move_and_back())).trace(hb).run();
    assert_eq!(
        digest_hex(&ra),
        digest_hex(&rb),
        "move-then-restore must be seed-deterministic"
    );

    let (hc, rc) = TraceHandle::ring(1 << 12);
    let _ = World::builder(base(Vec::new())).trace(hc).run();
    assert_ne!(
        digest_hex(&ra),
        digest_hex(&rc),
        "the GE reset on a move must be observable (stale state was the bug)"
    );
}

/// Degenerate shapes must not trip the reception-capacity underflow or
/// the domain bookkeeping: a single-BSS single-client dense world, and
/// a two-BSS world where one cell has exactly one client.
#[test]
fn degenerate_dense_worlds_run() {
    let tiny = dense_base(
        vec![BssSpec {
            x: 0.0,
            y: 0.0,
            channel: 1,
            n_clients: 1,
        }],
        5,
        HackMode::MoreData,
    );
    let report = run_dense(&tiny, &DenseOptions::default());
    assert_eq!(report.shards.len(), 1);
    assert!(report.aggregate_goodput_mbps > 0.0);

    let lopsided = dense_base(
        vec![
            BssSpec {
                x: 0.0,
                y: 0.0,
                channel: 1,
                n_clients: 1,
            },
            BssSpec {
                x: 100.0,
                y: 0.0,
                channel: 1,
                n_clients: 3,
            },
        ],
        6,
        HackMode::Disabled,
    );
    let report = run_dense(&lopsided, &DenseOptions::default());
    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.flow_goodput_mbps.len(), 4);
    assert!(report.flow_goodput_mbps.iter().all(|&g| g >= 0.0));
}

/// A Block ACK that drops an MPDU past its retry limit must be followed
/// by a BAR. Without one, the recipient's reorder window stays at the
/// dropped sequence number and holds every later MPDU from that station
/// for good. On this seed, shard 0's flow 4 loses a TCP ACK that way at
/// 0.18 s; its client's only uplink traffic is TCP ACKs, so the flow
/// used to stall with zero goodput for the rest of the run.
#[test]
fn retry_limit_drop_does_not_stall_a_flow() {
    let cfg = ScenarioConfig::builder()
        .hack(HackMode::Disabled)
        .bss(BssSpec::apartment_block(8, 4))
        .duration(SimDuration::from_secs(6))
        .warmup(SimDuration::from_millis(500))
        .stagger(SimDuration::from_millis(2))
        .seed(1_232_570_570)
        .build();
    let report = run_dense(
        &cfg,
        &DenseOptions {
            threads: 2,
            ..DenseOptions::default()
        },
    );
    for (shard, s) in report.shards.iter().enumerate() {
        for (flow, &g) in s.result.flow_goodput_mbps.iter().enumerate() {
            assert!(g > 0.0, "shard {shard} flow {flow} stalled: {g} Mbps");
        }
    }
}

/// FNV-1a/128 digest of one shard's canonically encoded result.
fn result_digest(r: &hack_core::RunResult) -> String {
    let mut h = hack_core::StableHasher::new();
    h.write(&hack_core::encode_run_result(r));
    h.finish_hex()
}

/// Run `cfg` on 1 and 2 threads and check both against the literal
/// ledger pins: `(exchange digest, epochs, per-shard result digests)`.
/// Returns the 2-thread report.
fn assert_ledger_pins(
    cfg: &ScenarioConfig,
    exchange: &str,
    epochs: u64,
    shards: &[&str],
) -> hack_core::DenseReport {
    let mut last = None;
    for threads in [1, 2] {
        let report = run_dense(
            cfg,
            &DenseOptions {
                threads,
                ..DenseOptions::default()
            },
        );
        let got: Vec<String> = report
            .shards
            .iter()
            .map(|s| result_digest(&s.result))
            .collect();
        assert_eq!(report.exchange_digest, exchange, "{threads} threads");
        assert_eq!(report.epochs, epochs, "{threads} threads");
        assert_eq!(got, shards, "{threads} threads");
        last = Some(report);
    }
    last.expect("ran at least once")
}

/// Pins the shard engine's observable output on `dense_tcp`'s world
/// shape (`apartment_block(8, 4)`, HACK off, seed 5, 1.5 s): the
/// exchange-ledger digest, the epoch count and each shard's result
/// digest. The values were captured on the lockstep epoch-barrier
/// engine, so any engine that replaces it must reproduce them exactly.
#[test]
fn apartment_block_ledger_pin() {
    let cfg = ScenarioConfig::builder()
        .hack(HackMode::Disabled)
        .bss(BssSpec::apartment_block(8, 4))
        .duration(SimDuration::from_millis(1_500))
        .warmup(SimDuration::from_millis(500))
        .stagger(SimDuration::from_millis(2))
        .seed(5)
        .build();
    let _ = assert_ledger_pins(
        &cfg,
        "50ddc8e6edcdba737870fe2f8e138587",
        15,
        &[
            "de81b0c354fd376c2ce96331db2b9455",
            "8b2227b67b2f6a9283cd50834cf2e161",
        ],
    );
}

/// The same pin on a roaming world: two interference components merged
/// by a cross-domain roam, whose handoff is quantised up to the 200 ms
/// epoch boundary, next to an unrelated third component. Every flow has
/// a byte budget, so the shards finish early and in different epochs
/// (the merged one in its 4th, the other in its 3rd): the ledger must
/// keep folding zero deltas for a shard that is already done.
#[test]
fn quantised_roam_ledger_pin() {
    let mut cfg = ScenarioConfig::builder()
        .standard(StandardKind::Dot11n)
        .rate_mbps(150)
        .hack(HackMode::MoreData)
        .bss(vec![
            BssSpec {
                x: 0.0,
                y: 0.0,
                channel: 1,
                n_clients: 1,
            },
            BssSpec {
                x: 20.0,
                y: 0.0,
                channel: 1,
                n_clients: 1,
            },
            BssSpec {
                x: 100.0,
                y: 0.0,
                channel: 6,
                n_clients: 1,
            },
            BssSpec {
                x: 300.0,
                y: 0.0,
                channel: 11,
                n_clients: 2,
            },
        ])
        .duration(SimDuration::from_millis(900))
        .transfer_bytes(1_500_000)
        .stagger(SimDuration::from_millis(2))
        .warmup(SimDuration::from_millis(5))
        .seed(13)
        .build();
    cfg.roam.schedule = vec![hack_core::RoamEvent {
        flow: 0,
        at: SimDuration::from_millis(155),
        target_bss: 2,
    }];
    assert_eq!(shard_configs(&cfg).len(), 2, "roam merges cells 0-2");
    let report = assert_ledger_pins(
        &cfg,
        "5fa77d6889dd865adb1b746cc5fb6d49",
        4,
        &[
            "cd2de4aa494fc58d582f459b405ce733",
            "bb4fbe5c6accb988e3172653eae1cb95",
        ],
    );
    assert_eq!(report.shards[0].result.roams, 1, "the quantised roam ran");
}
