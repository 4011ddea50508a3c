//! Golden digests of per-cell simulated results at a small fixed budget.
//!
//! The differential suites compare two ways of computing the same thing
//! (event-driven against per-cycle, N=1 against one core), so a semantic
//! change that moves both sides together passes them all. These digests
//! pin the results themselves: each cell's `(SimResult, EngineStats,
//! DramStats)` is rendered with `Debug` and hashed with FNV-1a, the same
//! recipe as `perfbench`'s `digest_of`. Any change to a value here must
//! be explained in CHANGES.md.

use secddr::core::config::SecurityConfig;
use secddr::core::engine::EngineOptions;
use secddr::core::metadata::DATA_SPAN;
use secddr::core::system::run_trace_with_options;
use secddr::cpu::CpuConfig;
use secddr::workloads::Benchmark;
use secddr::{CoreTrace, Interleave, MultiCoreSystem, ShardedEngine};

const BUDGET: u64 = 5_000;
const SEED: u64 = 0xD5;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

/// The Figure 6 columns: the TDX baseline, then the five configs.
fn configs() -> [SecurityConfig; 6] {
    [
        SecurityConfig::tdx_baseline(),
        SecurityConfig::tree_64ary(),
        SecurityConfig::secddr_ctr(),
        SecurityConfig::encrypt_only_ctr(),
        SecurityConfig::secddr_xts(),
        SecurityConfig::encrypt_only_xts(),
    ]
}

/// One row per benchmark, one digest per config in [`configs`] order.
const FIG6: [(&str, [u64; 6]); 3] = [
    (
        "mcf",
        [
            0xf2cc_f862_d6c1_104a,
            0x35aa_5685_5eb8_c6ec,
            0x9710_c041_3a5d_2bd9,
            0xfe5e_097a_faf1_a15a,
            0xf2cc_f862_d6c1_104a,
            0xf2cc_f862_d6c1_104a,
        ],
    ),
    (
        "povray",
        [
            0xad15_8ab0_fe63_db5f,
            0x67c0_42aa_857b_9196,
            0xd11d_b94f_0349_cad8,
            0x6e8a_2416_e9d6_4236,
            0xad15_8ab0_fe63_db5f,
            0xad15_8ab0_fe63_db5f,
        ],
    ),
    (
        "lbm",
        [
            0x2c58_e2e5_846d_776f,
            0x2b84_4a25_e120_9eb0,
            0xcb69_e986_e008_5f98,
            0x011a_7924_44f0_0121,
            0x2c58_e2e5_846d_776f,
            0x2c58_e2e5_846d_776f,
        ],
    ),
];

/// bwaves at a budget long enough for dirty lines to leave the LLC. At
/// [`BUDGET`] no write reaches DRAM, so both XTS columns above equal the
/// TDX baseline; here SecDDR+XTS pays the eWCRC BL10 write burst that
/// Encrypt-only XTS does not.
const WRITE_BUDGET: u64 = 100_000;

/// bwaves at [`WRITE_BUDGET`]: SecDDR+XTS, then Encrypt-only XTS.
const BWAVES_WRITES: [u64; 2] = [0x0b67_4f24_279b_6c1d, 0x8f2b_eaee_6dc7_3925];

/// mcf x SecDDR+CTR, four rate-mode cores over a 4-channel
/// xor-interleaved `ShardedEngine`.
const RATE_N4: u64 = 0x896c_9aad_a102_47ee;

#[test]
fn figure6_cells_match_golden_digests() {
    let mut diverged = Vec::new();
    for (name, expected) in FIG6 {
        let bench = Benchmark::by_name(name).expect("benchmark exists");
        let trace = bench.generate(BUDGET, SEED);
        for (config, want) in configs().iter().zip(expected) {
            let r = run_trace_with_options(&bench, &trace, config, EngineOptions::default());
            let got = digest_of(&(&r.sim, &r.engine, &r.dram));
            if got != want {
                diverged.push(format!("{name} x {}: {got:#018x}", config.label()));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "digests changed:\n{}",
        diverged.join("\n")
    );
}

#[test]
fn xts_cells_with_writebacks_match_golden_digests() {
    let bench = Benchmark::by_name("bwaves").expect("bwaves exists");
    let trace = bench.generate(WRITE_BUDGET, SEED);
    let configs = [
        SecurityConfig::secddr_xts(),
        SecurityConfig::encrypt_only_xts(),
    ];
    let got = configs.map(|config| {
        let r = run_trace_with_options(&bench, &trace, &config, EngineOptions::default());
        digest_of(&(&r.sim, &r.engine, &r.dram))
    });
    assert_ne!(got[0], got[1], "the eWCRC write burst must show");
    for ((config, got), want) in configs.iter().zip(got).zip(BWAVES_WRITES) {
        assert_eq!(
            got,
            want,
            "bwaves x {}: digest changed: {got:#018x}",
            config.label()
        );
    }
}

#[test]
fn four_core_rate_cell_matches_golden_digest() {
    let bench = Benchmark::by_name("mcf").expect("mcf exists");
    let trace = bench.generate_shared(BUDGET, SEED);
    let options = EngineOptions::default();
    let cpu_cfg = CpuConfig {
        advance: options.advance,
        batch_submit: options.batched_ingestion,
        ..CpuConfig::default()
    };
    let engine = ShardedEngine::with_options(
        SecurityConfig::secddr_ctr(),
        cpu_cfg.clock_mhz,
        Interleave::xor(4),
        options,
    );
    let mut sys = MultiCoreSystem::new(4, cpu_cfg, engine);
    let result = sys.run(CoreTrace::rate(&trace, DATA_SPAN, 4));
    let engine = sys.backend_mut().stats();
    let dram = sys.backend_mut().dram_stats();
    let got = digest_of(&(&result, &engine, &dram));
    assert_eq!(got, RATE_N4, "digest changed: {got:#018x}");
}
