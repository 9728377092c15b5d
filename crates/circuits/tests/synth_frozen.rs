//! Frozen synthesis output: the structural hash of every intermediate AIG
//! along fixed K = 20 sequences, the `resyn2` reference and the final mapped
//! statistics, on the benchmark workloads' circuits plus adder(8).
//!
//! The tables were captured once and must never be edited to make a change
//! pass: every transform has to keep making exactly the decisions it made
//! when they were recorded, because the persistent prefix store keys its
//! payloads by these hashes and every trajectory table downstream depends
//! on them. A failure names the first diverging pass.

use boils_aig::Aig;
use boils_circuits::{Benchmark, CircuitSpec};
use boils_mapper::{synth_stats, MapperConfig};
use boils_synth::{resyn2, Transform};

/// Two sequences over the full alphabet (indices into `Transform::ALL`):
/// the persist harness's trajectory, and one weighted towards the
/// truth-table passes (resub, refactor, the LUT rebalancers).
const SEQUENCES: [[u8; 20]; 2] = [
    [6, 0, 2, 7, 4, 1, 3, 6, 5, 8, 9, 10, 0, 6, 2, 4, 7, 1, 3, 6],
    [4, 8, 5, 2, 9, 3, 10, 0, 4, 1, 6, 5, 8, 2, 7, 9, 3, 10, 1, 4],
];

struct Frozen {
    /// `Aig::content_hash` after each step of each sequence.
    steps: [[u64; 20]; 2],
    /// `Aig::content_hash` of `resyn2(base)`.
    resyn2: u64,
    /// `(luts, levels)` of the final AIG of each sequence under the default
    /// 6-LUT mapper.
    stats: [(usize, u32); 2],
}

fn check(name: &str, base: Aig, frozen: &Frozen) {
    for (s, sequence) in SEQUENCES.iter().enumerate() {
        let mut state = base.clone();
        for (step, &token) in sequence.iter().enumerate() {
            let transform = Transform::from_index(token as usize);
            state = transform.apply(&state);
            assert_eq!(
                state.content_hash(),
                frozen.steps[s][step],
                "{name}, sequence {s}: step {step} ({transform}) diverged from the frozen AIG"
            );
        }
        let stats = synth_stats(&state, &MapperConfig::default());
        assert_eq!(
            (stats.luts, stats.levels),
            frozen.stats[s],
            "{name}, sequence {s}: final mapped stats changed"
        );
    }
    assert_eq!(
        resyn2(&base).content_hash(),
        frozen.resyn2,
        "{name}: resyn2 reference diverged"
    );
}

#[test]
fn adder8_synthesis_is_frozen() {
    let base = CircuitSpec::new(Benchmark::Adder).bits(8).build();
    check("adder(8)", base, &ADDER8);
}

#[test]
fn sqrt16_synthesis_is_frozen() {
    let base = CircuitSpec::new(Benchmark::SquareRoot).bits(16).build();
    check("sqrt(16)", base, &SQRT16);
}

#[test]
fn square8_synthesis_is_frozen() {
    let base = CircuitSpec::new(Benchmark::Square).bits(8).build();
    check("square(8)", base, &SQUARE8);
}

const ADDER8: Frozen = Frozen {
    steps: [
        [
            0x493b0f6bc1e8d3c8,
            0x493b0f6bc1e8d3c8,
            0xfaa4f9eb0e1f6212,
            0xfaa4f9eb0e1f6212,
            0x9cf8f3917513a67e,
            0x28598fe584140aee,
            0x28598fe584140aee,
            0x28598fe584140aee,
            0x28598fe584140aee,
            0x28598fe584140aee,
            0x28598fe584140aee,
            0x1791afb6f5caa3bd,
            0x95504c884494616a,
            0x5fe20264bbe60e67,
            0x45db56d09621861f,
            0xe27a096cc1bebcdd,
            0xe27a096cc1bebcdd,
            0x1d7a9cd90ab59f4a,
            0x1d7a9cd90ab59f4a,
            0x1d7a9cd90ab59f4a,
        ],
        [
            0x0a68abd02b8906b4,
            0x0a68abd02b8906b4,
            0x0a68abd02b8906b4,
            0x0a68abd02b8906b4,
            0x0a68abd02b8906b4,
            0x0a68abd02b8906b4,
            0x526ce36d45c450a4,
            0x6a666625c0ca2a50,
            0xc2bb1fe72afeac6d,
            0xbb9be2219d64fe4d,
            0x79ecf7523e133180,
            0x79ecf7523e133180,
            0x79ecf7523e133180,
            0x79ecf7523e133180,
            0x79ecf7523e133180,
            0x79ecf7523e133180,
            0x79ecf7523e133180,
            0x6332fe6e17fc43bb,
            0xa2149adb2cb656e1,
            0xf595371791f734ce,
        ],
    ],
    resyn2: 0x373313c02964494d,
    stats: [(12, 4), (13, 4)],
};

const SQRT16: Frozen = Frozen {
    steps: [
        [
            0x2fa3d1d532df80e7,
            0xa7144b46d78327d1,
            0xde30b41805d06239,
            0x3b00b38a7aa6ddb3,
            0x23ab66b760d5cc8d,
            0x79f8fce43855331e,
            0xe651f8617063c3be,
            0xfb357e23bca41638,
            0x8b03f0c5d846b388,
            0x8b03f0c5d846b388,
            0xb18f500bf03cbdbc,
            0x10484733fce1677c,
            0x4f8e48df583c9aa9,
            0x771d4b3887285d87,
            0x46ee88f400598860,
            0x2e2b6d5258446bb0,
            0xf16867fb1bdc69c6,
            0xf97fc3f94f6c5f16,
            0x9303f60555e0e003,
            0x31ed295d929021b9,
        ],
        [
            0xe6f28afbd9b42ec5,
            0x1c30d9550b2b1559,
            0xbe2203c356552ca2,
            0xe5a7e2b3e8c894ee,
            0x2ef391014547bac8,
            0xed9bca031cfd12d2,
            0x6f15f812138fc336,
            0x67d4c4620882476d,
            0xfbd6e6ad3eb2250a,
            0xcdc05e80658ff43f,
            0xabfaf5809cee2c2f,
            0xe2caf99aaa411b3b,
            0x93c693794959136c,
            0xe606e7972f9fbf8c,
            0xa8ee619f4f3f624a,
            0x2e297b2b4978e448,
            0x979784a0363aa90e,
            0x6f598b3b0ff4fd61,
            0x00c5c134eabc5484,
            0xf741c7877128ab64,
        ],
    ],
    resyn2: 0x55da7e6130b6302b,
    stats: [(59, 14), (67, 19)],
};

const SQUARE8: Frozen = Frozen {
    steps: [
        [
            0xddf551ccba57e239,
            0xfe67b74adb22ef81,
            0x45602236d315a0b2,
            0x66cd1c8f8c55f737,
            0xf45e9c0dff9396dd,
            0x8e19dee9bda2c9e7,
            0x47675f8cb6d89c04,
            0x6b4f4cc9ee2bfb8a,
            0xba53b748a9cdbf1e,
            0xba53b748a9cdbf1e,
            0xba53b748a9cdbf1e,
            0x8de3fcec09d96c4d,
            0x37390141dac89cf8,
            0x5fcf8916051920c7,
            0x493b838f9c10940c,
            0xfd4b4e3c91bae19a,
            0x45bc7ada4e360d45,
            0x4a291fefde753e11,
            0x2f889af48833820c,
            0xfcd62ee45b55a801,
        ],
        [
            0x12092c5d4d46690c,
            0x12092c5d4d46690c,
            0xac2a70128d530f48,
            0xc9e5680bf0831851,
            0xc9e5680bf0831851,
            0x7e2c1eabfc7f7bc0,
            0xe86a969dc814eff7,
            0x9bfa277ff7aee792,
            0x050b1321ecab44b1,
            0x4ef6b3df1457dc00,
            0x8fef58a14e77e3fe,
            0xe5b1efd38767a333,
            0xe5b1efd38767a333,
            0xe5b1efd38767a333,
            0x685de5cf88d33fd2,
            0x2922c7b087248836,
            0xcdd65c9b3a81dd02,
            0x3f89b400ef00b8cc,
            0x3f4e20deadd8ae18,
            0x21837dab8c7f7284,
        ],
    ],
    resyn2: 0x94210980ef278500,
    stats: [(88, 10), (84, 11)],
};
