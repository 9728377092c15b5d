//! Property-based tests for the AIG substrate: every random AIG must satisfy
//! the structural invariants, survive an AIGER round trip unchanged, and be
//! functionally invariant under cleanup.

use boils_aig::{random_aig, splitmix64, Aig, Lit, SimTable};
use proptest::prelude::*;

/// Deterministic pseudo-random pattern words for simulation tests.
fn pattern_words(seed: u64, pis: usize, words: usize) -> Vec<Vec<u64>> {
    let mut state = seed;
    (0..pis)
        .map(|_| {
            (0..words)
                .map(|_| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    splitmix64(state)
                })
                .collect()
        })
        .collect()
}

/// Structural identity (stronger than functional equivalence): same inputs,
/// same AND gates with the same fanin literals in the same arena order, same
/// output drivers. This is the property the persistent prefix store relies
/// on — a cache-restored intermediate AIG must be indistinguishable from the
/// one that was written, so every subsequently applied transform is
/// bit-identical.
fn assert_structurally_identical(a: &Aig, b: &Aig) {
    assert_eq!(a.num_pis(), b.num_pis(), "input count");
    assert_eq!(a.num_ands(), b.num_ands(), "gate count");
    assert_eq!(a.num_pos(), b.num_pos(), "output count");
    for var in a.ands() {
        assert_eq!(a.fanin0(var).raw(), b.fanin0(var).raw(), "fanin0 of {var}");
        assert_eq!(a.fanin1(var).raw(), b.fanin1(var).raw(), "fanin1 of {var}");
    }
    for (i, (pa, pb)) in a.pos().iter().zip(b.pos()).enumerate() {
        assert_eq!(pa.raw(), pb.raw(), "output {i}");
    }
    assert_eq!(a.content_hash(), b.content_hash());
}

/// `write → read → write` for the binary codec: the parsed AIG must be
/// structurally identical and the second serialisation byte-stable.
fn binary_round_trip(aig: &Aig) -> Aig {
    let mut first = Vec::new();
    aig.write_aig_binary(&mut first).expect("in-memory write");
    let back = Aig::read_aig_binary(first.as_slice()).expect("parse back");
    assert_structurally_identical(aig, &back);
    assert_eq!(back.name(), aig.name());
    let mut second = Vec::new();
    back.write_aig_binary(&mut second).expect("rewrite");
    assert_eq!(first, second, "binary serialisation is not byte-stable");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_aigs_satisfy_invariants(
        seed in 0u64..10_000,
        pis in 1usize..10,
        gates in 0usize..200,
        pos in 1usize..5,
    ) {
        let aig = random_aig(seed, pis, gates, pos);
        prop_assert!(aig.check().is_ok());
        prop_assert_eq!(aig.num_pis(), pis);
        prop_assert_eq!(aig.num_pos(), pos);
    }

    #[test]
    fn cleanup_preserves_function(
        seed in 0u64..10_000,
        pis in 1usize..9,
        gates in 0usize..150,
    ) {
        let aig = random_aig(seed, pis, gates, 3);
        let clean = aig.cleanup();
        prop_assert!(clean.check().is_ok());
        prop_assert!(clean.num_ands() <= aig.num_ands());
        prop_assert_eq!(clean.simulate_exhaustive(), aig.simulate_exhaustive());
    }

    #[test]
    fn aiger_round_trip_preserves_function(
        seed in 0u64..10_000,
        pis in 1usize..9,
        gates in 0usize..150,
    ) {
        let aig = random_aig(seed, pis, gates, 2);
        let mut buf = Vec::new();
        aig.write_aag(&mut buf).expect("in-memory write");
        let back = Aig::read_aag(buf.as_slice()).expect("parse back");
        prop_assert!(back.check().is_ok());
        prop_assert_eq!(back.simulate_exhaustive(), aig.simulate_exhaustive());
    }

    #[test]
    fn binary_codec_round_trip_is_structurally_stable(
        seed in 0u64..10_000,
        pis in 1usize..9,
        gates in 0usize..150,
        pos in 1usize..5,
    ) {
        // Dangling gates included on purpose: intermediate AIGs cached by
        // the persistent store are written exactly as the transforms left
        // them, so the codec must preserve unreachable gates too.
        let aig = random_aig(seed, pis, gates, pos);
        let back = binary_round_trip(&aig);
        prop_assert!(back.check().is_ok());
        prop_assert_eq!(back.simulate_exhaustive(), aig.simulate_exhaustive());
    }

    #[test]
    fn ascii_codec_round_trip_is_structurally_stable(
        seed in 0u64..10_000,
        pis in 1usize..9,
        gates in 0usize..150,
    ) {
        let aig = random_aig(seed, pis, gates, 3);
        let mut first = Vec::new();
        aig.write_aag(&mut first).expect("in-memory write");
        let back = Aig::read_aag(first.as_slice()).expect("parse back");
        assert_structurally_identical(&aig, &back);
        let mut second = Vec::new();
        back.write_aag(&mut second).expect("rewrite");
        prop_assert_eq!(first, second);
    }

    #[test]
    fn word_simulation_matches_exhaustive(
        seed in 0u64..10_000,
        gates in 0usize..120,
    ) {
        // 6 inputs → the 64 exhaustive patterns fit exactly in one u64 word,
        // so simulate() with the canonical masks must equal the truth table.
        let aig = random_aig(seed, 6, gates, 2);
        let pi_words: Vec<u64> =
            (0..6).map(|i| boils_aig::input_pattern(i, 1)[0]).collect();
        let words = aig.simulate(&pi_words);
        let tts = aig.simulate_exhaustive();
        for (w, tt) in words.iter().zip(&tts) {
            prop_assert_eq!(*w, tt[0]);
        }
    }

    #[test]
    fn flat_sim_table_matches_legacy_node_simulation(
        seed in 0u64..10_000,
        pis in 1usize..9,
        gates in 0usize..150,
        words in 1usize..5,
        pat_seed in any::<u64>(),
    ) {
        let aig = random_aig(seed, pis, gates, 2);
        let pi_words = pattern_words(pat_seed, pis, words);
        // Independent oracle: the pre-SimTable per-node layout, computed
        // gate by gate exactly as the legacy simulate_nodes did.
        let mut legacy = vec![vec![0u64; words]; aig.num_nodes()];
        for (i, row) in pi_words.iter().enumerate() {
            legacy[1 + i].copy_from_slice(row);
        }
        for var in aig.ands() {
            let (f0, f1) = (aig.fanin0(var), aig.fanin1(var));
            let (m0, m1) = (
                if f0.is_complement() { !0u64 } else { 0 },
                if f1.is_complement() { !0u64 } else { 0 },
            );
            legacy[var] = (0..words)
                .map(|w| (legacy[f0.var()][w] ^ m0) & (legacy[f1.var()][w] ^ m1))
                .collect();
        }
        let table = SimTable::from_patterns(&aig, &pi_words, words);
        let wrapper = aig.simulate_nodes(&pi_words, words);
        for v in 0..aig.num_nodes() {
            prop_assert_eq!(table.row(v), &legacy[v][..], "flat row of node {}", v);
            prop_assert_eq!(&wrapper[v], &legacy[v], "wrapper row of node {}", v);
        }
    }

    #[test]
    fn incremental_append_matches_from_scratch_simulation(
        seed in 0u64..10_000,
        pis in 1usize..8,
        gates in 0usize..150,
        first in 1usize..3,
        second in 1usize..3,
        pat_seed in any::<u64>(),
        cex_seed in any::<u64>(),
    ) {
        let aig = random_aig(seed, pis, gates, 2);
        let all = pattern_words(pat_seed, pis, first + second);
        let head: Vec<Vec<u64>> = all.iter().map(|r| r[..first].to_vec()).collect();
        let tail: Vec<Vec<u64>> = all.iter().map(|r| r[first..].to_vec()).collect();

        // Whole words appended incrementally = one-shot simulation.
        let mut incremental = SimTable::from_patterns(&aig, &head, first);
        incremental.append_pattern_words(&aig, &tail);
        let scratch = SimTable::from_patterns(&aig, &all, first + second);
        for v in 0..aig.num_nodes() {
            prop_assert_eq!(incremental.row(v), scratch.row(v), "node {}", v);
        }

        // Single-pattern counterexamples packed into partial words agree
        // with plain per-pattern simulation of the same assignments.
        let cexes: Vec<Vec<bool>> = (0..5)
            .map(|j| {
                (0..pis)
                    .map(|i| splitmix64(cex_seed ^ (j * 131 + i) as u64) & 1 == 1)
                    .collect()
            })
            .collect();
        let base_bits = incremental.num_bits();
        incremental.append_counterexamples(&aig, &cexes);
        prop_assert_eq!(incremental.num_bits(), base_bits + 5);
        for (j, cex) in cexes.iter().enumerate() {
            let inputs: Vec<u64> = cex.iter().map(|&v| v as u64).collect();
            let outs = aig.simulate(&inputs);
            for (o, &po) in aig.pos().iter().enumerate() {
                prop_assert_eq!(
                    incremental.lit_value(po, base_bits + j),
                    outs[o] & 1 == 1,
                    "output {} of cex {}", o, j
                );
            }
        }
    }

    #[test]
    fn depth_is_monotone_under_cleanup(
        seed in 0u64..10_000,
        gates in 0usize..150,
    ) {
        let aig = random_aig(seed, 7, gates, 2);
        // Cleanup never increases depth: it only removes dangling gates.
        prop_assert!(aig.cleanup().depth() <= aig.depth());
    }

    #[test]
    fn mffc_bounded_by_and_count(
        seed in 0u64..10_000,
        gates in 1usize..150,
    ) {
        let aig = random_aig(seed, 6, gates, 2);
        let mut refs = aig.fanout_counts();
        let before = refs.clone();
        for var in aig.ands() {
            let m = aig.mffc_size(var, &mut refs);
            prop_assert!(m >= 1);
            prop_assert!(m <= aig.num_ands());
        }
        // Fanout counts must be fully restored.
        prop_assert_eq!(refs, before);
    }
}

// Codec edge cases the random generator rarely (or never) produces.

#[test]
fn binary_codec_handles_an_aig_with_zero_ands() {
    let mut aig = Aig::new(3);
    let wire = aig.pi(1);
    aig.add_po(wire);
    aig.add_po(!wire);
    assert_eq!(aig.num_ands(), 0);
    binary_round_trip(&aig);
}

#[test]
fn binary_codec_handles_constant_outputs() {
    let mut aig = Aig::new(1);
    aig.add_po(Lit::FALSE);
    aig.add_po(Lit::TRUE);
    binary_round_trip(&aig);
}

#[test]
fn binary_codec_handles_a_single_output() {
    let mut aig = Aig::new(2);
    let g = aig.and(aig.pi(0), aig.pi(1));
    aig.add_po(g);
    aig.set_name("and2");
    let back = binary_round_trip(&aig);
    assert_eq!(back.name(), "and2");
}

#[test]
fn binary_header_declares_no_latches() {
    // The combinational subset is all the store ever serialises; the
    // header's latch field must always be zero so readers (ours and
    // external AIGER tools) never see dangling latch declarations.
    let aig = random_aig(9, 5, 60, 2);
    let mut buf = Vec::new();
    aig.write_aig_binary(&mut buf).expect("write");
    let header = String::from_utf8_lossy(buf.split(|&b| b == b'\n').next().expect("header"));
    let fields: Vec<&str> = header.split_whitespace().collect();
    assert_eq!(fields[0], "aig");
    assert_eq!(fields[3], "0", "latch count must be zero: {header}");
}

// Hostile AIGER input: whatever follows the magic, both readers return
// `Ok` or `Err` and never panic (or abort on an unbounded allocation), and
// whatever they accept is a valid AIG.

/// Header counts a fuzzer should hit: small values that lead into the body,
/// and the overflow and size-bound edges.
const EDGE_COUNTS: [&str; 6] = [
    "4294967295",
    "16777216",
    "16777217",
    "1000000000000000",
    "18446744073709551615",
    "-1",
];

fn header_count(pick: u8, small: usize) -> String {
    match pick {
        0..=9 => small.to_string(),
        _ => EDGE_COUNTS[usize::from(pick) % EDGE_COUNTS.len()].to_string(),
    }
}

/// Runs the reader for `magic` on `bytes`, failing the case on a panic or
/// on an accepted AIG that breaks the structural invariants.
fn read_without_panic(magic: &str, bytes: &[u8]) -> Result<(), TestCaseError> {
    let parsed = std::panic::catch_unwind(|| match magic {
        "aag" => Aig::read_aag(bytes),
        _ => Aig::read_aig_binary(bytes),
    });
    match parsed {
        Err(_) => Err(TestCaseError::fail(format!(
            "{magic} reader panicked on {:?}",
            String::from_utf8_lossy(bytes)
        ))),
        Ok(Ok(aig)) => {
            prop_assert!(aig.check().is_ok(), "accepted an invalid AIG");
            Ok(())
        }
        Ok(Err(_)) => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn aiger_readers_never_panic_on_arbitrary_bytes(
        binary in any::<bool>(),
        body in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let magic = if binary { "aig" } else { "aag" };
        let mut bytes = format!("{magic} ").into_bytes();
        bytes.extend(&body);
        read_without_panic(magic, &bytes)?;
    }

    #[test]
    fn aiger_readers_never_panic_behind_plausible_headers(
        binary in any::<bool>(),
        picks in prop::collection::vec(0u8..16, 4),
        counts in prop::collection::vec(0usize..8, 4),
        numbers in prop::collection::vec(0u32..40, 0..40),
        body in prop::collection::vec(0u8..=255, 0..64),
    ) {
        // `M I 0 O A` from small values and edge cases (latches are
        // rejected outright, so `L` stays 0), then lines of small literals
        // (the ASCII body) followed by raw bytes (binary deltas, or
        // garbage).
        let magic = if binary { "aig" } else { "aag" };
        let f: Vec<String> = picks
            .iter()
            .zip(&counts)
            .map(|(&pick, &small)| header_count(pick, small))
            .collect();
        let mut text = format!("{magic} {} {} 0 {} {}\n", f[0], f[1], f[2], f[3]);
        for chunk in numbers.chunks(3) {
            let line: Vec<String> = chunk.iter().map(u32::to_string).collect();
            text.push_str(&line.join(" "));
            text.push('\n');
        }
        let mut bytes = text.into_bytes();
        bytes.extend(&body);
        read_without_panic(magic, &bytes)?;
    }
}

#[test]
fn aiger_readers_reject_the_reported_hostile_headers() {
    for (magic, header) in [
        ("aag", "aag 0 0 0 0 18446744073709551615\n"),
        ("aag", "aag 0 18446744073709551615 0 0 0\n"),
        ("aig", "aig 5 18446744073709551615 0 0 6\n"),
        ("aig", "aig 0 0 0 1000000000000000 0\n"),
    ] {
        let result = match magic {
            "aag" => Aig::read_aag(header.as_bytes()),
            _ => Aig::read_aig_binary(header.as_bytes()),
        };
        assert!(result.is_err(), "{header:?} was accepted");
    }
}
