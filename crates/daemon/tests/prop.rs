//! Property tests: no request line makes the protocol decoder panic.
//!
//! Every line a client sends reaches `Request::parse_line`, so whatever
//! the bytes, the decoder must return `Ok` or `Err` — a panic there would
//! take down the connection thread, and a stack overflow the whole daemon.

use std::time::Duration;

use boils_baselines::{MAX_BUDGET, MAX_SEQUENCE_LENGTH};
use boils_core::SequenceSpace;
use boils_daemon::Request;
use proptest::prelude::*;

/// The characters JSON structure is made of, plus digits and letters.
const ALPHABET: &[u8] = b"[]{}\":,0123456789abcdefghijklmnopqrstuvwxyz\\";

/// The submit fields `JobRequest::from_json` reads, each with a valid
/// value.
const FIELDS: &[(&str, &str)] = &[
    ("circuit", "\"adder\""),
    ("method", "\"rs\""),
    ("budget", "5"),
    ("k", "6"),
    ("bits", "8"),
    ("seed", "3"),
    ("deadline_secs", "1.5"),
    ("priority", "\"low\""),
    ("objective", "\"qor\""),
    ("mo", "false"),
    ("transfer", "false"),
];

/// Replacement field values: other valid ones, edge numbers, wrong types.
const VALUES: &[&str] = &[
    "\"adder\"",
    "\"sqrt\"",
    "\"rs\"",
    "\"boils\"",
    "\"lut\"",
    "\"high\"",
    "0",
    "1",
    "5",
    "128",
    "129",
    "-1",
    "2.5",
    "1e12",
    "1e15",
    "1e19",
    "1e300",
    "18446744073709551616",
    "true",
    "null",
    "[]",
    "{}",
    "\"\"",
];

/// Decodes `line`, failing the case if the decoder panicked.
fn decode_without_panic(line: &str) -> Result<(), TestCaseError> {
    let decoded = std::panic::catch_unwind(|| Request::parse_line(line));
    prop_assert!(decoded.is_ok(), "parse_line panicked on {line:?}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_without_panicking(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        decode_without_panic(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn arbitrary_json_alphabet_strings_decode_or_fail_without_panicking(
        picks in prop::collection::vec(0..ALPHABET.len(), 0..256),
    ) {
        let line: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        decode_without_panic(&line)?;
    }

    #[test]
    fn submits_with_edge_field_values_decode_within_the_job_bounds(
        picks in prop::collection::vec(0..8 * VALUES.len(), FIELDS.len()),
    ) {
        // One pick in eight replaces a field's valid value, so most lines
        // differ from a valid submit in one field or none.
        let mut line = String::from(r#"{"op":"submit""#);
        for (&(field, valid), &pick) in FIELDS.iter().zip(&picks) {
            let value = VALUES.get(pick).unwrap_or(&valid);
            line.push_str(&format!(r#","{field}":{value}"#));
        }
        line.push('}');
        decode_without_panic(&line)?;
        if let Ok(Request::Submit(job)) = Request::parse_line(&line) {
            let min = job.method.min_budget(SequenceSpace::paper());
            prop_assert!((min..=MAX_BUDGET).contains(&job.budget), "{line}");
            prop_assert!((1..=MAX_SEQUENCE_LENGTH).contains(&job.sequence_length), "{line}");
            prop_assert!(job.bits.is_none_or(|b| job.circuit.check_bits(b).is_ok()), "{line}");
            prop_assert!(
                job.deadline_secs.is_none_or(|s| Duration::try_from_secs_f64(s).is_ok()),
                "{line}"
            );
        }
    }
}
