//! Robustness of the binary trace codec: arbitrary and corrupted inputs
//! must produce typed errors, never panics or bogus successes.  The raw
//! decoders (`decode_program_raw` / `decode_set_raw`) are the one
//! decoder per format that every reader goes through.
//!
//! Driven by a deterministic SplitMix64 case generator instead of
//! `proptest` (crates.io is unreachable in the build environment).

use extrap_time::DurationNs;
use extrap_trace::{format, translate, PhaseProgram, TraceError};

const CASES: u64 = 256;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn for_all(seed: u64, check: impl Fn(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng(seed ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
        check(&mut rng);
    }
}

fn sample_bytes() -> Vec<u8> {
    let mut p = PhaseProgram::new(3);
    p.push_uniform_phase(DurationNs(100));
    p.push_uniform_phase(DurationNs(250));
    format::encode_program(&p.record())
}

fn sample_set_bytes() -> Vec<u8> {
    let pt = format::decode_program(&sample_bytes()).unwrap();
    format::encode_set(&translate(&pt, Default::default()).unwrap())
}

/// Decodes `data` raw as both formats; each must succeed or fail with a
/// format error (the raw decoders check structure, nothing else).
fn assert_typed(data: &[u8], what: &str) {
    if let Err(e) = format::decode_program_raw(data) {
        assert!(matches!(e, TraceError::Format { .. }), "{what}: {e:?}");
    }
    if let Err(e) = format::decode_set_raw(data) {
        assert!(matches!(e, TraceError::Format { .. }), "{what}: {e:?}");
    }
}

#[test]
fn random_bytes_never_panic() {
    for_all(0x2A4D, |rng| {
        let len = rng.range(0, 512) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        // Must return (usually Err), never panic.
        let _ = format::decode_program(&data);
        let _ = format::decode_set(&data);
    });
}

#[test]
fn single_byte_corruption_never_panics() {
    let bytes = sample_bytes();
    for pos in 0..bytes.len() {
        for value in [0u8, 1, 7, 0x7F, 0x80, 0xFF] {
            let mut corrupted = bytes.clone();
            corrupted[pos] = value;
            // If it still decodes, it must be a structurally valid trace.
            if let Ok(pt) = format::decode_program(&corrupted) {
                assert!(pt.validate().is_ok());
            }
        }
    }
}

#[test]
fn truncation_never_panics() {
    let bytes = sample_bytes();
    for cut in 0..bytes.len() {
        assert!(format::decode_program(&bytes[..cut]).is_err(), "cut {cut}");
    }
}

#[test]
fn round_trip_of_random_phase_programs() {
    for_all(0x2070, |rng| {
        let n = rng.range(1, 6) as usize;
        let mut p = PhaseProgram::new(n);
        for _ in 0..rng.range(1, 5) {
            p.push_uniform_phase(DurationNs(rng.range(1, 100_000)));
        }
        let pt = p.record();
        let bytes = format::encode_program(&pt);
        let back = format::decode_program(&bytes).unwrap();
        assert_eq!(pt, back);
    });
}

#[test]
fn random_prefixes_never_panic() {
    let program = sample_bytes();
    let set = sample_set_bytes();
    for_all(0x57_0E44, |rng| {
        let pcut = rng.range(0, program.len() as u64 + 1) as usize;
        assert_typed(&program[..pcut], "program prefix");
        assert_eq!(
            format::decode_program_raw(&program[..pcut]).is_ok(),
            pcut == program.len()
        );
        let scut = rng.range(0, set.len() as u64 + 1) as usize;
        assert_typed(&set[..scut], "set prefix");
        assert_eq!(
            format::decode_set_raw(&set[..scut]).is_ok(),
            scut == set.len()
        );
    });
}

#[test]
fn random_mutations_never_panic() {
    let program = sample_bytes();
    let set = sample_set_bytes();
    for_all(0x57_0E45, |rng| {
        for original in [&program, &set] {
            let mut bytes = original.clone();
            for _ in 0..rng.range(1, 5) {
                let pos = rng.range(0, bytes.len() as u64) as usize;
                bytes[pos] = rng.next() as u8;
            }
            assert_typed(&bytes, "mutation");
        }
    });
}

#[test]
fn random_garbage_never_panics() {
    for_all(0x57_0E46, |rng| {
        let len = rng.range(0, 512) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert_typed(&data, "garbage");
    });
}

#[test]
fn truncation_and_extension_at_every_boundary() {
    type Decode = fn(&[u8]) -> Result<(), TraceError>;
    let program: Decode = |d| format::decode_program_raw(d).map(drop);
    let set: Decode = |d| format::decode_set_raw(d).map(drop);
    for (bytes, decode) in [(sample_bytes(), program), (sample_set_bytes(), set)] {
        for cut in 0..bytes.len() {
            let err = decode(&bytes[..cut]).unwrap_err().to_string();
            assert!(err.contains("truncated while reading"), "cut {cut}: {err}");
        }
        decode(&bytes).unwrap();
        for extra in 1..4 {
            let mut longer = bytes.clone();
            longer.extend(vec![0xAAu8; extra]);
            let err = decode(&longer).unwrap_err().to_string();
            assert!(err.contains(&format!("{extra} trailing bytes")), "{err}");
        }
    }
}
