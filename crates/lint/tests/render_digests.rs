//! Golden gate for lint output: the FNV-1a 64 digests of `render_text`
//! and `render_json` for the shipped example traces and for every
//! corruption class of the fixture battery (mirrors
//! `tests/corrupted_fixtures.rs`), each re-encoded to bytes and decoded
//! raw, as `extrap lint` reads a file.  On a deliberate change,
//! re-record the table from the lines this test prints
//! (`cargo test -p extrap-lint --test render_digests -- --nocapture`).

use extrap_lint::{lint_program, lint_set, render_json, render_text, Report};
use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId, TimeNs};
use extrap_trace::{
    format, translate, EventKind, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace, TraceRecord,
    TraceSet,
};
use std::path::PathBuf;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(fixture, render_text digest, render_json digest)`.
const RENDERS: [(&str, u64, u64); 21] = [
    ("grid4.xtrp", 0x5230e925925a8a03, 0x60d1bf97de3c6d1f),
    ("corrupt_time.xtrp", 0xab6c52d6f769a21e, 0xa32f61a38b3b934c),
    ("grid4.xtps", 0x5230e925925a8a03, 0x60d1bf97de3c6d1f),
    ("clean program", 0x5230e925925a8a03, 0x60d1bf97de3c6d1f),
    ("e001 global time", 0x0f4270f575224569, 0x12adf8046c53f5f3),
    ("e003 bad thread id", 0x2bfeaff266b6eaa0, 0x6e3270e971d8cc55),
    ("e006 dangling", 0x1f742a49b0c5e300, 0xffb730f43010150e),
    ("e006 inconsistent", 0x43d00b9347399469, 0x8f9f9927c786d849),
    ("e006 redistributed", 0x5230e925925a8a03, 0x60d1bf97de3c6d1f),
    ("e007 program races", 0xbe24d2fa4cf9a52b, 0x393568192863f5bc),
    ("e007+e005 program", 0x55f423cd3742b23b, 0xd14c2bed184d2fb0),
    ("w001 markers", 0x6ed9818433e66017, 0x0289048a34156736),
    ("w002 self access", 0x506110903cba4c40, 0x413e64877076265e),
    ("w003 missing frame", 0xe6e6702ca1b09631, 0x74812a69517bd3c1),
    ("clean set", 0x5230e925925a8a03, 0x60d1bf97de3c6d1f),
    ("e002 thread time", 0x2eda8a99675bad65, 0xe4a4a1f0c1d576af),
    ("e004 unmatched", 0x549001b370f7fe12, 0x59db1d501df8baea),
    ("e005 mismatch", 0x4a0d428bc1664450, 0x8a916985b9a24b4a),
    ("e007 set race", 0xa54f7918bc7892fb, 0xb426c1c870889f4b),
    ("e007 separated", 0x5230e925925a8a03, 0x60d1bf97de3c6d1f),
    ("e009 misplaced", 0xa14bc87d72193691, 0x4afe3f8cee2d61ad),
];

fn example(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/traces")
        .join(name);
    std::fs::read(path).unwrap()
}

fn lint_program_bytes(bytes: &[u8]) -> Report {
    lint_program(&format::decode_program_raw(bytes).unwrap())
}

fn lint_set_bytes(bytes: &[u8]) -> Report {
    lint_set(&format::decode_set_raw(bytes).unwrap())
}

fn access(owner: u32, element: u32, write: bool) -> PhaseAccess {
    PhaseAccess {
        after: DurationNs(10),
        owner: ThreadId(owner),
        element: ElementId(element),
        declared_bytes: 8,
        actual_bytes: 8,
        write,
    }
}

fn work(compute_ns: u64, accesses: Vec<PhaseAccess>) -> PhaseWork {
    PhaseWork {
        compute: DurationNs(compute_ns),
        accesses,
    }
}

fn clean_program() -> ProgramTrace {
    let mut p = PhaseProgram::new(2);
    p.push_uniform_phase(DurationNs(100));
    p.push_uniform_phase(DurationNs(40));
    p.record()
}

fn clean_set() -> TraceSet {
    translate(&clean_program(), Default::default()).unwrap()
}

fn program_fixtures() -> Vec<(&'static str, ProgramTrace)> {
    let mut out = vec![("clean program", clean_program())];

    let mut e001 = clean_program();
    e001.records[2].time = TimeNs::ZERO;
    out.push(("e001 global time", e001));

    let mut e003 = clean_program();
    let t = e003.records[2].time;
    e003.records.insert(
        3,
        TraceRecord {
            time: t,
            thread: ThreadId(9),
            kind: EventKind::Marker { id: 7 },
        },
    );
    out.push(("e003 bad thread id", e003));

    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        work(100, vec![access(9, 5, false)]),
        work(100, vec![]),
    ]);
    out.push(("e006 dangling", p.record()));

    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        work(100, vec![access(2, 5, false)]),
        work(100, vec![access(0, 5, false)]),
        work(100, vec![]),
    ]);
    out.push(("e006 inconsistent", p.record()));

    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        work(100, vec![access(2, 5, false)]),
        work(100, vec![]),
        work(100, vec![]),
    ]);
    p.push_phase(vec![
        work(40, vec![access(1, 5, false)]),
        work(40, vec![]),
        work(40, vec![]),
    ]);
    out.push(("e006 redistributed", p.record()));

    // A race in the first epoch of a program trace, followed by more
    // epochs: its E007 must still render after every E005.
    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        work(100, vec![access(2, 9, true)]),
        work(100, vec![access(2, 9, false)]),
        work(100, vec![]),
    ]);
    p.push_uniform_phase(DurationNs(40));
    p.push_phase(vec![
        work(100, vec![]),
        work(100, vec![access(0, 4, true)]),
        work(100, vec![access(0, 4, false)]),
    ]);
    let mut e007 = p.record();
    out.push(("e007 program races", e007.clone()));
    e007.records.retain(|r| {
        r.thread != ThreadId(2)
            || !matches!(r.kind, EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier } if barrier == BarrierId(2))
    });
    out.push(("e007+e005 program", e007));

    let mut w001 = clean_program();
    let t_end = w001.records.last().unwrap().time;
    for (thread, id) in [(0, 1), (1, 2)] {
        w001.records.push(TraceRecord {
            time: t_end,
            thread: ThreadId(thread),
            kind: EventKind::Marker { id },
        });
    }
    out.push(("w001 markers", w001));

    let mut p = PhaseProgram::new(2);
    p.push_phase(vec![
        work(100, vec![access(0, 4, false)]),
        work(100, vec![]),
    ]);
    out.push(("w002 self access", p.record()));

    let mut w003 = ProgramTrace::new(2);
    w003.records.push(TraceRecord {
        time: TimeNs::ZERO,
        thread: ThreadId(0),
        kind: EventKind::ThreadBegin,
    });
    w003.records.push(TraceRecord {
        time: TimeNs(10),
        thread: ThreadId(0),
        kind: EventKind::ThreadEnd,
    });
    out.push(("w003 missing frame", w003));
    out
}

fn set_fixtures() -> Vec<(&'static str, TraceSet)> {
    let mut out = vec![("clean set", clean_set())];

    let mut e002 = clean_set();
    let last = e002.threads[1].records.len() - 1;
    e002.threads[1].records[last].time = TimeNs::ZERO;
    out.push(("e002 thread time", e002));

    let mut e004 = clean_set();
    let pos = e004.threads[1]
        .records
        .iter()
        .position(
            |r| matches!(r.kind, EventKind::BarrierExit { barrier } if barrier == BarrierId(0)),
        )
        .unwrap();
    e004.threads[1].records.remove(pos);
    out.push(("e004 unmatched", e004));

    let mut e005 = clean_set();
    e005.threads[1].records.retain(
        |r| !matches!(r.kind, EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier } if barrier == BarrierId(1)),
    );
    out.push(("e005 mismatch", e005));

    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        work(100, vec![access(2, 9, true)]),
        work(100, vec![access(2, 9, false)]),
        work(100, vec![]),
    ]);
    let e007 = translate(&p.record(), Default::default()).unwrap();
    out.push(("e007 set race", e007));

    let mut p = PhaseProgram::new(3);
    p.push_phase(vec![
        work(100, vec![access(2, 3, true)]),
        work(100, vec![]),
        work(100, vec![]),
    ]);
    p.push_phase(vec![
        work(40, vec![]),
        work(40, vec![access(2, 3, false)]),
        work(40, vec![]),
    ]);
    let ordered = translate(&p.record(), Default::default()).unwrap();
    out.push(("e007 separated", ordered));

    let mut e009 = clean_set();
    e009.threads[1].records[1].thread = ThreadId(0);
    out.push(("e009 misplaced", e009));
    out
}

/// Digests each report's renders, prints them as table rows and checks
/// them against `expected`, a slice of `RENDERS`.
fn assert_renders(reports: &[(&str, Report)], expected: &[(&str, u64, u64)]) {
    let mut got = Vec::new();
    for (name, report) in reports {
        let text = fnv1a64(render_text(report).as_bytes());
        let json = fnv1a64(render_json(report).as_bytes());
        println!("    (\"{name}\", 0x{text:016x}, 0x{json:016x}),");
        got.push((*name, text, json));
    }
    assert_eq!(got, expected);
}

#[test]
fn example_traces_lint_identically() {
    let mut reports = Vec::new();
    for name in ["grid4.xtrp", "corrupt_time.xtrp"] {
        reports.push((name, lint_program_bytes(&example(name))));
    }
    reports.push(("grid4.xtps", lint_set_bytes(&example("grid4.xtps"))));
    assert_renders(&reports, &RENDERS[..3]);
}

#[test]
fn corrupted_program_fixtures_lint_identically() {
    let reports: Vec<_> = program_fixtures()
        .into_iter()
        .map(|(name, pt)| (name, lint_program_bytes(&format::encode_program(&pt))))
        .collect();
    assert_renders(&reports, &RENDERS[3..14]);
}

#[test]
fn corrupted_set_fixtures_lint_identically() {
    let reports: Vec<_> = set_fixtures()
        .into_iter()
        .map(|(name, ts)| (name, lint_set_bytes(&format::encode_set(&ts))))
        .collect();
    assert_renders(&reports, &RENDERS[14..]);
}
