//! Golden gate for the §3.2 translation: FNV-1a 64 digests of
//! `encode_set(translate(..))` for every suite benchmark at every
//! experiment thread count and every Matmul distribution, each under
//! the default options and under intrusion compensation (3 ns per
//! event, 5 ns per thread switch), plus one digest over a seeded
//! differential of random programs: the generated stream, a random
//! re-interleaving of its per-thread streams (threads run ahead of
//! barriers the others have not reached yet), and single-record
//! corruptions, folding either the encoded set or the error text.
//! On a deliberate change, re-record the tables from the lines these
//! tests print (`cargo test -p extrap-workloads --test translate_digests
//! -- --nocapture`).

use extrap_time::{BarrierId, DurationNs, ElementId, ThreadId, TimeNs};
use extrap_trace::format::encode_set;
use extrap_trace::{
    translate, EventKind, PhaseAccess, PhaseProgram, PhaseWork, ProgramTrace, TranslateOptions,
};
use extrap_workloads::{matmul, Bench, Scale};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const OVERHEADS: TranslateOptions = TranslateOptions {
    event_overhead: DurationNs(3),
    switch_overhead: DurationNs(5),
};

/// `(default-options digest, overhead-options digest)` of one trace.
fn digests(pt: &ProgramTrace) -> (u64, u64) {
    let digest = |opts| fnv1a64(&encode_set(&translate(pt, opts).unwrap()));
    (digest(TranslateOptions::default()), digest(OVERHEADS))
}

const SUITE_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// `(bench, P, default digest, overhead digest)` at `Scale::Tiny`.
const SUITE: [(&str, usize, u64, u64); 42] = [
    ("Embar", 1, 0xed53fc9eff317865, 0x15c11425fe38c09d),
    ("Embar", 2, 0x813a39abc6f8c5db, 0x81f716f0b71f545d),
    ("Embar", 4, 0xb0af6269eddc6375, 0x28d376abd039cfba),
    ("Embar", 8, 0x391bba754c778e40, 0xdc34bb56db6cbe3b),
    ("Embar", 16, 0x18318e954013a97b, 0x4918e0cff165935a),
    ("Embar", 32, 0x9aa41090890df853, 0x412a2f2981afea0e),
    ("Cyclic", 1, 0x00f678a1508fb315, 0x69d9d46e4a5b7986),
    ("Cyclic", 2, 0x49332881f2fe8de8, 0x1a075e214349511a),
    ("Cyclic", 4, 0xef6062bf6b4c3fc3, 0xf6cc6e9964f23e89),
    ("Cyclic", 8, 0xbbf0217865467266, 0x51d975d33bb44efe),
    ("Cyclic", 16, 0x1851fddc874d8501, 0xeb2f3c548c46be9b),
    ("Cyclic", 32, 0x4934264e69bd8c30, 0x15ea3eede13a915f),
    ("Sparse", 1, 0x3c56029917aee492, 0x20a48225850a593f),
    ("Sparse", 2, 0x32e460f6a7a7bfe6, 0xb9cf8aa2652ffcba),
    ("Sparse", 4, 0x0dbe03712c8b4b54, 0x189356bfa7e3d988),
    ("Sparse", 8, 0xdd2b7e09db594f81, 0xb6b3754c0cf0d5bb),
    ("Sparse", 16, 0x78f8b1050ee08646, 0x169b067aa83d83de),
    ("Sparse", 32, 0xc8a4966077a7245f, 0x1dddb5e846ca9268),
    ("Grid", 1, 0x9b98be82a58c60ea, 0x9461f55405135a89),
    ("Grid", 2, 0xb49ebb4a3fbb226f, 0x1b2fd851dd6c389e),
    ("Grid", 4, 0x93d8ea2905e27a8d, 0x5486deb31a351449),
    ("Grid", 8, 0xbab37a1a6c5b91d5, 0xd0804b06f06041cd),
    ("Grid", 16, 0x0ce58fb6d4ab1b69, 0x3e8326f6d7d2da31),
    ("Grid", 32, 0xca08cd5e3e925217, 0x346fb1729487c00f),
    ("Mgrid", 1, 0x57634eb211fe2689, 0xa2b24180b08d6e20),
    ("Mgrid", 2, 0xcae8b8b6a9a2be67, 0x5bae16a5a552257c),
    ("Mgrid", 4, 0xa986197f070c995b, 0xd50e9d4a4dad689b),
    ("Mgrid", 8, 0x7a7adfc3d1e1adf6, 0x3bdbb13c67fbfff5),
    ("Mgrid", 16, 0xa448f8035742a822, 0xe935fb7a66f172ed),
    ("Mgrid", 32, 0x75fdca70e1ee38e8, 0x10e53f728efdc6ea),
    ("Poisson", 1, 0x64b634d58833fa48, 0x2bbdc18f006302d1),
    ("Poisson", 2, 0xc4f18341482e27fa, 0x6493aad939757b12),
    ("Poisson", 4, 0x9b22071853390cbf, 0x16fc27fb037842af),
    ("Poisson", 8, 0x84b2123497747cbb, 0x39e55f0a66313727),
    ("Poisson", 16, 0x1155ab7cbd9d74ca, 0xf7e882f56401f33c),
    ("Poisson", 32, 0x4732c1c066f2ee2d, 0x44f132716f5b3790),
    ("Sort", 1, 0x90e56b176bd7dd62, 0xfac12915731a4f7a),
    ("Sort", 2, 0x7c2c36733cd2b13d, 0xa9ec3d633c7bc0b7),
    ("Sort", 4, 0x7598da50076fa0c5, 0x875cbafbb3263875),
    ("Sort", 8, 0x1a7d5797eb495791, 0xdce0fa453578b199),
    ("Sort", 16, 0x17a0fb7573963221, 0x4bbeb83a5a5af751),
    ("Sort", 32, 0xfc403b3c830c84b1, 0xf98201a6c0674671),
];

const MATMUL_PROCS: [usize; 3] = [1, 4, 16];

/// `(distribution index, P, default digest, overhead digest)` with the
/// default 16×16 problem.
const MATMUL: [(usize, usize, u64, u64); 27] = [
    (0, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (0, 4, 0xc7a7ac5f8f57ad77, 0x6c296f38e2d96341),
    (0, 16, 0x15149bb2a61fbc51, 0x9f39b17f7a7fb15d),
    (1, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (1, 4, 0xeb4ef89dc7121119, 0x7966298af71c6853),
    (1, 16, 0xbaf168d61bd1c795, 0x77b57d4444ac2ae3),
    (2, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (2, 4, 0x2ee565c4040ef23d, 0x5fcffa11b420f21f),
    (2, 16, 0xea1006f7c942e3d1, 0xef8639571abc48e3),
    (3, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (3, 4, 0x9c2ca9a7e2ea312b, 0x4389df161bbe0981),
    (3, 16, 0x1edb3521b7c72719, 0x79914fef83962c81),
    (4, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (4, 4, 0x41661d174c314af9, 0x7446cc32a5496f33),
    (4, 16, 0x2b31c323dbc03731, 0xb42bb317f4288437),
    (5, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (5, 4, 0x8397aca453586c8d, 0x15f2a91d1cdf5cdb),
    (5, 16, 0xea1006f7c942e3d1, 0xef8639571abc48e3),
    (6, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (6, 4, 0xb5724628ff8beb3e, 0x5addf11190d54441),
    (6, 16, 0x4516b991004d6098, 0x8d37ac38a323a9fe),
    (7, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (7, 4, 0xc71401352631f17d, 0x3bbae69601e76391),
    (7, 16, 0x4516b991004d6098, 0x8d37ac38a323a9fe),
    (8, 1, 0x4e3117e7aa601cd6, 0x6c43775a680915a8),
    (8, 4, 0x41b4af52466fd5e6, 0xb42b5ac6ff532fb0),
    (8, 16, 0xbc35f3c4e4c4ba02, 0xf69cbdef36fa37b4),
];

/// The digest of [`differential_bytes`].
const DIFFERENTIAL: u64 = 0x7297d05280ba6bf9;

#[test]
fn suite_translations_are_byte_identical() {
    let mut got = Vec::new();
    for bench in Bench::all() {
        for n in SUITE_PROCS {
            let (plain, intrusion) = digests(&bench.trace(n, Scale::Tiny));
            println!(
                "    (\"{}\", {n}, 0x{plain:016x}, 0x{intrusion:016x}),",
                bench.name()
            );
            got.push((bench.name(), n, plain, intrusion));
        }
    }
    assert_eq!(got, SUITE);
}

#[test]
fn matmul_translations_are_byte_identical() {
    let mut got = Vec::new();
    for (i, dist) in matmul::nine_distributions().into_iter().enumerate() {
        for n in MATMUL_PROCS {
            let config = matmul::MatmulConfig {
                dist,
                ..Default::default()
            };
            let (plain, intrusion) = digests(&matmul::run(n, &config).0);
            println!("    ({i}, {n}, 0x{plain:016x}, 0x{intrusion:016x}),");
            got.push((i, n, plain, intrusion));
        }
    }
    assert_eq!(got, MATMUL);
}

#[test]
fn random_translation_differential_is_byte_identical() {
    let digest = fnv1a64(&differential_bytes());
    println!("const DIFFERENTIAL: u64 = 0x{digest:016x};");
    assert_eq!(digest, DIFFERENTIAL);
}

const CASES: u64 = 400;

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

/// A random phase-structured program: 1–5 threads, 1–12 barrier
/// epochs, skewed per-thread compute, 0–3 remote accesses per thread
/// per phase (ordered offsets, random owner/element/size/direction).
fn random_program(rng: &mut Rng) -> ProgramTrace {
    let threads = rng.range(1, 6) as usize;
    let phases = rng.range(1, 13) as usize;
    let mut p = PhaseProgram::new(threads);
    for _ in 0..phases {
        let work: Vec<PhaseWork> = (0..threads)
            .map(|_| {
                let compute = rng.range(1_000, 50_000);
                let n_acc = rng.range(0, 4) as usize;
                let mut offsets: Vec<u64> = (0..n_acc).map(|_| rng.range(0, compute + 1)).collect();
                offsets.sort_unstable();
                let accesses = offsets
                    .into_iter()
                    .map(|after| PhaseAccess {
                        after: DurationNs(after),
                        owner: ThreadId::from_index(rng.range(0, threads as u64) as usize),
                        element: ElementId(rng.range(0, 8) as u32),
                        declared_bytes: rng.range(8, 4096) as u32,
                        actual_bytes: rng.range(1, 256) as u32,
                        write: rng.next().is_multiple_of(2),
                    })
                    .collect();
                PhaseWork {
                    compute: DurationNs(compute),
                    accesses,
                }
            })
            .collect();
        p.push_phase(work);
    }
    p.record()
}

fn random_options(rng: &mut Rng) -> TranslateOptions {
    TranslateOptions {
        event_overhead: DurationNs(rng.range(0, 3) * 500),
        switch_overhead: DurationNs(rng.range(0, 3) * 700),
    }
}

/// Merges the per-thread streams of `pt` in a random order that keeps
/// each thread's own order, re-stamping the global clock so every
/// thread keeps its inter-event deltas.  Threads may run through
/// barriers their peers have not entered yet.
fn reinterleave(pt: &ProgramTrace, rng: &mut Rng) -> ProgramTrace {
    let mut queues: Vec<std::collections::VecDeque<_>> = vec![Default::default(); pt.n_threads];
    for rec in &pt.records {
        queues[rec.thread.index()].push_back(*rec);
    }
    let mut last: Vec<Option<TimeNs>> = vec![None; pt.n_threads];
    let mut clock = TimeNs::ZERO;
    let mut out = ProgramTrace::new(pt.n_threads);
    loop {
        let live: Vec<usize> = (0..pt.n_threads)
            .filter(|&t| !queues[t].is_empty())
            .collect();
        if live.is_empty() {
            return out;
        }
        let t = live[rng.range(0, live.len() as u64) as usize];
        let mut rec = queues[t].pop_front().unwrap();
        if let Some(prev) = last[t] {
            clock += rec.time.since(prev);
        }
        last[t] = Some(rec.time);
        rec.time = clock;
        out.records.push(rec);
    }
}

/// One record of `pt` removed, duplicated or rewritten.
fn corrupt(pt: &ProgramTrace, rng: &mut Rng) -> ProgramTrace {
    let mut bad = pt.clone();
    let i = rng.range(0, bad.records.len() as u64) as usize;
    let barrier = BarrierId(rng.range(0, 4) as u32);
    match rng.range(0, 6) {
        0 => {
            bad.records.remove(i);
        }
        1 => bad.records.insert(i, bad.records[i]),
        2 => bad.records[i].thread = ThreadId(rng.range(0, pt.n_threads as u64 + 2) as u32),
        3 => bad.records[i].time = TimeNs(bad.records[i].time.0 / 2),
        4 => {
            bad.records[i].kind = match bad.records[i].kind {
                EventKind::BarrierEnter { barrier } => EventKind::BarrierExit { barrier },
                EventKind::BarrierExit { barrier } => EventKind::BarrierEnter { barrier },
                _ => EventKind::BarrierEnter { barrier },
            }
        }
        _ => {
            bad.records[i].kind = [
                EventKind::ThreadBegin,
                EventKind::ThreadEnd,
                EventKind::BarrierEnter { barrier },
                EventKind::BarrierExit { barrier },
                EventKind::Marker { id: 1 },
            ][rng.range(0, 5) as usize]
        }
    }
    bad
}

/// Every case's translation, in order: a tag byte, then the encoded set
/// on success or the error's text on failure.
fn differential_bytes() -> Vec<u8> {
    let mut out = Vec::new();
    let mut fold = |pt: &ProgramTrace, opts| match translate(pt, opts) {
        Ok(set) => {
            out.push(b'+');
            out.extend(encode_set(&set));
        }
        Err(e) => {
            out.push(b'-');
            out.extend(e.to_string().bytes());
        }
    };
    for case in 0..CASES {
        let mut rng = Rng(0x7A_D16E ^ case.wrapping_mul(0xA076_1D64_78BD_642F));
        let pt = random_program(&mut rng);
        let opts = random_options(&mut rng);
        fold(&pt, opts);
        let mixed = reinterleave(&pt, &mut rng);
        fold(&mixed, opts);
        fold(&corrupt(&pt, &mut rng), opts);
        fold(&corrupt(&mixed, &mut rng), opts);
    }
    out
}
