//! Golden-trace gate: the encoded 1-processor trace of every suite
//! benchmark at every experiment thread count, and of every Matmul
//! distribution, is pinned by an FNV-1a 64 digest of its
//! `extrap_trace::format::encode_program` bytes.  Any change to the
//! runtime's event order, clock or record contents shows up here before
//! it reaches an extrapolated figure.  On a deliberate change, re-record
//! the tables from the lines these tests print
//! (`cargo test -p extrap-workloads --test trace_digests -- --nocapture`).

use extrap_trace::format::encode_program;
use extrap_workloads::{matmul, Bench, Scale};

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const SUITE_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// `(bench, P, digest)` at `Scale::Tiny`, Table 2 order.
const SUITE: [(&str, usize, u64); 42] = [
    ("Embar", 1, 0x920901f135d680da),
    ("Embar", 2, 0x4de700a0efe95401),
    ("Embar", 4, 0x686703eaf73ce43f),
    ("Embar", 8, 0x04aee53dba628d2b),
    ("Embar", 16, 0xceaf20d6d34370ef),
    ("Embar", 32, 0x67efde31047a6308),
    ("Cyclic", 1, 0xe91d9fc038d7ec5e),
    ("Cyclic", 2, 0x4050b9d0079e16a3),
    ("Cyclic", 4, 0xa259cbfff6acad58),
    ("Cyclic", 8, 0x6b5a0ba8b2d1d254),
    ("Cyclic", 16, 0xa2cf075bb345bd96),
    ("Cyclic", 32, 0xad7493cfa4d8a675),
    ("Sparse", 1, 0xf4b133491e6b1dd1),
    ("Sparse", 2, 0x37db74beb1a328b8),
    ("Sparse", 4, 0x0ca0ac088de7d871),
    ("Sparse", 8, 0xc26e4a9844e94a4a),
    ("Sparse", 16, 0xbe693de0a352cbb3),
    ("Sparse", 32, 0xd9837250dd4eec6b),
    ("Grid", 1, 0xbca9b6daec8b5ccd),
    ("Grid", 2, 0xd0d322f2f0036897),
    ("Grid", 4, 0xa96f291ef924c93e),
    ("Grid", 8, 0x8175555770aff251),
    ("Grid", 16, 0x83c6056cada2d4bf),
    ("Grid", 32, 0x71809109e60410f1),
    ("Mgrid", 1, 0x702f0fbc5b70ddbe),
    ("Mgrid", 2, 0x25e051747d57a3ba),
    ("Mgrid", 4, 0xfcdefb4d9ddcdade),
    ("Mgrid", 8, 0x0ed87a1c3291e14c),
    ("Mgrid", 16, 0x92e4f65e179a0fe3),
    ("Mgrid", 32, 0x4a342e613ce3829d),
    ("Poisson", 1, 0x44f06d86f22e3577),
    ("Poisson", 2, 0xbe4c2c3b203c59cf),
    ("Poisson", 4, 0x8c695933c6238b6b),
    ("Poisson", 8, 0x718fc54de31e6911),
    ("Poisson", 16, 0x9efd79734a39f19e),
    ("Poisson", 32, 0x6a7c12b75354be59),
    ("Sort", 1, 0x7cb5dcc3996e7805),
    ("Sort", 2, 0xc7630e4fba3bbc19),
    ("Sort", 4, 0x688766dfcfe5248d),
    ("Sort", 8, 0xe5ce1b46e17992c7),
    ("Sort", 16, 0x5648a1af19a0d176),
    ("Sort", 32, 0xa8317a461f42fc93),
];

const MATMUL_PROCS: [usize; 3] = [1, 4, 16];

/// `(distribution index, P, digest)` with the default 16×16 problem.
const MATMUL: [(usize, usize, u64); 27] = [
    (0, 1, 0x785f2661570427a5),
    (0, 4, 0x5359057cdc72b4fe),
    (0, 16, 0xf69d87b0cb9d61e2),
    (1, 1, 0x785f2661570427a5),
    (1, 4, 0xc1748c3b137b6ef7),
    (1, 16, 0x84434a5c75623638),
    (2, 1, 0x785f2661570427a5),
    (2, 4, 0x498e2a92aa33fc80),
    (2, 16, 0x2a5e3b73896c2bcc),
    (3, 1, 0x785f2661570427a5),
    (3, 4, 0x06936ff4c3187050),
    (3, 16, 0x92d687cf79dd0c4e),
    (4, 1, 0x785f2661570427a5),
    (4, 4, 0x5028fa9f8252d91d),
    (4, 16, 0x99f91b894597498c),
    (5, 1, 0x785f2661570427a5),
    (5, 4, 0x6d9fa830611f57c1),
    (5, 16, 0x2a5e3b73896c2bcc),
    (6, 1, 0x785f2661570427a5),
    (6, 4, 0xf323d95ddec71e52),
    (6, 16, 0xf69eb5bc2579ccfa),
    (7, 1, 0x785f2661570427a5),
    (7, 4, 0x596c5f713f13eff1),
    (7, 16, 0xf69eb5bc2579ccfa),
    (8, 1, 0x785f2661570427a5),
    (8, 4, 0x867aef3e31f130b8),
    (8, 16, 0x9374ffcac17acc25),
];

#[test]
fn suite_traces_are_byte_identical() {
    let mut got = Vec::new();
    for bench in Bench::all() {
        for n in SUITE_PROCS {
            let digest = fnv1a64(&encode_program(&bench.trace(n, Scale::Tiny)));
            println!("    (\"{}\", {n}, 0x{digest:016x}),", bench.name());
            got.push((bench.name(), n, digest));
        }
    }
    assert_eq!(got, SUITE);
}

#[test]
fn matmul_traces_are_byte_identical() {
    let mut got = Vec::new();
    for (i, dist) in matmul::nine_distributions().into_iter().enumerate() {
        for n in MATMUL_PROCS {
            let config = matmul::MatmulConfig {
                dist,
                ..Default::default()
            };
            let digest = fnv1a64(&encode_program(&matmul::run(n, &config).0));
            println!("    ({i}, {n}, 0x{digest:016x}),");
            got.push((i, n, digest));
        }
    }
    assert_eq!(got, MATMUL);
}
