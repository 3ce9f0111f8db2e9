//! Golden-prediction gate: every suite benchmark at every experiment
//! thread count is extrapolated under a grid of service policies,
//! barrier algorithms and epoch strategies, and the scalar outputs of
//! each run are folded into one FNV-1a 64 digest per `(bench, P)`.  A
//! second table pins the full predicted trace of one Full-mode poll run
//! per benchmark.  Any change to the simulator's event order, tie
//! breaking or dispatch count shows up here before it reaches a figure.
//! On a deliberate change, re-record the tables from the lines these
//! tests print
//! (`cargo test -p extrap-workloads --test prediction_digests -- --nocapture`).

use extrap_core::{
    machine, BarrierAlgorithm, Extrapolator, Prediction, RecordMode, ServicePolicy, SimParams,
    SimStrategy,
};
use extrap_trace::format::encode_set;
use extrap_trace::TraceSet;
use extrap_workloads::{Bench, Scale};

/// FNV-1a 64, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

const SUITE_PROCS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The parameter grid: every service policy (including a poll interval
/// short enough that nearly every compute segment is chopped) crossed
/// with every barrier algorithm, plus the representative strategy under
/// each policy.  All runs are MetricsOnly on the Fig. 4 machine.
fn param_grid() -> Vec<SimParams> {
    let policies = [
        ServicePolicy::NoInterrupt,
        ServicePolicy::Interrupt,
        ServicePolicy::poll_us(100.0),
        ServicePolicy::poll_us(3.0),
    ];
    let barriers = [
        BarrierAlgorithm::Linear,
        BarrierAlgorithm::Tree { arity: 4 },
        BarrierAlgorithm::Hardware,
    ];
    let repr = SimStrategy::parse("repr:64:0.05").unwrap();
    let mut grid = Vec::new();
    for policy in policies {
        let mut base = machine::default_distributed();
        base.policy = policy;
        base.record_mode = RecordMode::MetricsOnly;
        assert!(base.barrier.by_msgs, "the Linear barrier runs by messages");
        for algorithm in barriers {
            let mut p = base.clone();
            p.barrier.algorithm = algorithm;
            grid.push(p);
        }
        let mut p = base;
        p.strategy = repr;
        grid.push(p);
    }
    grid
}

/// Folds every scalar a prediction reports into `h`.
fn hash_prediction(h: &mut Fnv, p: &Prediction) {
    h.u64(p.exec_time().as_ns());
    h.u64(p.events_dispatched);
    for t in &p.per_thread {
        h.u64(t.compute.as_ns());
        h.u64(t.service.as_ns());
        h.u64(t.send_overhead.as_ns());
        h.u64(t.remote_wait.as_ns());
        h.u64(t.barrier_wait.as_ns());
        h.u64(t.sched_wait.as_ns());
        h.u64(t.end_time.as_ns());
        h.u64(t.remote_reads);
        h.u64(t.remote_writes);
    }
    h.u64(p.network.messages);
    h.u64(p.network.bytes);
    h.u64(p.network.max_in_flight as u64);
    h.u64(p.network.factor_sum.to_bits());
    h.u64(p.barriers as u64);
}

fn translated(bench: Bench, n: usize) -> TraceSet {
    let program = bench.trace(n, Scale::Tiny);
    extrap_trace::translate(&program, Default::default()).unwrap()
}

/// `(bench, P, digest)` at `Scale::Tiny`, Table 2 order.
const SUITE: [(&str, usize, u64); 42] = [
    ("Embar", 1, 0xe1ae19f6eb39b9ad),
    ("Embar", 2, 0x228426619c89b939),
    ("Embar", 4, 0xce13cae8d888d795),
    ("Embar", 8, 0xd54695be96ae00ad),
    ("Embar", 16, 0x59ef77c03f8f18e1),
    ("Embar", 32, 0x086169b679d92119),
    ("Cyclic", 1, 0x61a14f5b99882a49),
    ("Cyclic", 2, 0xe090ad085ff3176b),
    ("Cyclic", 4, 0x0eeb8d1c85822b94),
    ("Cyclic", 8, 0xe6aa6e3b7f982747),
    ("Cyclic", 16, 0xa6df6d2c65ac7c59),
    ("Cyclic", 32, 0x7cebc2597efc70d0),
    ("Sparse", 1, 0x01bbc764d34d3cc7),
    ("Sparse", 2, 0x47746efc0fc8dbd4),
    ("Sparse", 4, 0x56940a0feb89e184),
    ("Sparse", 8, 0x3bb861a5dbe76454),
    ("Sparse", 16, 0x586140a2237725cb),
    ("Sparse", 32, 0xe0e74ed70526faf2),
    ("Grid", 1, 0xe096392fe584c6ab),
    ("Grid", 2, 0x971fa7a257795719),
    ("Grid", 4, 0x1cf46cbac5be1316),
    ("Grid", 8, 0xd26faaff1895c17c),
    ("Grid", 16, 0xdaf4bff85d090cd8),
    ("Grid", 32, 0xab6e2842637d07f6),
    ("Mgrid", 1, 0xb9da4371665e199b),
    ("Mgrid", 2, 0x34dba6131c628113),
    ("Mgrid", 4, 0x2625d7968896e35e),
    ("Mgrid", 8, 0x6c7deef5e18c2c1e),
    ("Mgrid", 16, 0xf0ff682e01d60889),
    ("Mgrid", 32, 0x24932405d769cc1d),
    ("Poisson", 1, 0xb727c62948e04e65),
    ("Poisson", 2, 0xce60ac0ed22ee0c1),
    ("Poisson", 4, 0x895d2c6ddf60089a),
    ("Poisson", 8, 0xdfee2ae2c0d73ab4),
    ("Poisson", 16, 0xa34a7761bb58ac41),
    ("Poisson", 32, 0x5ddbff7da4df3c6c),
    ("Sort", 1, 0xba739572d35d766d),
    ("Sort", 2, 0xb76f1e70b70166b9),
    ("Sort", 4, 0x14c4fea08b9872df),
    ("Sort", 8, 0x8a97da79629131ab),
    ("Sort", 16, 0xf02d9cbf98463bc0),
    ("Sort", 32, 0x22ca9c0307d20092),
];

/// Thread count of the Full-mode trace runs.
const TRACE_PROCS: usize = 8;

/// `(bench, digest)` of the encoded predicted trace at
/// [`TRACE_PROCS`] threads, poll 100 µs, Full mode.
const TRACES: [(&str, u64); 7] = [
    ("Embar", 0x3ef9f405ca780db2),
    ("Cyclic", 0x37f802c3d7eec956),
    ("Sparse", 0x80fdd3b96c0fb180),
    ("Grid", 0xb11176b7347b0284),
    ("Mgrid", 0x23318b94c65a539a),
    ("Poisson", 0xf24d6ba929139227),
    ("Sort", 0xb9991bd42f1b4269),
];

#[test]
fn suite_predictions_are_bit_identical() {
    let grid = param_grid();
    let mut got = Vec::new();
    for bench in Bench::all() {
        for n in SUITE_PROCS {
            let traces = translated(bench, n);
            let mut h = Fnv::new();
            for params in &grid {
                let prediction = Extrapolator::new(params.clone()).run(&traces).unwrap();
                hash_prediction(&mut h, &prediction);
            }
            println!("    (\"{}\", {n}, 0x{:016x}),", bench.name(), h.0);
            got.push((bench.name(), n, h.0));
        }
    }
    assert_eq!(got, SUITE);
}

#[test]
fn poll_predicted_traces_are_byte_identical() {
    let mut got = Vec::new();
    for bench in Bench::all() {
        let traces = translated(bench, TRACE_PROCS);
        let prediction = Extrapolator::new(machine::default_distributed())
            .policy(ServicePolicy::poll_us(100.0))
            .record_mode(RecordMode::Full)
            .run(&traces)
            .unwrap();
        let mut h = Fnv::new();
        h.bytes(&encode_set(&prediction.predicted));
        hash_prediction(&mut h, &prediction);
        println!("    (\"{}\", 0x{:016x}),", bench.name(), h.0);
        got.push((bench.name(), h.0));
    }
    assert_eq!(got, TRACES);
}
