//! Golden-prediction gate for same-instant ties under the Poll policy.
//!
//! Every duration here is a whole number of microseconds: compute
//! segments, access offsets, communication costs, hop latency, byte
//! transfer time, barrier costs and the poll intervals (1, 2 and 5 µs).
//! Contention is off, so no delay is ever scaled by a fractional factor.
//! Message arrivals, barrier releases and compute ends therefore land
//! exactly on poll ticks, and the event queue has to break many
//! `(time)` ties by schedule order.  A change that dispatches, skips or
//! re-arms poll ticks in a different order shows up here even when the
//! suite digests, whose costs are fractional, happen not to notice.
//!
//! Each seeded program is folded into one FNV-1a 64 digest: the
//! MetricsOnly scalars of every poll interval crossed with every barrier
//! algorithm, then the encoded Full-mode predicted trace of one poll run.
//! On a deliberate change, re-record the table from the lines the test
//! prints (`cargo test -p extrap-core --test tie_digests -- --nocapture`).

use extrap_core::{
    BarrierAlgorithm, BarrierParams, CommParams, Extrapolator, NetworkParams, Prediction,
    RecordMode, ServicePolicy, SimParams, Topology,
};
use extrap_sim::SplitMix64;
use extrap_time::{DurationNs, ElementId, ThreadId};
use extrap_trace::format::encode_set;
use extrap_trace::{PhaseAccess, PhaseProgram, PhaseWork, TraceSet};

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

fn us(v: u64) -> DurationNs {
    DurationNs(v * 1_000)
}

/// A seeded phase program with whole-µs compute and access offsets.
///
/// A third of the phases are uniform and long (every thread computes
/// for the same 40–160 µs with no accesses), so every thread's poll
/// chain starts at the same barrier release and runs in lockstep; the
/// rest mix short ragged segments with remote reads and writes, whose
/// requests reach owners that are busy polling.
fn program(seed: u64) -> TraceSet {
    let mut rng = SplitMix64::new(seed);
    let n = [2usize, 3, 4, 8][(seed % 4) as usize];
    let mut p = PhaseProgram::new(n);
    for _ in 0..10 {
        if rng.next_below(3) == 0 {
            p.push_uniform_phase(us(40 + rng.next_below(121)));
            continue;
        }
        let work = (0..n)
            .map(|t| {
                let compute = 1 + rng.next_below(60);
                let mut afters: Vec<u64> = (0..rng.next_below(4))
                    .map(|_| rng.next_below(compute + 1))
                    .collect();
                afters.sort_unstable();
                let accesses = afters
                    .into_iter()
                    .map(|after| {
                        let owner = (t + 1 + rng.next_below(n as u64 - 1) as usize) % n;
                        let declared = 1 + rng.next_below(4) as u32;
                        PhaseAccess {
                            after: us(after),
                            owner: ThreadId::from_index(owner),
                            element: ElementId(rng.next_below(16) as u32),
                            declared_bytes: declared,
                            actual_bytes: declared,
                            write: rng.next_below(3) == 0,
                        }
                    })
                    .collect();
                PhaseWork {
                    compute: us(compute),
                    accesses,
                }
            })
            .collect();
        p.push_phase(work);
    }
    extrap_trace::translate(&p.record(), Default::default()).unwrap()
}

/// A machine whose every cost is a whole number of microseconds, with
/// contention off.
fn whole_us_machine(algorithm: BarrierAlgorithm, interval_us: u64) -> SimParams {
    let mut network = NetworkParams {
        topology: Topology::Mesh2D,
        hop: us(1),
        ..NetworkParams::default()
    };
    network.contention.enabled = false;
    SimParams {
        policy: ServicePolicy::Poll {
            interval: us(interval_us),
        },
        record_mode: RecordMode::MetricsOnly,
        comm: CommParams {
            startup: us(3),
            byte_transfer: us(1),
            construct: us(1),
            service: us(2),
            receive: us(1),
            request_bytes: 1,
            reply_header_bytes: 0,
        },
        network,
        barrier: BarrierParams {
            entry: us(1),
            exit: us(1),
            check: us(1),
            exit_check: us(1),
            model: us(2),
            by_msgs: algorithm == BarrierAlgorithm::Linear,
            msg_size: 2,
            algorithm,
            hardware_latency: us(1),
        },
        ..SimParams::default()
    }
}

const ALGORITHMS: [BarrierAlgorithm; 3] = [
    BarrierAlgorithm::Linear,
    BarrierAlgorithm::Tree { arity: 2 },
    BarrierAlgorithm::Hardware,
];

const INTERVALS_US: [u64; 3] = [1, 2, 5];

/// `(seed, digest)` per program.
const DIGESTS: [(u64, u64); 16] = [
    (0, 0x4dc42870ab9921db),
    (1, 0x9c1ac9deece9e338),
    (2, 0x47beaf4267bc9168),
    (3, 0xb64bbf4105eac36f),
    (4, 0x8d8e15a53441d036),
    (5, 0x73db7464d6878e4a),
    (6, 0x9e04622bd68952c4),
    (7, 0x0cb8288012a0771c),
    (8, 0x6072e55a5e38fa2d),
    (9, 0xd3c51b05fdcafdb2),
    (10, 0xa96a0bb33f4a78a8),
    (11, 0x76179fa58ca93f32),
    (12, 0x3bfb913e6b89e849),
    (13, 0x045425037aa67a42),
    (14, 0xe961d906fbbaae3f),
    (15, 0xc8b1273e048af3fd),
];

#[test]
fn tie_heavy_poll_predictions_are_bit_identical() {
    let mut got = Vec::new();
    for (seed, _) in DIGESTS {
        let traces = program(seed);
        let mut h = Fnv::new();
        for algorithm in ALGORITHMS {
            for interval in INTERVALS_US {
                let params = whole_us_machine(algorithm, interval);
                let prediction = Extrapolator::new(params).run(&traces).unwrap();
                hash_prediction(&mut h, &prediction);
            }
        }
        // One Full-mode run per program pins the predicted trace itself.
        let prediction = Extrapolator::new(whole_us_machine(BarrierAlgorithm::Hardware, 2))
            .record_mode(RecordMode::Full)
            .run(&traces)
            .unwrap();
        h.bytes(&encode_set(&prediction.predicted));
        hash_prediction(&mut h, &prediction);
        println!("    ({seed}, 0x{:016x}),", h.0);
        got.push((seed, h.0));
    }
    assert_eq!(got, DIGESTS);
}
