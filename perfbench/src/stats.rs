//! Small numeric helpers: percentiles, rank correlation, digests and
//! the process's peak resident set.

/// Nearest-rank percentile (`q` in `0..=1`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median by nearest rank.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Number of samples strictly above the `q` percentile.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = percentile(values, q);
    values.iter().filter(|&&v| v > cut).count()
}

/// Kendall's tau-a between two score vectors over the same items:
/// (concordant − discordant) / (n choose 2).  Tied pairs count as
/// neither.
pub fn kendall_tau(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "tau needs paired scores");
    let n = a.len();
    if n < 2 {
        return 1.0;
    }
    let mut score = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            let s = (a[i] - a[j]).signum() * (b[i] - b[j]).signum();
            score += s as i64;
        }
    }
    score as f64 / (n * (n - 1) / 2) as f64
}

/// Accuracy of predictions against reference measurements: the mean
/// relative error over every point, and the mean over groups (one group
/// per processor count) of Kendall's tau between the two orderings of
/// the group's items.
pub fn accuracy(groups: &[Vec<(f64, f64)>]) -> (f64, f64) {
    let points: Vec<&(f64, f64)> = groups.iter().flatten().collect();
    let rel_err =
        points.iter().map(|(p, r)| (p - r).abs() / r).sum::<f64>() / points.len().max(1) as f64;
    let tau = groups
        .iter()
        .map(|g| {
            let (p, r): (Vec<f64>, Vec<f64>) = g.iter().copied().unzip();
            kendall_tau(&p, &r)
        })
        .sum::<f64>()
        / groups.len().max(1) as f64;
    (rel_err, tau)
}

/// FNV-1a, 64-bit: a stable digest of output bytes.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, data: &[u8]) -> Digest {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(self, v: u64) -> Digest {
        self.bytes(&v.to_le_bytes())
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Resident set of this process in MiB (`VmRSS`), 0 if the kernel does
/// not report it.
pub fn rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64, for seeded permutations of inputs.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tau_counts_pair_orderings() {
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
        assert!((kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 30.0, 20.0]) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }
}
