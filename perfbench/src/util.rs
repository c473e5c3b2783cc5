//! Small self-contained helpers: the seeded generator, extent digests,
//! order statistics and the process's peak memory.

/// SplitMix64: the workload generator. The same seed always yields the same
/// inputs, and nothing else feeds the generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A word of `len` characters drawn from `alphabet`.
    pub fn word(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| char::from(alphabet[self.below(alphabet.len())]))
            .collect()
    }
}

/// FNV-1a over one rendered tuple, with a separator between columns.
fn row_hash<S: AsRef<str>>(row: &[S]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for col in row {
        for &b in col.as_ref().as_bytes().iter().chain(&[0x1f]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Row count plus an order-independent digest of a set of rendered rows.
/// Summing per-row hashes gives the same value as hashing the sorted set,
/// without sorting hundreds of thousands of rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Extent {
    pub rows: usize,
    pub digest: u64,
}

impl Extent {
    pub fn add<S: AsRef<str>>(&mut self, row: &[S]) {
        self.rows += 1;
        self.digest = self.digest.wrapping_add(row_hash(row));
    }

    pub fn of<S: AsRef<str>>(rows: &[Vec<S>]) -> Self {
        let mut e = Self::default();
        for row in rows {
            e.add(row);
        }
        e
    }
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail: the highest order statistic with at least ten samples above
/// it, but no higher than the 90th percentile (the maximum when that would
/// fall below the median, as it does for fewer than 20 samples). Returns
/// the value and the percentile it sits at.
///
/// The cap keeps a tenth of the samples above the tail: on a shared host a
/// statistic with only ten samples above it measures the few slowest
/// seconds of the host rather than the program.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = if n >= 20 { (n - 10).min(n * 9 / 10) } else { n };
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_or_a_tenth_above() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (900.0, 90.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), (30.0, 75.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_ignores_row_order() {
        let a = vec![vec!["x", "y"], vec!["y", "x"]];
        let b = vec![vec!["y", "x"], vec!["x", "y"]];
        assert_eq!(Extent::of(&a), Extent::of(&b));
        assert_ne!(Extent::of(&a), Extent::of(&[vec!["xy", ""]]));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let w = |s| Rng::new(s).word(b"acgt", 16);
        assert_eq!(w(3), w(3));
        assert_ne!(w(3), w(4));
    }
}
