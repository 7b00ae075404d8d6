//! Order statistics and the output digest.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread printed here is the spread a
//! reader recomputes from the raw values with the standard library.

/// The median; `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile as `statistics.quantiles(values, n=4)`
/// gives them; a single value is its own quartiles, no values have none.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => None,
        1 => Some((data[0], data[0])),
        _ => {
            let (n, m) = (4usize, len + 1);
            let cut = |i: usize| {
                let j = (i * m / n).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * n) as f64;
                (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the regression bounds are set from. `None` when the median is zero.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The `q`-quantile of `(value, weight)` samples, weighted: the smallest
/// value whose cumulative weight reaches `q` of the total. Zero-weight
/// samples carry nothing; `None` when no weight remains.
pub fn weighted_quantile(samples: &[(f64, u64)], q: f64) -> Option<f64> {
    let mut live: Vec<(f64, u64)> = samples.iter().copied().filter(|&(_, w)| w > 0).collect();
    live.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = live.iter().map(|&(_, w)| w).sum();
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for &(value, weight) in &live {
        seen += weight;
        if seen >= target {
            return Some(value);
        }
    }
    live.last().map(|&(value, _)| value)
}

/// Unweighted quantile (each sample weighs one).
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let weighted: Vec<(f64, u64)> = values.iter().map(|&v| (v, 1)).collect();
    weighted_quantile(&weighted, q)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// An order-independent digest over crawl outcomes: each outcome hashes
/// to 64 bits and the digest is their wrapping sum plus a count, so two
/// schedulers that finish the same sessions in different orders agree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    sum: u64,
    count: u64,
}

impl Digest {
    /// Folds one outcome, given as the byte strings that identify it.
    pub fn add(&mut self, fields: &[&[u8]]) {
        self.sum = self.sum.wrapping_add(hash_fields(fields));
        self.count += 1;
    }

    /// Folds another digest in (the union of both outcome sets).
    pub fn merge(&mut self, other: Digest) {
        self.sum = self.sum.wrapping_add(other.sum);
        self.count += other.count;
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", mix64(self.sum ^ mix64(self.count)))
    }
}

/// FNV-1a over length-prefixed fields, finished with a 64-bit mixer, so
/// `["ab", "c"]` and `["a", "bc"]` differ.
pub fn hash_fields(fields: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in fields {
        for &b in (field.len() as u64).to_le_bytes().iter().chain(field.iter()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    mix64(h)
}

/// The SplitMix64 finalizer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_empty_single_even_and_odd() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0]), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&ten), Some((8.25 - 2.75) / 5.5));
        assert_eq!(relative_iqr(&[3.0]), Some(0.0));
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
        assert_eq!(relative_iqr(&[]), None);
    }

    #[test]
    fn weighted_quantile_weighs_by_steps() {
        let samples = [(100.0, 90), (1_000.0, 10)];
        assert_eq!(weighted_quantile(&samples, 0.5), Some(100.0));
        assert_eq!(weighted_quantile(&samples, 0.90), Some(100.0));
        assert_eq!(weighted_quantile(&samples, 0.91), Some(1_000.0));
        assert_eq!(weighted_quantile(&samples, 0.99), Some(1_000.0));
        assert_eq!(weighted_quantile(&samples, 0.0), Some(100.0));
    }

    #[test]
    fn weighted_quantile_of_empty_zero_weight_and_single_inputs() {
        assert_eq!(weighted_quantile(&[], 0.5), None);
        assert_eq!(weighted_quantile(&[(5.0, 0), (9.0, 0)], 0.5), None);
        // A zero-weight outlier is never the answer.
        assert_eq!(weighted_quantile(&[(1.0, 0), (50.0, 3)], 0.0), Some(50.0));
        for q in [0.0, 0.5, 0.99, 1.0, -1.0, 7.0] {
            assert_eq!(weighted_quantile(&[(250.0, 1)], q), Some(250.0));
        }
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
    }

    #[test]
    fn digest_ignores_order_but_not_content() {
        let (a, b): (&[&[u8]], &[&[u8]]) = (&[b"phpbb2", b"mak"], &[b"vanilla", b"bfs"]);
        let mut one = Digest::default();
        one.add(a);
        one.add(b);
        let mut other = Digest::default();
        other.add(b);
        other.add(a);
        assert_eq!(one, other);
        assert_eq!(one.hex(), other.hex());
        let mut missing = Digest::default();
        missing.add(a);
        assert_ne!(missing.hex(), one.hex());
        assert_ne!(hash_fields(&[b"ab", b"c"]), hash_fields(&[b"a", b"bc"]));
        assert_ne!(Digest::default().hex(), missing.hex());
    }

    #[test]
    fn merged_digests_equal_one_fold() {
        let mut whole = Digest::default();
        let (mut left, mut right) = (Digest::default(), Digest::default());
        for i in 0u64..10 {
            let bytes = i.to_le_bytes();
            whole.add(&[&bytes]);
            if i % 2 == 0 {
                left.add(&[&bytes])
            } else {
                right.add(&[&bytes])
            }
        }
        left.merge(right);
        assert_eq!(left, whole);
    }
}
