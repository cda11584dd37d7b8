//! SplitMix64: the benchmark's only source of randomness, so a seed
//! fully determines every generated input.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, label)`.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Zipf-distributed ranks over `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::stream(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::stream(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::stream(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::stream(3, 0);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[90]);
    }
}
