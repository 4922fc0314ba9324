//! The seeded input generator. Everything the program under test receives
//! — message bits, noise seeds, benign-pair seeds, fleet pair plans — is
//! drawn from one [`SplitMix64`] stream seeded by `--seed`, so a seed fixes
//! the inputs exactly.

/// SplitMix64 (Steele, Lea & Flood 2014): tiny, fast and good enough to
/// draw benchmark inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fair coin.
    pub fn bit(&mut self) -> bool {
        self.next_u64() >> 63 == 1
    }

    /// `len` fair coin flips: a covert message.
    pub fn bits(&mut self, len: usize) -> Vec<bool> {
        (0..len).map(|_| self.bit()).collect()
    }

    /// A seed for a simulated noise process or benign workload, kept below
    /// 2^32 so seed arithmetic inside the workloads cannot overflow.
    pub fn sub_seed(&mut self) -> u64 {
        self.next_u64() >> 32
    }

    /// Shuffles `items` in place (Fisher–Yates).
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
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.bits(256), b.bits(256));
        assert_eq!(a.sub_seed(), b.sub_seed());
        assert_ne!(SplitMix64::new(7).next_u64(), SplitMix64::new(8).next_u64());
    }

    #[test]
    fn matches_reference_splitmix64() {
        // First outputs for seed 0 from the reference C implementation.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn messages_are_balanced_and_shuffles_are_permutations() {
        let bits = SplitMix64::new(3).bits(10_000);
        let ones = bits.iter().filter(|&&b| b).count();
        assert!((4_700..5_300).contains(&ones), "{ones}");
        let mut items: Vec<u32> = (0..64).collect();
        SplitMix64::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
