//! Differential tests: the intercept sweep behind `push_crossings`
//! returns exactly what testing every pair returns — the same crossing
//! values, bit for bit, in the same `(i, j)` pair order — on inputs
//! built to stress its pruning bound: unit slopes a few ulps apart,
//! heterogeneous-speed slope classes, duplicated affines, crossings
//! exactly at the window edges, intercept gaps straddling the pruning
//! threshold, and intercept spreads from 1e-12 to 1e6.

use faultline_analysis::exact::push_crossings;
use faultline_core::exact::Affine;
use proptest::prelude::*;

/// The definition `push_crossings` must reproduce: every pair `i < j`
/// in order, kept when its crossing lies strictly inside `(lo, hi)`.
fn every_pair(affines: &[Affine], lo: f64, hi: f64) -> Vec<f64> {
    let mut candidates = Vec::new();
    for (i, a) in affines.iter().enumerate() {
        for b in &affines[i + 1..] {
            if let Some(x) = a.crossing(b) {
                if x > lo && x < hi {
                    candidates.push(x);
                }
            }
        }
    }
    candidates
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn assert_same(affines: &[Affine], lo: f64, hi: f64) -> Result<(), TestCaseError> {
    let mut swept = vec![f64::NAN]; // pre-existing entries are kept
    push_crossings(affines, lo, hi, &mut swept);
    let mut expected = vec![f64::NAN];
    expected.extend(every_pair(affines, lo, hi));
    prop_assert_eq!(bits(&swept), bits(&expected), "window ({lo}, {hi}), affines {affines:?}");
    Ok(())
}

/// SplitMix64: a deterministic stream from one drawn seed, so each
/// case builds structured inputs from a single `u64`.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// `x` moved by up to `max` ulps in either direction.
    fn nudge(&mut self, x: f64, max: u64) -> f64 {
        let steps = self.below(2 * max + 1) as i64 - max as i64;
        f64::from_bits((x.to_bits() as i64 + steps) as u64)
    }

    /// One of `10^-12 .. 10^6`.
    fn spread(&mut self) -> f64 {
        10f64.powi(self.below(19) as i32 - 12)
    }

    /// A positive window `(lo, hi)` with `1 <= lo < hi <= ~1e6`.
    fn window(&mut self) -> (f64, f64) {
        let lo = 1.0 + 99.0 * self.unit();
        let hi = lo * (1.0 + 10f64.powi(self.below(5) as i32 - 1) * (0.5 + self.unit()));
        (lo, hi)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A unit-speed fleet's slopes: `±1` up to four ulps, intercepts
    /// over one spread, so near-equal intercepts cross far away and
    /// the threshold decides.
    #[test]
    fn unit_slopes_a_few_ulps_apart(seed in any::<u64>(), m in 2usize..64) {
        let mut s = Stream(seed);
        let spread = s.spread();
        let mixed_signs = s.below(2) == 0;
        let affines: Vec<Affine> = (0..m)
            .map(|_| {
                let sign = if mixed_signs && s.below(2) == 0 { -1.0 } else { 1.0 };
                Affine { slope: s.nudge(sign, 4), intercept: 10.0 + spread * s.unit() }
            })
            .collect();
        let (lo, hi) = s.window();
        assert_same(&affines, lo, hi)?;
    }

    /// Heterogeneous speeds: slopes `±1/v` over a few speeds, each
    /// with ulp noise — several classes, every cross-class pair tested.
    #[test]
    fn mixed_speed_slope_classes(seed in any::<u64>(), m in 2usize..48) {
        let mut s = Stream(seed);
        let speeds = [0.5, 1.0, 1.5, 2.0, 3.0, 0.75];
        let spread = s.spread();
        let affines: Vec<Affine> = (0..m)
            .map(|_| {
                let v = speeds[s.below(speeds.len() as u64) as usize];
                let sign = if s.below(4) == 0 { -1.0 } else { 1.0 };
                Affine { slope: s.nudge(sign / v, 2), intercept: spread * (s.unit() - 0.5) }
            })
            .collect();
        let (lo, hi) = s.window();
        assert_same(&affines, lo, hi)?;
    }

    /// Duplicated affines and equal intercepts with slopes an ulp or
    /// two apart: zero gaps, parallel duplicates and far crossings.
    #[test]
    fn duplicates_and_equal_intercepts(seed in any::<u64>(), m in 2usize..40) {
        let mut s = Stream(seed);
        let pool: Vec<Affine> = (0..1 + s.below(4))
            .map(|_| Affine { slope: s.nudge(1.0, 2), intercept: s.nudge(5.0, 1) })
            .collect();
        let affines: Vec<Affine> =
            (0..m).map(|_| pool[s.below(pool.len() as u64) as usize]).collect();
        let (lo, hi) = s.window();
        assert_same(&affines, lo, hi)?;
        assert_same(&affines, 1.0, 1e18)?;
    }

    /// Windows whose edge is exactly some pair's computed crossing:
    /// the strict inequalities must drop it in both routines.
    #[test]
    fn crossings_exactly_at_the_window_edges(seed in any::<u64>(), m in 2usize..32) {
        let mut s = Stream(seed);
        let affines: Vec<Affine> = (0..m)
            .map(|_| {
                let slope = if s.below(3) == 0 { s.nudge(-1.0, 3) } else { s.nudge(1.0, 3) };
                Affine { slope, intercept: 40.0 * s.unit() }
            })
            .collect();
        let crossings: Vec<f64> = every_pair(&affines, 0.0, f64::INFINITY);
        prop_assume!(!crossings.is_empty());
        let x = crossings[s.below(crossings.len() as u64) as usize];
        assert_same(&affines, x, x * 2.0)?;
        assert_same(&affines, x * 0.5, x)?;
        assert_same(&affines, x, f64::from_bits(x.to_bits() + 1))?;
    }

    /// Pairs built so their crossing lands within a few ulps of `hi`:
    /// slope `1` against one slope `1 ± k` ulps (the class width `W`),
    /// intercept `0` against gaps within a few ulps of `hi · W` — right
    /// where the pruning bound is tight. Zero bases keep every gap
    /// exact.
    #[test]
    fn gaps_at_the_pruning_threshold(seed in any::<u64>(), pairs in 1usize..16) {
        let mut s = Stream(seed);
        let (lo, hi) = s.window();
        let k = 1 + s.below(4);
        let one = 1.0f64.to_bits();
        let nudged = f64::from_bits(if s.below(2) == 0 { one + k } else { one - k });
        let width = (nudged - 1.0).abs();
        let mut affines = Vec::with_capacity(2 * pairs);
        for _ in 0..pairs {
            let gap = s.nudge(hi * width, 3);
            affines.push(Affine { slope: 1.0, intercept: 0.0 });
            affines.push(Affine { slope: nudged, intercept: gap });
        }
        assert_same(&affines, lo, hi)?;
        assert_same(&affines, lo, s.nudge(hi, 2))?;
    }
}

#[test]
fn degenerate_windows_and_coefficients_match_every_pair() {
    let unit = [
        Affine { slope: 1.0, intercept: 3.0 },
        Affine { slope: f64::from_bits(1.0f64.to_bits() + 1), intercept: 3.0 + 1e-13 },
        Affine { slope: -1.0, intercept: 9.0 },
        Affine { slope: 1.0, intercept: 3.0 },
    ];
    let odd = [
        Affine { slope: f64::NAN, intercept: 1.0 },
        Affine { slope: 1.0, intercept: f64::INFINITY },
        Affine { slope: 1.0, intercept: -0.0 },
        Affine { slope: -0.0, intercept: 0.0 },
        Affine { slope: 0.0, intercept: 2.0 },
        Affine { slope: f64::NEG_INFINITY, intercept: 2.0 },
    ];
    let windows = [
        (1.0, 6.0),
        (-5.0, 5.0),
        (-1e300, -1.0),
        (0.0, f64::INFINITY),
        (f64::NEG_INFINITY, f64::INFINITY),
        (6.0, 1.0),
        (f64::NAN, 4.0),
        (1.0, f64::NAN),
        (f64::MIN_POSITIVE, 1e-300),
    ];
    for affines in [&unit[..], &odd[..], &unit[..1], &[]] {
        for &(lo, hi) in &windows {
            assert_same(affines, lo, hi).unwrap();
        }
    }
}
