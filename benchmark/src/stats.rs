//! Percentile and slice arithmetic.
//!
//! A measured window is cut into [`SLICES`](crate::spec::SLICES)
//! consecutive slices. Each slice gets its own throughput, p50 and
//! p99 over every op that *completed* inside it, and a timing metric
//! is the median of the per-slice values — one slice disturbed by a
//! neighbour on the shared host moves the median little.

/// One completed operation as a client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Completion time, ns since the run's epoch.
    pub end_ns: u64,
    /// Time around the client call.
    pub latency_ns: u64,
    /// The reply arrived and matched the oracle.
    pub ok: bool,
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// p50 of `values` in place of [`median`] where a nearest-rank value
/// (an actually observed sample) is wanted; 0 for no samples.
pub fn p50_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.50)
}

/// What one slice of the window measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStats {
    pub ops: u64,
    pub failed: u64,
    /// Correct operations per second.
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// The whole window: per-slice values and their medians.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    pub slices: Vec<SliceStats>,
    pub attempted: u64,
    pub failed: u64,
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

/// Cut `samples` into `slices` equal slices of `[start_ns, start_ns +
/// slices * slice_ns)` by completion time; samples outside are
/// ignored (warm-up before, stragglers after).
pub fn window_stats(
    samples: &[Sample],
    start_ns: u64,
    slice_ns: u64,
    slices: usize,
) -> WindowStats {
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut failed = vec![0u64; slices];
    for s in samples {
        if s.end_ns < start_ns {
            continue;
        }
        let idx = ((s.end_ns - start_ns) / slice_ns) as usize;
        if idx >= slices {
            continue;
        }
        latencies[idx].push(s.latency_ns as f64 / 1e3);
        if !s.ok {
            failed[idx] += 1;
        }
    }
    let per_slice: Vec<SliceStats> = latencies
        .iter_mut()
        .zip(&failed)
        .map(|(lat, &failed)| {
            lat.sort_by(f64::total_cmp);
            let ops = lat.len() as u64;
            SliceStats {
                ops,
                failed,
                qps: (ops - failed) as f64 / (slice_ns as f64 / 1e9),
                p50_us: if lat.is_empty() {
                    0.0
                } else {
                    percentile(lat, 0.50)
                },
                p99_us: if lat.is_empty() {
                    0.0
                } else {
                    percentile(lat, 0.99)
                },
            }
        })
        .collect();
    let of = |f: fn(&SliceStats) -> f64| median(&per_slice.iter().map(f).collect::<Vec<_>>());
    WindowStats {
        attempted: per_slice.iter().map(|s| s.ops).sum(),
        failed: per_slice.iter().map(|s| s.failed).sum(),
        qps: of(|s| s.qps),
        p50_us: of(|s| s.p50_us),
        p99_us: of(|s| s.p99_us),
        slices: per_slice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.50), 2.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(p50_or_zero(&[]), 0.0);
        assert_eq!(p50_or_zero(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn samples_land_in_the_slice_they_completed_in() {
        let s = |end_ns, latency_ns, ok| Sample {
            end_ns,
            latency_ns,
            ok,
        };
        // Window [1000, 1300) in three slices of 100 ns.
        let samples = [
            s(999, 10_000, true),  // warm-up: ignored
            s(1000, 1_000, true),  // slice 0
            s(1099, 3_000, false), // slice 0, failed
            s(1100, 5_000, true),  // slice 1
            s(1299, 7_000, true),  // slice 2
            s(1300, 9_000, true),  // past the window: ignored
        ];
        let w = window_stats(&samples, 1000, 100, 3);
        assert_eq!(
            w.slices.iter().map(|x| x.ops).collect::<Vec<_>>(),
            [2, 1, 1]
        );
        assert_eq!(w.attempted, 4);
        assert_eq!(w.failed, 1);
        // Slice 0 completed one correct op in 100 ns.
        assert_eq!(w.slices[0].qps, 1.0 / 100e-9);
        assert_eq!(w.slices[0].p50_us, 1.0);
        assert_eq!(w.slices[0].p99_us, 3.0);
        // The window's value is the median slice.
        assert_eq!(w.p50_us, 5.0);
        assert_eq!(w.qps, 1.0 / 100e-9);
    }

    #[test]
    fn one_disturbed_slice_does_not_move_the_median() {
        let mut samples = Vec::new();
        for slice in 0..5u64 {
            let latency_ns = if slice == 3 { 900_000 } else { 100_000 };
            for i in 0..100u64 {
                samples.push(Sample {
                    end_ns: slice * 1_000 + i,
                    latency_ns,
                    ok: true,
                });
            }
        }
        let w = window_stats(&samples, 0, 1_000, 5);
        assert_eq!(w.p50_us, 100.0);
        assert_eq!(w.p99_us, 100.0);
    }
}
