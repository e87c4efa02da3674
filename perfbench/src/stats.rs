//! Sample summaries and process CPU time.

/// Median, quartiles and sample count of a set of samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` with the quartiles Python's
    /// `statistics.quantiles(samples, n=4)` gives (the "exclusive"
    /// method), so figures agree with whoever re-checks them there.
    ///
    /// # Panics
    /// Panics on an empty sample set (a broken measurement loop).
    pub fn of(mut samples: Vec<f64>) -> Summary {
        assert!(!samples.is_empty(), "summary of no samples");
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let median = if n % 2 == 1 {
            samples[n / 2]
        } else {
            (samples[n / 2 - 1] + samples[n / 2]) / 2.0
        };
        if n == 1 {
            return Summary {
                median,
                p25: median,
                p75: median,
                n,
            };
        }
        let quartile = |i: usize| {
            let m = (n + 1) * i;
            let j = (m / 4).clamp(1, n - 1);
            let delta = m as f64 - 4.0 * j as f64;
            (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0
        };
        Summary {
            median,
            p25: quartile(1),
            p75: quartile(3),
            n,
        }
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: user + system CPU time of every
/// thread of the process, including threads that have exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // (two 64-bit fields on the 64-bit Linux targets this runs on), and
    // `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
