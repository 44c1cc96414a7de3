//! What every workload shares: its arguments, what it hands back, and
//! the rule for how long a timed region runs.

use std::path::PathBuf;
use std::time::Instant;

use crate::stats::median;
use crate::trace::Span;

/// The seed every golden file was blessed at.
pub const DEFAULT_SEED: u64 = 2017;

/// Arguments of one workload process.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Every generated input derives from this.
    pub seed: u64,
    /// Length of the timed region, seconds.
    pub seconds: f64,
    /// Worker threads of the crates' parallel paths (what `main` pinned
    /// `RAYON_NUM_THREADS` to), for the calls that take a thread count.
    pub threads: usize,
    /// `false`: end-to-end run, no span is recorded. `true`: half the
    /// rounds are traced (see [`Ctx::traces_round`]).
    pub trace: bool,
    /// Small inputs (scale 0.02, n = 2,000, 64 sessions); goldens are
    /// skipped, every differential oracle still runs.
    pub quick: bool,
    /// Rewrite the golden files instead of comparing against them.
    pub bless: bool,
    /// The benchmark's own directory (`golden/` and `out/` live here).
    pub bench_dir: PathBuf,
}

impl Ctx {
    /// Goldens hold at the default seed and full input size only.
    pub fn golden_applies(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.quick
    }

    /// Whether round `i` of the timed region records spans. An
    /// end-to-end run never does. A traced run traces rounds 1 and 2 of
    /// every four (off, on, on, off): drift of the machine over the run
    /// and any every-other-round pattern in the input then weigh on
    /// both kinds alike and cancel out of the tracing-overhead figure,
    /// instead of being mistaken for it.
    pub fn traces_round(&self, i: usize) -> bool {
        self.trace && matches!(i % 4, 1 | 2)
    }

    /// Rounds the timed region must hold: a traced run needs one of
    /// each kind.
    pub fn min_rounds(&self) -> usize {
        if self.trace {
            2
        } else {
            1
        }
    }
}

/// What a workload measured. `main` turns the untraced fields into the
/// end-to-end metrics and passes `layer` through as the per-layer ones.
#[derive(Debug, Default)]
pub struct Measured {
    /// Set-up time, seconds (untimed region before the warm-up).
    pub setup_s: f64,
    /// One sample per untraced closed-loop round of the timed region: a
    /// pass, an epoch's fleet convergence, or one reset sync.
    pub round_s: Vec<f64>,
    /// The same for the traced rounds (empty in an end-to-end run).
    pub traced_round_s: Vec<f64>,
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failed: u64,
    /// Wall time of the timed region, seconds.
    pub wall_s: f64,
    /// User + system CPU over the same region, seconds.
    pub cpu_s: f64,
    /// Per-layer metrics by name (traced runs only).
    pub layer: Vec<(&'static str, f64)>,
    /// Every span of the traced rounds, for the trace file.
    pub spans: Vec<Span>,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Whether the workload's files sat on tmpfs.
    pub files_on_tmpfs: bool,
    /// Whether the workload's traffic crossed the loopback interface.
    pub loopback: bool,
}

impl Measured {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Adds one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    /// Files the samples of a timed region under untraced and traced
    /// rounds, by [`Ctx::traces_round`].
    pub fn record_rounds(&mut self, ctx: &Ctx, samples: impl IntoIterator<Item = f64>) {
        for (i, sample) in samples.into_iter().enumerate() {
            if ctx.traces_round(i) {
                self.traced_round_s.push(sample);
            } else {
                self.round_s.push(sample);
            }
        }
    }

    /// Traced median round ÷ untraced median round − 1.
    pub fn trace_overhead_share(&self) -> f64 {
        median(&self.traced_round_s) / median(&self.round_s) - 1.0
    }
}

/// Runs `round` until the region is as close to `seconds` as whole
/// rounds allow: another round starts while at least half of it is
/// expected to fit (expected = median of the rounds so far), and in any
/// case until `min_rounds` ran. Returns each round's duration in seconds.
pub fn timed_rounds(seconds: f64, min_rounds: usize, mut round: impl FnMut(usize)) -> Vec<f64> {
    let region = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        round(samples.len());
        samples.push(t0.elapsed().as_secs_f64());
        if samples.len() >= min_rounds
            && region.elapsed().as_secs_f64() + median(&samples) / 2.0 > seconds
        {
            return samples;
        }
    }
}

/// Sets up `times` times and returns the last set-up with the median
/// duration in seconds; earlier set-ups go to `discard`. Set-up time is
/// an end-to-end metric, and one sample of it per run is too noisy to
/// compare runs by.
pub fn repeat_setup<T>(
    times: usize,
    mut build: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, f64) {
    let mut durations = Vec::with_capacity(times);
    loop {
        let t0 = Instant::now();
        let built = build();
        durations.push(t0.elapsed().as_secs_f64());
        if durations.len() >= times {
            return (built, median(&durations));
        }
        discard(built);
    }
}

/// Wall and CPU time of `f`, seconds.
pub fn wall_and_cpu<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = crate::sys::cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    (out, wall, crate::sys::cpu_seconds() - cpu0)
}

/// FNV-1a over `bytes` — the digest the golden files pin.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares `actual` against `golden/<file>` (or rewrites the file when
/// blessing). Returns an error line on mismatch.
pub fn check_golden(ctx: &Ctx, file: &str, actual: &str) -> Result<(), String> {
    let path = ctx.bench_dir.join("golden").join(file);
    if ctx.bless {
        return std::fs::write(&path, actual)
            .map_err(|e| format!("cannot bless {}: {e}", path.display()));
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) if expected == actual => Ok(()),
        Ok(expected) => {
            let line = expected
                .lines()
                .zip(actual.lines())
                .position(|(a, b)| a != b)
                .map_or(expected.lines().count().min(actual.lines().count()), |l| l)
                + 1;
            Err(format!(
                "{} differs from the golden at line {line} (rerun with --bless only if the change is intended)",
                path.display()
            ))
        }
        Err(e) => Err(format!("cannot read golden {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_rounds_stops_near_the_target() {
        // Rounds of ~20 ms against a 90 ms region: 4 or 5 rounds.
        let rounds = timed_rounds(0.09, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        assert!((4..=5).contains(&rounds.len()), "{}", rounds.len());
        // A round longer than the region still runs, as often as asked.
        assert_eq!(timed_rounds(0.0, 1, |_| ()).len(), 1);
        assert_eq!(timed_rounds(0.0, 2, |_| ()).len(), 2);
    }

    #[test]
    fn repeat_setup_keeps_the_last_build_and_discards_the_rest() {
        let mut built = 0;
        let mut discarded = Vec::new();
        let (last, seconds) = repeat_setup(
            3,
            || {
                built += 1;
                built
            },
            |b| discarded.push(b),
        );
        assert_eq!((last, discarded), (3, vec![1, 2]));
        assert!(seconds >= 0.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
