//! Scale and threading knobs shared by all harness binaries.

use maxlength_core::BgpTable;
use rpki_datasets::{DatasetSnapshot, GeneratorConfig, World};
use rpki_roa::Vrp;

/// Emits `message` to stderr the first time `key` is seen in this
/// process — the env knobs are read by several phases of one binary
/// (and by criterion's many iterations), and a bad value should produce
/// one warning, not a screenful.
fn warn_once(key: &str, message: String) {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let mut warned = WARNED
        .get_or_init(Default::default)
        .lock()
        .expect("warn set poisoned");
    if warned.insert(key.to_string()) {
        eprintln!("{message}");
    }
}

/// Reads the `MAXLENGTH_SCALE` environment variable (default 1.0 = paper
/// scale; set e.g. 0.05 for a quick run). Surrounding whitespace is
/// trimmed; anything that is not a positive finite number warns once on
/// stderr and falls back to 1.0 instead of silently running at full
/// scale (or with an empty world).
pub fn scale_from_env() -> f64 {
    match std::env::var("MAXLENGTH_SCALE") {
        Ok(raw) => match raw.trim().parse::<f64>() {
            // NaN, infinities, and non-positive values all parse as f64
            // but silently produce empty or absurd worlds — reject them
            // alongside outright garbage.
            Ok(scale) if scale.is_finite() && scale > 0.0 => scale,
            _ => {
                warn_once(
                    "MAXLENGTH_SCALE",
                    format!(
                        "warning: MAXLENGTH_SCALE={raw:?} is not a positive number; \
                         using scale 1.0"
                    ),
                );
                1.0
            }
        },
        Err(_) => 1.0,
    }
}

/// The worker-thread count for the parallel batch paths:
/// `RAYON_NUM_THREADS` if set to a positive integer (whitespace trimmed,
/// one warning on garbage, matching [`scale_from_env`]'s behaviour),
/// else the machine's available parallelism.
///
/// Delegates the actual resolution to [`rayon::current_num_threads`] —
/// the count the rayon-backed paths in the same binary use — and only
/// layers the warning on top, so the two can never diverge.
pub fn threads_from_env() -> usize {
    let threads = rayon::current_num_threads();
    if let Ok(raw) = std::env::var("RAYON_NUM_THREADS") {
        if raw.trim().parse::<usize>().map(|n| n > 0) != Ok(true) {
            warn_once(
                "RAYON_NUM_THREADS",
                format!(
                    "warning: RAYON_NUM_THREADS={raw:?} is not a positive integer; \
                     using {threads} threads"
                ),
            );
        }
    }
    threads
}

/// Reads a positive-integer knob from the environment (whitespace
/// trimmed), warning once on garbage and falling back to `default`
/// (matching [`scale_from_env`]'s behaviour) — used for
/// `MAXLENGTH_EPOCHS`, `MAXLENGTH_CHURN`, `MAXLENGTH_TOPOLOGY`, and
/// `MAXLENGTH_TRIALS`.
pub fn usize_from_env(var: &str, default: usize) -> usize {
    match std::env::var(var) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                warn_once(
                    var,
                    format!("warning: {var}={raw:?} is not a positive integer; using {default}"),
                );
                default
            }
        },
        Err(_) => default,
    }
}

/// Generates the world at the requested scale.
pub fn world(scale: f64) -> World {
    World::generate(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    })
}

/// The final ("6/1") snapshot with its VRPs and indexed BGP table.
pub fn final_snapshot(world: &World) -> (DatasetSnapshot, Vec<Vrp>, BgpTable) {
    let snap = world.snapshot(world.config.weeks - 1);
    let vrps = snap.vrps();
    let bgp: BgpTable = snap.routes.iter().collect();
    (snap, vrps, bgp)
}

#[cfg(test)]
mod tests {
    /// Env-var behaviours; one test so the harness's test threads never
    /// interleave mutations of shared process environment.
    #[test]
    fn env_knobs_parse_and_fall_back() {
        std::env::remove_var("MAXLENGTH_SCALE");
        assert_eq!(super::scale_from_env(), 1.0);
        std::env::set_var("MAXLENGTH_SCALE", "0.25");
        assert_eq!(super::scale_from_env(), 0.25);
        // Surrounding whitespace (a stray shell quote artefact) is fine.
        std::env::set_var("MAXLENGTH_SCALE", " 0.25\t");
        assert_eq!(super::scale_from_env(), 0.25);
        std::env::set_var("MAXLENGTH_SCALE", "not-a-number");
        assert_eq!(super::scale_from_env(), 1.0); // warns, falls back
        for parses_but_bogus in ["nan", "inf", "-1", "0"] {
            std::env::set_var("MAXLENGTH_SCALE", parses_but_bogus);
            assert_eq!(super::scale_from_env(), 1.0, "{parses_but_bogus}");
        }
        std::env::remove_var("MAXLENGTH_SCALE");

        std::env::remove_var("RAYON_NUM_THREADS");
        assert!(super::threads_from_env() >= 1);
        std::env::set_var("RAYON_NUM_THREADS", "3");
        assert_eq!(super::threads_from_env(), 3);
        // The trimmed value must agree with what the rayon fan-outs
        // themselves resolve (the shim trims identically).
        std::env::set_var("RAYON_NUM_THREADS", " 3 ");
        assert_eq!(super::threads_from_env(), 3);
        assert_eq!(rayon::current_num_threads(), 3);
        std::env::set_var("RAYON_NUM_THREADS", "zero");
        assert!(super::threads_from_env() >= 1); // warns, falls back
        std::env::set_var("RAYON_NUM_THREADS", "0");
        assert!(super::threads_from_env() >= 1); // zero is not a thread count
        std::env::remove_var("RAYON_NUM_THREADS");

        std::env::remove_var("MAXLENGTH_EPOCHS");
        assert_eq!(super::usize_from_env("MAXLENGTH_EPOCHS", 24), 24);
        std::env::set_var("MAXLENGTH_EPOCHS", "7");
        assert_eq!(super::usize_from_env("MAXLENGTH_EPOCHS", 24), 7);
        std::env::set_var("MAXLENGTH_EPOCHS", "7 ");
        assert_eq!(super::usize_from_env("MAXLENGTH_EPOCHS", 24), 7);
        for garbage in ["banana", "0", "-3", "1.5"] {
            std::env::set_var("MAXLENGTH_EPOCHS", garbage);
            assert_eq!(
                super::usize_from_env("MAXLENGTH_EPOCHS", 24),
                24,
                "{garbage}"
            );
        }
        std::env::remove_var("MAXLENGTH_EPOCHS");
    }
}
