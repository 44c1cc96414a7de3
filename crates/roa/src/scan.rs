//! A drop-in equivalent of the `scan_roas` utility from the RPKI
//! relying-party tools (paper §7.1).
//!
//! `scan_roas` walks a directory tree of validated ROA objects and prints
//! one line per ROA prefix: the `(origin AS, prefix, maxLength)` tuples
//! that become router PDUs. The paper's `compress_roas` is specified as a
//! drop-in *post-processor* of this output, so this module reproduces both
//! the directory walk and the line format, reading the mock signed objects
//! produced by [`envelope::seal_roa`](crate::envelope::seal_roa).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::envelope::{open_roa, EnvelopeError};
use crate::{Roa, Vrp};

/// The result of scanning one directory tree.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// Successfully validated ROAs, in directory order.
    pub roas: Vec<Roa>,
    /// Files that failed validation, with the reason — a relying party
    /// logs and skips these rather than aborting the scan.
    pub rejected: Vec<(PathBuf, EnvelopeError)>,
}

impl ScanResult {
    /// Expands every scanned ROA into its VRPs, preserving order.
    pub fn vrps(&self) -> Vec<Vrp> {
        self.roas.iter().flat_map(|r| r.vrps()).collect()
    }

    /// Renders the scan in `scan_roas` line format: one
    /// `ASN prefix/len-maxlen` line per VRP (the `-maxlen` suffix present
    /// only when it exceeds the prefix length).
    pub fn to_scan_lines(&self) -> String {
        let mut out = String::new();
        for vrp in self.vrps() {
            out.push_str(&scan_line(&vrp));
            out.push('\n');
        }
        out
    }
}

/// Formats one VRP in `scan_roas` output style, e.g.
/// `31283 87.254.32.0/19-20`.
pub fn scan_line(vrp: &Vrp) -> String {
    if vrp.uses_max_len() {
        format!("{} {}-{}", vrp.asn.into_u32(), vrp.prefix, vrp.max_len)
    } else {
        format!("{} {}", vrp.asn.into_u32(), vrp.prefix)
    }
}

/// Recursively scans `dir` for `.roa` files, validating each one.
///
/// Invalid objects are collected in [`ScanResult::rejected`]; I/O errors
/// (other than a file vanishing mid-scan) abort the walk.
pub fn scan_dir(dir: &Path) -> io::Result<ScanResult> {
    let mut result = ScanResult::default();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?.collect::<io::Result<_>>()?;
        // Deterministic order regardless of filesystem enumeration.
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "roa") {
                let data = fs::read(&path)?;
                match open_roa(&data) {
                    Ok(roa) => result.roas.push(roa),
                    Err(e) => result.rejected.push((path, e)),
                }
            }
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::seal_roa;
    use crate::{Asn, RoaPrefix};
    use rpki_prefix::Prefix;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rpki-roa-scan-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_roa(asn: u32, prefix: &str, max_len: Option<u8>) -> Roa {
        let entry = match max_len {
            Some(m) => RoaPrefix::with_max_len(pfx(prefix), m),
            None => RoaPrefix::exact(pfx(prefix)),
        };
        Roa::new(Asn(asn), vec![entry]).unwrap()
    }

    #[test]
    fn scans_nested_directories() {
        let dir = tmpdir("nested");
        fs::create_dir_all(dir.join("repo/a")).unwrap();
        fs::write(
            dir.join("repo/a/one.roa"),
            seal_roa(&sample_roa(111, "168.122.0.0/16", None)),
        )
        .unwrap();
        fs::write(
            dir.join("two.roa"),
            seal_roa(&sample_roa(31283, "87.254.32.0/19", Some(20))),
        )
        .unwrap();
        // Non-.roa files are ignored.
        fs::write(dir.join("README.txt"), b"not a roa").unwrap();

        let result = scan_dir(&dir).unwrap();
        assert_eq!(result.roas.len(), 2);
        assert!(result.rejected.is_empty());
        let vrps = result.vrps();
        assert_eq!(vrps.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_objects_are_rejected_not_fatal() {
        let dir = tmpdir("corrupt");
        let mut sealed = seal_roa(&sample_roa(111, "10.0.0.0/8", None));
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        fs::write(dir.join("bad.roa"), sealed).unwrap();
        fs::write(
            dir.join("good.roa"),
            seal_roa(&sample_roa(222, "11.0.0.0/8", None)),
        )
        .unwrap();

        let result = scan_dir(&dir).unwrap();
        assert_eq!(result.roas.len(), 1);
        assert_eq!(result.rejected.len(), 1);
        assert_eq!(result.rejected[0].1, EnvelopeError::DigestMismatch);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_line_format() {
        let with_ml: Vrp = "87.254.32.0/19-20 => AS31283".parse().unwrap();
        assert_eq!(scan_line(&with_ml), "31283 87.254.32.0/19-20");
        let without: Vrp = "87.254.32.0/21 => AS31283".parse().unwrap();
        assert_eq!(scan_line(&without), "31283 87.254.32.0/21");
    }

    #[test]
    fn scan_lines_output() {
        let dir = tmpdir("lines");
        fs::write(
            dir.join("a.roa"),
            seal_roa(&sample_roa(31283, "87.254.32.0/19", Some(20))),
        )
        .unwrap();
        let result = scan_dir(&dir).unwrap();
        assert_eq!(result.to_scan_lines(), "31283 87.254.32.0/19-20\n");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory() {
        let dir = tmpdir("empty");
        let result = scan_dir(&dir).unwrap();
        assert!(result.roas.is_empty());
        assert!(result.rejected.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// [`scan_dir`] parallelized over `threads` workers — relying-party
/// repositories hold tens of thousands of objects, and validation is
/// embarrassingly parallel. Output order (and therefore the VRP list) is
/// identical to the serial scan.
pub fn scan_dir_parallel(dir: &Path, threads: usize) -> io::Result<ScanResult> {
    let threads = threads.max(1);
    // Enumerate deterministically first (cheap), then validate in
    // parallel (expensive).
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?.collect::<io::Result<_>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "roa") {
                files.push(path);
            }
        }
    }

    type Validated = (usize, PathBuf, Result<crate::Roa, EnvelopeError>);
    let results: io::Result<Vec<Validated>> = std::thread::scope(|scope| {
        let files = &files;
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || -> io::Result<Vec<Validated>> {
                    let mut out = Vec::new();
                    for (i, path) in files.iter().enumerate() {
                        if i % threads != worker {
                            continue;
                        }
                        let data = fs::read(path)?;
                        out.push((i, path.clone(), open_roa(&data)));
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(files.len());
        for h in handles {
            all.extend(h.join().expect("scan worker panicked")?);
        }
        Ok(all)
    });

    let mut all = results?;
    all.sort_by_key(|(i, _, _)| *i);
    let mut result = ScanResult::default();
    for (_, path, outcome) in all {
        match outcome {
            Ok(roa) => result.roas.push(roa),
            Err(e) => result.rejected.push((path, e)),
        }
    }
    Ok(result)
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::envelope::seal_roa;
    use crate::{Asn, Roa, RoaPrefix};
    use rpki_prefix::Prefix;
    use std::fs;

    #[test]
    fn parallel_scan_matches_serial() {
        let dir = std::env::temp_dir().join(format!("rpki-roa-parscan-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(dir.join("sub")).unwrap();
        for i in 0..40u32 {
            let prefix: Prefix = format!("10.{}.0.0/16", i).parse().unwrap();
            let roa = Roa::new(Asn(i + 1), vec![RoaPrefix::exact(prefix)]).unwrap();
            let where_ = if i % 2 == 0 { "" } else { "sub/" };
            fs::write(dir.join(format!("{where_}{i:03}.roa")), seal_roa(&roa)).unwrap();
        }
        // One corrupt object.
        let mut bad = seal_roa(
            &Roa::new(
                Asn(99),
                vec![RoaPrefix::exact("99.0.0.0/8".parse().unwrap())],
            )
            .unwrap(),
        );
        let last = bad.len() - 1;
        bad[last] ^= 1;
        fs::write(dir.join("zz.roa"), bad).unwrap();

        let serial = scan_dir(&dir).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel = scan_dir_parallel(&dir, threads).unwrap();
            assert_eq!(parallel.roas, serial.roas, "{threads} threads");
            assert_eq!(parallel.rejected.len(), serial.rejected.len());
            assert_eq!(parallel.vrps(), serial.vrps());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_scan_empty_dir() {
        let dir =
            std::env::temp_dir().join(format!("rpki-roa-parscan-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let result = scan_dir_parallel(&dir, 4).unwrap();
        assert!(result.roas.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
}
