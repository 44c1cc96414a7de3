//! A drop-in equivalent of the `scan_roas` utility from the RPKI
//! relying-party tools (paper §7.1).
//!
//! `scan_roas` walks a directory tree of validated ROA objects and prints
//! one line per ROA prefix: the `(origin AS, prefix, maxLength)` tuples
//! that become router PDUs. The paper's `compress_roas` is specified as a
//! drop-in *post-processor* of this output, so this module reproduces the
//! directory walk and hands back those tuples as [`ScanResult::vrps`],
//! reading the mock signed objects produced by
//! [`envelope::seal_roa`](crate::envelope::seal_roa).

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
}

/// Recursively scans `dir` for `.roa` files, validating each one on
/// `threads` workers — relying-party repositories hold tens of thousands
/// of objects, and validation is embarrassingly parallel. Output order
/// (and therefore the VRP list) is identical at every thread count; one
/// worker runs on the calling thread.
///
/// Invalid objects are collected in [`ScanResult::rejected`]; I/O errors
/// (other than a file vanishing mid-scan) abort the walk. Directory
/// symlinks are not followed; symlinked files are read.
pub fn scan_dir_parallel(dir: &Path, threads: usize) -> io::Result<ScanResult> {
    let threads = threads.max(1);
    // Enumerate deterministically first (cheap), then validate in
    // parallel (expensive).
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?.collect::<io::Result<_>>()?;
        // Deterministic order regardless of filesystem enumeration.
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let path = entry.path();
            // `file_type` does not follow symlinks, so a link back up the
            // tree cannot loop the walk. A `.roa` entry is read if it is a
            // regular file, directly or through a link; anything else (a
            // dangling link, a linked directory, a FIFO) is skipped.
            let kind = entry.file_type()?;
            if kind.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "roa")
                && (kind.is_file() || (kind.is_symlink() && path.is_file()))
            {
                files.push(path);
            }
        }
    }

    // Worker `w` validates files `w, w + threads, …`. A file that
    // vanished since the walk is neither a ROA nor a rejection.
    let validate = |worker: usize| -> io::Result<Vec<(usize, Result<Roa, EnvelopeError>)>> {
        let mut out = Vec::new();
        for (i, path) in files.iter().enumerate().skip(worker).step_by(threads) {
            match fs::read(path) {
                Ok(data) => out.push((i, open_roa(&data))),
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    };
    let mut all = if threads == 1 {
        validate(0)?
    } else {
        std::thread::scope(|scope| {
            let validate = &validate;
            let handles: Vec<_> = (0..threads)
                .map(|worker| scope.spawn(move || validate(worker)))
                .collect();
            let mut all = Vec::with_capacity(files.len());
            for h in handles {
                let worker = h
                    .join()
                    .map_err(|_| io::Error::other("scan worker panicked"))?;
                all.extend(worker?);
            }
            io::Result::Ok(all)
        })?
    };
    all.sort_by_key(|(i, _)| *i);
    let mut result = ScanResult::default();
    for (i, outcome) in all {
        match outcome {
            Ok(roa) => result.roas.push(roa),
            Err(e) => result.rejected.push((files[i].clone(), e)),
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

        let result = scan_dir_parallel(&dir, 1).unwrap();
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

        let result = scan_dir_parallel(&dir, 1).unwrap();
        assert_eq!(result.roas.len(), 1);
        assert_eq!(result.rejected.len(), 1);
        assert_eq!(result.rejected[0].1, EnvelopeError::DigestMismatch);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_yields_the_vrps_of_its_roas() {
        let dir = tmpdir("lines");
        fs::write(
            dir.join("a.roa"),
            seal_roa(&sample_roa(31283, "87.254.32.0/19", Some(20))),
        )
        .unwrap();
        let result = scan_dir_parallel(&dir, 1).unwrap();
        let vrp: Vrp = "87.254.32.0/19-20 => AS31283".parse().unwrap();
        assert_eq!(result.vrps(), [vrp]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_directory() {
        let dir = tmpdir("empty");
        let result = scan_dir_parallel(&dir, 1).unwrap();
        assert!(result.roas.is_empty());
        assert!(result.rejected.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }
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

        let serial = scan_dir_parallel(&dir, 1).unwrap();
        for threads in [1, 2, 4, 7] {
            let parallel = scan_dir_parallel(&dir, threads).unwrap();
            assert_eq!(parallel.roas, serial.roas, "{threads} threads");
            assert_eq!(parallel.rejected.len(), serial.rejected.len());
            assert_eq!(parallel.vrps(), serial.vrps());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A `.roa` entry that is gone by the time it is read — here a
    /// dangling symlink — is skipped, not fatal, at every thread count.
    #[cfg(unix)]
    #[test]
    fn vanished_file_is_skipped() {
        let dir =
            std::env::temp_dir().join(format!("rpki-roa-parscan-gone-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let roa = Roa::new(
            Asn(7),
            vec![RoaPrefix::exact("10.0.0.0/8".parse().unwrap())],
        )
        .unwrap();
        fs::write(dir.join("good.roa"), seal_roa(&roa)).unwrap();
        std::os::unix::fs::symlink(dir.join("missing"), dir.join("gone.roa")).unwrap();
        for threads in [1, 2, 4] {
            let result = scan_dir_parallel(&dir, threads).unwrap();
            assert_eq!(result.roas, vec![roa.clone()], "{threads} threads");
            assert!(result.rejected.is_empty(), "{threads} threads");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory symlink back up the tree is not followed: one ROA
    /// next to a `loop -> .` link scans as one ROA, not one per trip
    /// around the loop until the kernel's symlink limit.
    #[cfg(unix)]
    #[test]
    fn directory_symlink_loop_is_not_followed() {
        let dir =
            std::env::temp_dir().join(format!("rpki-roa-parscan-loop-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let roa = Roa::new(
            Asn(7),
            vec![RoaPrefix::exact("10.0.0.0/8".parse().unwrap())],
        )
        .unwrap();
        fs::write(dir.join("one.roa"), seal_roa(&roa)).unwrap();
        std::os::unix::fs::symlink(".", dir.join("loop")).unwrap();
        for threads in [1, 2, 4] {
            let result = scan_dir_parallel(&dir, threads).unwrap();
            assert_eq!(result.roas, vec![roa.clone()], "{threads} threads");
            assert!(result.rejected.is_empty(), "{threads} threads");
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
