//! The `rpki-roa` decoders of outside bytes as mutation-harness codecs,
//! with the seeds and length fields they are checked from. Shared by
//! this crate's `tests/decoders.rs` and the workspace's tier-1
//! `tests/decoders.rs`.

use std::cell::Cell;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use rpki_prefix::Prefix;
use rpki_roa::codec::{decode_roa, encode_roa};
use rpki_roa::cursor::ReadCursor;
use rpki_roa::der::DerError;
use rpki_roa::envelope::{open_roa, seal_roa, EnvelopeError};
use rpki_roa::scan::scan_dir_parallel;
use rpki_roa::{Asn, Roa, RoaPrefix};
use testkit::{Canon, Codec, Field};

/// `codec::decode_roa`: the DER eContent.
pub struct Der;

impl Codec for Der {
    type Value = Roa;
    type Error = DerError;
    const CANON: Canon = Canon::Exact;

    fn decode(&self, bytes: &[u8]) -> Result<Roa, DerError> {
        decode_roa(bytes)
    }

    fn encode(&self, roa: &Roa) -> Vec<u8> {
        encode_roa(roa)
    }
}

/// `envelope::open_roa`: a whole signed object.
pub struct Sealed;

impl Codec for Sealed {
    type Value = Roa;
    type Error = EnvelopeError;
    const CANON: Canon = Canon::Exact;

    fn decode(&self, bytes: &[u8]) -> Result<Roa, EnvelopeError> {
        open_roa(bytes)
    }

    fn encode(&self, roa: &Roa) -> Vec<u8> {
        seal_roa(roa)
    }
}

/// The envelope's payload-length field.
pub const SEALED_LENGTHS: &[Field] = &[Field { at: 7, width: 4 }];

/// The first length byte of every TLV in a DER encoding.
pub fn der_lengths(der: &[u8]) -> Vec<Field> {
    fn walk(der: &[u8], base: usize, out: &mut Vec<Field>) {
        let mut r = ReadCursor::new(der);
        while !r.is_empty() {
            out.push(Field {
                at: base + r.pos() + 1,
                width: 1,
            });
            let (tag, contents) = r.read_tlv().expect("seeds are valid DER");
            if tag.0 & 0x20 != 0 {
                walk(contents, base + r.pos() - contents.len(), out);
            }
        }
    }
    let mut out = Vec::new();
    walk(der, 0, &mut out);
    out
}

/// `scan::scan_dir_parallel` over a hostile repository. The input is
/// one object file, written under a rotating awkward name (nested,
/// spaced, dotted, not UTF-8) into a tree that also holds a symlink
/// loop to itself, a link to a directory named `.roa`, a dangling link,
/// a file named just `.roa` and a non-ROA file. Each scan, at 1, 2 or 4
/// threads in turn, must report exactly one outcome, for that file. (A
/// walk that follows the loop reports 41, one per trip until the
/// kernel's symlink limit; a second loop would make it 2^40 and hang
/// the suite instead of failing it.)
#[cfg(unix)]
pub struct Scanned {
    root: PathBuf,
    round: Cell<usize>,
}

#[cfg(unix)]
const NAMES: &[&[u8]] = &[
    b"a.roa",
    b"deep/er/b.roa",
    b"with space.roa",
    b"x.y.roa",
    b"\xff\xfe.roa",
];

#[cfg(unix)]
impl Scanned {
    /// Builds the hostile tree in a fresh temporary directory.
    pub fn new() -> Scanned {
        use std::os::unix::fs::symlink;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "rpki-roa-harness-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("deep/er")).unwrap();
        fs::create_dir_all(root.join("dir.roa")).unwrap();
        symlink(".", root.join("loop")).unwrap();
        symlink("dir.roa", root.join("linked.roa")).unwrap();
        symlink("missing", root.join("gone.roa")).unwrap();
        fs::write(root.join(".roa"), b"hidden, not a ROA").unwrap();
        fs::write(root.join("README.txt"), b"not a ROA").unwrap();
        Scanned {
            root,
            round: Cell::new(0),
        }
    }
}

#[cfg(unix)]
impl Drop for Scanned {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[cfg(unix)]
impl Codec for Scanned {
    type Value = Roa;
    type Error = EnvelopeError;
    const CANON: Canon = Canon::Exact;

    fn decode(&self, bytes: &[u8]) -> Result<Roa, EnvelopeError> {
        use std::os::unix::ffi::OsStrExt;
        let round = self.round.get();
        self.round.set(round + 1);
        let path = self
            .root
            .join(std::ffi::OsStr::from_bytes(NAMES[round % NAMES.len()]));
        fs::write(&path, bytes).unwrap();
        let scan = scan_dir_parallel(&self.root, [1, 2, 4][round % 3]);
        fs::remove_file(&path).unwrap();
        let mut scan = scan.expect("a hostile tree must not abort the scan");
        assert_eq!(
            scan.roas.len() + scan.rejected.len(),
            1,
            "one object file, one outcome: {} ROAs, rejected {:?}",
            scan.roas.len(),
            scan.rejected
        );
        match scan.rejected.pop() {
            Some((at, e)) => {
                assert_eq!(at, path);
                Err(e)
            }
            None => Ok(scan.roas.remove(0)),
        }
    }

    fn encode(&self, roa: &Roa) -> Vec<u8> {
        seal_roa(roa)
    }
}

/// Hand-picked ROAs: the paper's §7 example, both families with and
/// without maxLength, the family edges, and one large enough for
/// long-form DER lengths.
pub fn sample_roas() -> Vec<Roa> {
    let entry = |p: &str, ml: Option<u8>| {
        let prefix: Prefix = p.parse().unwrap();
        match ml {
            Some(m) => RoaPrefix::with_max_len(prefix, m),
            None => RoaPrefix::exact(prefix),
        }
    };
    let wide = (0..24u16)
        .map(|i| entry(&format!("2001:db8:{i:x}::/48"), Some(64)))
        .collect();
    vec![
        Roa::new(
            Asn(31283),
            vec![
                entry("87.254.32.0/19", Some(20)),
                entry("87.254.32.0/21", None),
            ],
        ),
        Roa::new(
            Asn(65000),
            vec![
                entry("10.0.0.0/8", None),
                entry("10.64.0.0/10", Some(24)),
                entry("2001:db8::/32", None),
                entry("2001:db8:1::/48", Some(64)),
            ],
        ),
        Roa::new(
            Asn(u32::MAX),
            vec![
                entry("0.0.0.0/0", Some(32)),
                entry("255.255.255.255/32", None),
                entry("::/0", Some(128)),
            ],
        ),
        Roa::new(Asn(0), wide),
    ]
    .into_iter()
    .map(|roa| roa.unwrap())
    .collect()
}
