//! RFC 6482 `RouteOriginAttestation` encoding and decoding.
//!
//! ```text
//! RouteOriginAttestation ::= SEQUENCE {
//!     version [0] INTEGER DEFAULT 0,
//!     asID ASID,
//!     ipAddrBlocks SEQUENCE OF ROAIPAddressFamily }
//!
//! ROAIPAddressFamily ::= SEQUENCE {
//!     addressFamily OCTET STRING (SIZE (2..3)),
//!     addresses SEQUENCE OF ROAIPAddress }
//!
//! ROAIPAddress ::= SEQUENCE {
//!     address IPAddress,        -- BIT STRING, RFC 3779 style
//!     maxLength INTEGER OPTIONAL }
//! ```
//!
//! DER requires DEFAULT components to be absent, so a version-0 ROA never
//! carries the `[0]` tag, and the decoder rejects one that does. This
//! profile writes the addressFamily as the two-octet AFI, without the
//! optional SAFI octet.

use rpki_prefix::{Afi, Prefix};

use crate::cursor::ReadCursor;
use crate::der::{DerError, Tag, Writer};
use crate::{Asn, Roa, RoaPrefix};

/// Encodes a ROA's `RouteOriginAttestation` eContent as DER.
///
/// Prefix entries are grouped per address family; the IPv4 block precedes
/// the IPv6 block and entries keep the ROA's canonical sorted order.
pub fn encode_roa(roa: &Roa) -> Vec<u8> {
    let mut w = Writer::new();
    w.write_sequence(|w| {
        // version 0 is DEFAULT: omitted under DER.
        w.write_u32(roa.asn().into_u32());
        w.write_sequence(|w| {
            for afi in [Afi::V4, Afi::V6] {
                let entries: Vec<&RoaPrefix> = roa
                    .prefixes()
                    .iter()
                    .filter(|p| p.prefix.afi() == afi)
                    .collect();
                if entries.is_empty() {
                    continue;
                }
                w.write_sequence(|w| {
                    w.write_octet_string(&afi.code().to_be_bytes());
                    w.write_sequence(|w| {
                        for entry in entries {
                            write_roa_ip_address(w, entry);
                        }
                    });
                });
            }
        });
    });
    w.into_bytes()
}

fn write_roa_ip_address(w: &mut Writer, entry: &RoaPrefix) {
    w.write_sequence(|w| {
        let bits = entry.prefix.bits_u128().to_be_bytes();
        w.write_bit_string(&bits, entry.prefix.len() as usize);
        if let Some(max_len) = entry.max_len {
            w.write_u32(max_len as u32);
        }
    });
}

/// Decodes a DER-encoded `RouteOriginAttestation` back into a [`Roa`].
///
/// Strictness follows RFC 6482 plus DER, and the decoder is
/// *canonical*: it accepts exactly the bytes [`encode_roa`] writes, so
/// two different objects never decode to the same ROA. Rejected: any
/// explicit version (DER omits the DEFAULT zero), out-of-range
/// maxLengths, unknown or SAFI-carrying address families, a family
/// block that is empty, repeated or out of AFI order, entries not in
/// strictly ascending order, oversized address bit strings, and
/// trailing bytes.
pub fn decode_roa(data: &[u8]) -> Result<Roa, DerError> {
    let mut outer = ReadCursor::new(data);
    let roa = outer.read_sequence(|r| {
        if r.peek_tag() == Some(Tag::CTX_0) {
            return Err(DerError::BadValue("explicit ROA version"));
        }
        let asn = Asn(r.read_unsigned_u32()?);
        let mut prefixes = Vec::new();
        r.read_sequence(|r| {
            let mut last_afi = None;
            while !r.is_empty() {
                let afi = read_address_family(r, &mut prefixes)?;
                if last_afi >= Some(afi) {
                    return Err(DerError::BadValue("address families out of order"));
                }
                last_afi = Some(afi);
            }
            Ok(())
        })?;
        Roa::new(asn, prefixes).map_err(|_| DerError::BadValue("invalid ROA contents"))
    })?;
    outer.expect_end()?;
    Ok(roa)
}

/// Reads one non-empty `ROAIPAddressFamily` block onto `prefixes`,
/// keeping them strictly ascending, and returns its family.
fn read_address_family(
    r: &mut ReadCursor<'_>,
    prefixes: &mut Vec<RoaPrefix>,
) -> Result<Afi, DerError> {
    r.read_sequence(|r| {
        let afi = match r.read_octet_string()? {
            &[a, b] => Afi::from_code(u16::from_be_bytes([a, b]))
                .ok_or(DerError::BadValue("unknown address family"))?,
            _ => return Err(DerError::BadValue("malformed addressFamily")),
        };
        let before = prefixes.len();
        r.read_sequence(|r| {
            while !r.is_empty() {
                let entry = read_roa_ip_address(r, afi)?;
                if prefixes.last().is_some_and(|last| *last >= entry) {
                    return Err(DerError::BadValue("ROA entries out of order"));
                }
                prefixes.push(entry);
            }
            Ok(())
        })?;
        if prefixes.len() == before {
            return Err(DerError::BadValue("empty address family"));
        }
        Ok(afi)
    })
}

fn read_roa_ip_address(r: &mut ReadCursor<'_>, afi: Afi) -> Result<RoaPrefix, DerError> {
    r.read_sequence(|r| {
        let (bytes, bit_len) = r.read_bit_string()?;
        if bit_len > afi.max_len() as usize {
            return Err(DerError::BadValue("address longer than family maximum"));
        }
        let mut padded = [0u8; 16];
        padded[..bytes.len()].copy_from_slice(bytes);
        let prefix = Prefix::from_bits_u128(afi, u128::from_be_bytes(padded), bit_len as u8)
            .map_err(|_| DerError::BadValue("invalid prefix bits"))?;
        let max_len = if r.is_empty() {
            None
        } else {
            let ml = r.read_unsigned_u32()?;
            let ml = u8::try_from(ml).map_err(|_| DerError::BadValue("maxLength too large"))?;
            Some(ml)
        };
        Ok(RoaPrefix { prefix, max_len })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfx(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn paper_roa() -> Roa {
        // §7's example: ROA: ({87.254.32.0/19-20, 87.254.32.0/21}, AS 31283)
        Roa::new(
            Asn(31283),
            vec![
                RoaPrefix::with_max_len(pfx("87.254.32.0/19"), 20),
                RoaPrefix::exact(pfx("87.254.32.0/21")),
            ],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_paper_example() {
        let roa = paper_roa();
        let der = encode_roa(&roa);
        let back = decode_roa(&der).unwrap();
        assert_eq!(roa, back);
    }

    #[test]
    fn round_trip_mixed_families() {
        let roa = Roa::new(
            Asn(65000),
            vec![
                RoaPrefix::exact(pfx("10.0.0.0/8")),
                RoaPrefix::with_max_len(pfx("10.64.0.0/10"), 24),
                RoaPrefix::exact(pfx("2001:db8::/32")),
                RoaPrefix::with_max_len(pfx("2001:db8:1::/48"), 64),
            ],
        )
        .unwrap();
        let back = decode_roa(&encode_roa(&roa)).unwrap();
        assert_eq!(roa, back);
    }

    #[test]
    fn round_trip_edge_prefixes() {
        for entry in [
            RoaPrefix::exact(pfx("0.0.0.0/0")),
            RoaPrefix::with_max_len(pfx("0.0.0.0/0"), 32),
            RoaPrefix::exact(pfx("255.255.255.255/32")),
            RoaPrefix::exact(pfx("::/0")),
            RoaPrefix::with_max_len(pfx("::/0"), 128),
            RoaPrefix::exact(pfx("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128")),
        ] {
            let roa = Roa::new(Asn(1), vec![entry]).unwrap();
            assert_eq!(decode_roa(&encode_roa(&roa)).unwrap(), roa, "{entry:?}");
        }
    }

    #[test]
    fn v4_block_precedes_v6() {
        let roa = Roa::new(
            Asn(1),
            vec![
                RoaPrefix::exact(pfx("2001:db8::/32")),
                RoaPrefix::exact(pfx("10.0.0.0/8")),
            ],
        )
        .unwrap();
        let der = encode_roa(&roa);
        // Find the two family OCTET STRINGs (tag 0x04, len 2).
        let fams: Vec<u16> = der
            .windows(4)
            .filter(|w| w[0] == 0x04 && w[1] == 2)
            .map(|w| u16::from_be_bytes([w[2], w[3]]))
            .collect();
        assert_eq!(fams, vec![1, 2]);
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let der = encode_roa(&paper_roa());
        for cut in 0..der.len() {
            assert!(decode_roa(&der[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut der = encode_roa(&paper_roa());
        der.push(0x00);
        assert_eq!(decode_roa(&der), Err(DerError::TrailingBytes));
    }

    #[test]
    fn rejects_unknown_family() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u32(1);
            w.write_sequence(|w| {
                w.write_sequence(|w| {
                    w.write_octet_string(&[0x00, 0x07]); // AFI 7: not a thing
                    w.write_sequence(|w| {
                        w.write_sequence(|w| w.write_bit_string(&[10], 8));
                    });
                });
            });
        });
        assert_eq!(
            decode_roa(&w.into_bytes()),
            Err(DerError::BadValue("unknown address family"))
        );
    }

    #[test]
    fn rejects_bad_maxlength_semantics() {
        // maxLength 8 on a /16: structurally valid DER, invalid ROA.
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u32(1);
            w.write_sequence(|w| {
                w.write_sequence(|w| {
                    w.write_octet_string(&[0x00, 0x01]);
                    w.write_sequence(|w| {
                        w.write_sequence(|w| {
                            w.write_bit_string(&[10, 0], 16);
                            w.write_u32(8);
                        });
                    });
                });
            });
        });
        assert!(decode_roa(&w.into_bytes()).is_err());
    }

    #[test]
    fn rejects_overlong_address() {
        // 40-bit "IPv4" address.
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u32(1);
            w.write_sequence(|w| {
                w.write_sequence(|w| {
                    w.write_octet_string(&[0x00, 0x01]);
                    w.write_sequence(|w| {
                        w.write_sequence(|w| w.write_bit_string(&[1, 2, 3, 4, 5], 40));
                    });
                });
            });
        });
        assert_eq!(
            decode_roa(&w.into_bytes()),
            Err(DerError::BadValue("address longer than family maximum"))
        );
    }

    #[test]
    fn rejects_nonzero_version() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_constructed(Tag::CTX_0, |w| w.write_u32(1));
            w.write_u32(1);
            w.write_sequence(|_| {});
        });
        assert_eq!(
            decode_roa(&w.into_bytes()),
            Err(DerError::BadValue("explicit ROA version"))
        );
    }

    /// DER omits the DEFAULT version, so even a spelled-out zero would
    /// re-encode to different bytes.
    #[test]
    fn rejects_explicit_zero_version() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_constructed(Tag::CTX_0, |w| w.write_u32(0));
            w.write_u32(31283);
            w.write_sequence(|w| {
                w.write_sequence(|w| {
                    w.write_octet_string(&[0x00, 0x01]);
                    w.write_sequence(|w| {
                        w.write_sequence(|w| w.write_bit_string(&[87, 254, 32], 19));
                    });
                });
            });
        });
        assert_eq!(
            decode_roa(&w.into_bytes()),
            Err(DerError::BadValue("explicit ROA version"))
        );
    }

    #[test]
    fn rejects_empty_roa() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u32(1);
            w.write_sequence(|_| {});
        });
        assert!(decode_roa(&w.into_bytes()).is_err());
    }

    #[test]
    fn rejects_three_byte_family_with_safi() {
        let mut w = Writer::new();
        w.write_sequence(|w| {
            w.write_u32(1);
            w.write_sequence(|w| {
                w.write_sequence(|w| {
                    w.write_octet_string(&[0x00, 0x01, 0x01]); // AFI 1 + SAFI
                    w.write_sequence(|w| {
                        w.write_sequence(|w| w.write_bit_string(&[10], 8));
                    });
                });
            });
        });
        assert_eq!(
            decode_roa(&w.into_bytes()),
            Err(DerError::BadValue("malformed addressFamily"))
        );
    }

    /// The canonical-accept rule: entry order, family order, repeated or
    /// empty blocks — anything `encode_roa` would write differently.
    #[test]
    fn rejects_non_canonical_layouts() {
        let family = |w: &mut Writer, afi: u8, entries: &[(&[u8], usize)]| {
            w.write_sequence(|w| {
                w.write_octet_string(&[0x00, afi]);
                w.write_sequence(|w| {
                    for &(bits, len) in entries {
                        w.write_sequence(|w| w.write_bit_string(bits, len));
                    }
                });
            });
        };
        let roa = |blocks: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            w.write_sequence(|w| {
                w.write_u32(1);
                w.write_sequence(|w| blocks(w));
            });
            decode_roa(&w.into_bytes())
        };
        let (ten, eleven, v6): (&[u8], &[u8], &[u8]) = (&[10], &[11], &[0x20, 0x01]);
        let out_of_order = Err(DerError::BadValue("ROA entries out of order"));
        assert_eq!(
            roa(&|w| family(w, 1, &[(eleven, 8), (ten, 8)])),
            out_of_order
        );
        assert_eq!(roa(&|w| family(w, 1, &[(ten, 8), (ten, 8)])), out_of_order);
        assert_eq!(
            roa(&|w| {
                family(w, 2, &[(v6, 16)]);
                family(w, 1, &[(ten, 8)]);
            }),
            out_of_order
        );
        assert_eq!(
            roa(&|w| {
                family(w, 1, &[(ten, 8)]);
                family(w, 1, &[(eleven, 8)]);
            }),
            Err(DerError::BadValue("address families out of order"))
        );
        assert_eq!(
            roa(&|w| {
                family(w, 1, &[(ten, 8)]);
                family(w, 2, &[]);
            }),
            Err(DerError::BadValue("empty address family"))
        );
        // The same entries in canonical layout decode.
        assert!(roa(&|w| {
            family(w, 1, &[(ten, 8), (eleven, 8)]);
            family(w, 2, &[(v6, 16)]);
        })
        .is_ok());
    }
}
