//! On-disk lake files.
//!
//! A lake file stores the *generator inputs* (a [`CorpusConfig`]) and
//! regenerates the corpus deterministically on load — corpora are pure
//! functions of their config, so persisting the config is lossless and
//! tiny.
//!
//! The format (`DJLAKE2`) is a `DJAR` container with a single checksummed
//! `LAKE` section, so a torn copy or flipped bit is caught at load time
//! instead of silently regenerating a different lake.

use deepjoin_store::codec::{DecodeErrorKind, Reader, Writer};
use deepjoin_store::{Container, ContainerBuilder, DecodeError};

use crate::corpus::{CorpusConfig, CorpusProfile};

/// Container section holding the corpus config.
pub const SECTION_LAKE: [u8; 4] = *b"LAKE";

const LAKE_MAGIC: &[u8; 4] = b"DJL2";
const LAKE_VERSION: u8 = 1;

fn profile_tag(p: CorpusProfile) -> u8 {
    match p {
        CorpusProfile::Webtable => 0,
        CorpusProfile::Wikitable => 1,
    }
}

/// Serialize a corpus config as a `DJLAKE2` container.
pub fn encode(config: &CorpusConfig) -> Vec<u8> {
    let mut w = Writer::with_capacity(96);
    w.put_slice(LAKE_MAGIC);
    w.put_u8(LAKE_VERSION);
    w.put_u8(profile_tag(config.profile));
    w.put_u64_le(config.num_tables as u64);
    w.put_u64_le(config.num_domains as u64);
    w.put_u64_le(config.entities_per_domain as u64);
    // Floats travel as raw IEEE-754 bits for byte-exact roundtrips.
    w.put_u64_le(config.zipf_exponent.to_bits());
    w.put_u64_le(config.focus_rate.to_bits());
    w.put_u64_le(config.focus_width.to_bits());
    w.put_u64_le(config.windows_per_domain as u64);
    w.put_u64_le(config.noise_rate.to_bits());
    w.put_u64_le(config.strong_noise_rate.to_bits());
    w.put_u64_le(config.seed);
    ContainerBuilder::new()
        .section(SECTION_LAKE, w.into_vec())
        .build()
}

/// Deserialize a `DJLAKE2` lake file.
pub fn decode(bytes: &[u8]) -> Result<CorpusConfig, DecodeError> {
    let container = Container::parse(bytes)?;
    let payload = container.section(SECTION_LAKE, "LAKE").ok_or_else(|| {
        DecodeError::new(
            DecodeErrorKind::Invalid("lake container has no LAKE section"),
            "container",
            0,
        )
    })??;
    let mut r = Reader::new(payload, "LAKE");
    r.expect_magic(LAKE_MAGIC)?;
    r.expect_version(LAKE_VERSION)?;
    let profile = match r.u8()? {
        0 => CorpusProfile::Webtable,
        1 => CorpusProfile::Wikitable,
        other => return Err(r.error(DecodeErrorKind::BadDiscriminant(other))),
    };
    Ok(CorpusConfig {
        profile,
        num_tables: r.u64_le()? as usize,
        num_domains: r.u64_le()? as usize,
        entities_per_domain: r.u64_le()? as usize,
        zipf_exponent: f64::from_bits(r.u64_le()?),
        focus_rate: f64::from_bits(r.u64_le()?),
        focus_width: f64::from_bits(r.u64_le()?),
        windows_per_domain: r.u64_le()? as usize,
        noise_rate: f64::from_bits(r.u64_le()?),
        strong_noise_rate: f64::from_bits(r.u64_le()?),
        seed: r.u64_le()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CorpusConfig {
        let mut c = CorpusConfig::new(CorpusProfile::Wikitable, 123, 9);
        c.noise_rate = 0.125;
        c
    }

    #[test]
    fn roundtrip_is_exact() {
        let config = sample();
        let bytes = encode(&config);
        let back = decode(&bytes).unwrap();
        assert_eq!(format!("{config:?}"), format!("{back:?}"));
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode(&sample());
        // Bit flip in the payload: checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x04;
        assert!(decode(&bad).unwrap_err().is_checksum_mismatch());
        // Truncation at every offset: structured error, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err());
        }
        // The retired one-line text format is not a container at all.
        let text = b"DJLAKE1 Webtable 300 7 600 0.9 0.7 0.03 1 0.12 0.3 7\n";
        assert_eq!(decode(text).unwrap_err().kind, DecodeErrorKind::BadMagic);
    }
}
