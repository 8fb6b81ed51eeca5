//! Checkpoint encoding for the memory system.
//!
//! Guest physical memory is mostly zeros at checkpoint time, so the image is
//! run-length encoded: a record stream of zero runs and literal chunks. The
//! caches are deliberately *not* checkpointed — a restore starts cache-cold,
//! matching gem5's behaviour when restoring a checkpoint into a different
//! CPU model (the paper's campaign methodology restores into O3 mode).

use crate::cache::MAX_LATENCY;
use crate::config::MemConfig;
use crate::hierarchy::MemorySystem;
use gemfi_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};

const TAG_ZEROS: u8 = 0;
const TAG_LITERAL: u8 = 1;
/// Zero runs shorter than this are cheaper to store literally.
const MIN_RUN: usize = 32;
/// Largest memory a checkpoint may declare: 1 GiB, 16× the largest guest
/// any configuration builds (`MemConfig::default`'s 64 MiB). Decoding
/// builds the whole image in one buffer and a page table of one entry per
/// 4 KiB before the records can prove they fill it, so this also caps what
/// a small corrupt file can make the decoder allocate.
const MAX_PHYS_SIZE: usize = 1 << 30;

/// Run-length encodes `bytes` into `w`.
pub fn encode_image(bytes: &[u8], w: &mut ByteWriter) {
    w.put_len(bytes.len());
    let mut i = 0;
    let mut lit_start = 0;
    while i < bytes.len() {
        if bytes[i] == 0 {
            let run_start = i;
            while i < bytes.len() && bytes[i] == 0 {
                i += 1;
            }
            if i - run_start >= MIN_RUN {
                if lit_start < run_start {
                    w.put_u8(TAG_LITERAL);
                    w.put_bytes(&bytes[lit_start..run_start]);
                }
                w.put_u8(TAG_ZEROS);
                w.put_len(i - run_start);
                lit_start = i;
            }
        } else {
            i += 1;
        }
    }
    if lit_start < bytes.len() {
        w.put_u8(TAG_LITERAL);
        w.put_bytes(&bytes[lit_start..]);
    }
}

/// Decodes an image produced by [`encode_image`]. Only the encoder's own
/// output is accepted: zero runs of at least `MIN_RUN` bytes alternating
/// with non-empty literals that hold no such run and do not extend a
/// neighbouring run. Every decoded image therefore re-encodes to the same
/// bytes, which is what lets a decoded checkpoint keep its file's digest.
///
/// # Errors
///
/// [`CodecError`] on truncation, bad tags, a size mismatch, an image
/// larger than `MAX_PHYS_SIZE`, or a record the encoder would not write.
pub fn decode_image(r: &mut ByteReader<'_>) -> Result<Vec<u8>, CodecError> {
    let total = r.get_len()?;
    if total > MAX_PHYS_SIZE {
        return Err(CodecError::LengthOverflow { len: total as u64 });
    }
    // `total` is attacker-controlled until the records check out: cap the
    // preallocation by what the stream could plausibly still hold so a
    // corrupt/truncated file errors out instead of reserving gigabytes
    // up front. Legitimate zero-run expansion beyond this grows amortized.
    let mut out = Vec::with_capacity(total.min(r.remaining()));
    let mut last = None;
    while out.len() < total {
        let tag = r.get_u8()?;
        let canonical = match tag {
            TAG_ZEROS => {
                let n = r.get_len()?;
                if out.len() + n > total {
                    return Err(CodecError::LengthOverflow { len: n as u64 });
                }
                let canonical = n >= MIN_RUN && last != Some(TAG_ZEROS) && out.last() != Some(&0);
                out.resize(out.len() + n, 0);
                canonical
            }
            TAG_LITERAL => {
                let b = r.get_bytes()?;
                if out.len() + b.len() > total {
                    return Err(CodecError::LengthOverflow { len: b.len() as u64 });
                }
                let canonical = last != Some(TAG_LITERAL)
                    && b.first().is_some_and(|&x| x != 0 || last.is_none())
                    && !b.split(|&x| x != 0).any(|zeros| zeros.len() >= MIN_RUN);
                out.extend_from_slice(b);
                canonical
            }
            v => return Err(CodecError::InvalidTag { what: "image record", value: v as u64 }),
        };
        if !canonical {
            return Err(CodecError::InvalidTag {
                what: "non-canonical image record",
                value: tag as u64,
            });
        }
        last = Some(tag);
    }
    Ok(out)
}

/// Refuses a latency above `MAX_LATENCY`, which the access path could not
/// sum without overflow.
fn check_latency(what: &'static str, latency: u64) -> Result<(), CodecError> {
    if latency > MAX_LATENCY {
        return Err(CodecError::InvalidTag { what, value: latency });
    }
    Ok(())
}

impl Codec for MemorySystem {
    fn encode(&self, w: &mut ByteWriter) {
        let cfg = self.config();
        w.put_u64(cfg.phys_size as u64);
        w.put_u64(cfg.dram_latency);
        for c in [cfg.l1i, cfg.l1d, cfg.l2] {
            w.put_u64(c.size as u64);
            w.put_u64(c.ways as u64);
            w.put_u64(c.line as u64);
            w.put_u64(c.hit_latency);
        }
        // Infallible: the range [0, phys_size) is the memory's own extent.
        #[allow(clippy::expect_used)]
        let image = self.read_slice(0, cfg.phys_size).expect("whole memory");
        encode_image(&image, w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let phys_size = r.get_len()?;
        if phys_size > MAX_PHYS_SIZE {
            return Err(CodecError::LengthOverflow { len: phys_size as u64 });
        }
        let dram_latency = r.get_u64()?;
        check_latency("dram latency", dram_latency)?;
        let mut caches =
            [crate::cache::CacheConfig { size: 0, ways: 0, line: 0, hit_latency: 0 }; 3];
        for c in &mut caches {
            c.size = r.get_len()?;
            c.ways = r.get_len()?;
            c.line = r.get_len()?;
            c.hit_latency = r.get_u64()?;
            check_latency("cache hit latency", c.hit_latency)?;
            if c.validate().is_err() {
                return Err(CodecError::InvalidTag {
                    what: "cache geometry",
                    value: c.size as u64,
                });
            }
        }
        let config =
            MemConfig { phys_size, l1i: caches[0], l1d: caches[1], l2: caches[2], dram_latency };
        let image = decode_image(r)?;
        if image.len() != phys_size {
            return Err(CodecError::LengthOverflow { len: image.len() as u64 });
        }
        let mut mem = MemorySystem::new(config);
        // Infallible: image.len() == phys_size was just checked above.
        #[allow(clippy::expect_used)]
        mem.write_slice(0, &image).expect("image fits by construction");
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_rle_roundtrips_mixed_content() {
        let mut img = vec![0u8; 10_000];
        img[100] = 7;
        img[5000..5100].copy_from_slice(&[3; 100]);
        img[9999] = 1;
        let mut w = ByteWriter::new();
        encode_image(&img, &mut w);
        let bytes = w.into_bytes();
        assert!(bytes.len() < img.len() / 10, "mostly-zero image must compress");
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_image(&mut r).unwrap(), img);
    }

    #[test]
    fn image_rle_handles_all_literal() {
        let img: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut w = ByteWriter::new();
        encode_image(&img, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(decode_image(&mut r).unwrap(), img);
    }

    #[test]
    fn image_rle_handles_empty_and_all_zero() {
        for img in [vec![], vec![0u8; 4096]] {
            let mut w = ByteWriter::new();
            encode_image(&img, &mut w);
            let bytes = w.into_bytes();
            let mut r = ByteReader::new(&bytes);
            assert_eq!(decode_image(&mut r).unwrap(), img);
        }
    }

    #[test]
    fn memory_system_checkpoint_roundtrips_contents() {
        let mut m = MemorySystem::new(MemConfig { phys_size: 1 << 20, ..MemConfig::default() });
        m.write_u64_functional(0x8000, 0x1122_3344_5566_7788).unwrap();
        m.write_u64_functional(0xff000, 42).unwrap();
        let restored = MemorySystem::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(restored.read_u64_functional(0x8000).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(restored.read_u64_functional(0xff000).unwrap(), 42);
        assert_eq!(restored.config(), m.config());
        // Restore is cache-cold.
        assert_eq!(restored.stats().l1d.accesses(), 0);
    }

    #[test]
    fn huge_declared_total_fails_without_preallocating() {
        // A corrupt header claiming a 512 GiB image over a near-empty
        // stream must error on truncation, not abort in the allocator.
        let mut w = ByteWriter::new();
        w.put_len(512 << 30);
        w.put_u8(TAG_ZEROS);
        w.put_len(64);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(decode_image(&mut r).is_err());
    }

    #[test]
    fn corrupt_stream_is_rejected() {
        let m = MemorySystem::new(MemConfig { phys_size: 1 << 16, ..MemConfig::default() });
        let mut bytes = m.to_bytes();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        assert!(MemorySystem::from_bytes(&bytes).is_err());
    }
}
