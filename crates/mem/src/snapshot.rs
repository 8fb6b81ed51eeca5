//! Checkpoint encoding for the memory system.
//!
//! Guest physical memory is mostly zeros at checkpoint time, so the image is
//! run-length encoded: a record stream of zero runs and literal chunks.
//! Encoding a memory system walks its page table, adding an untouched page
//! to the current zero run without reading it; decoding streams each
//! literal into the pages it covers and leaves zero runs untouched. Neither
//! builds the whole image, so both cost the pages a machine wrote, not its
//! address space. The caches are deliberately *not* checkpointed — a
//! restore starts cache-cold, matching gem5's behaviour when restoring a
//! checkpoint into a different CPU model (the paper's campaign methodology
//! restores into O3 mode).

use crate::cache::MAX_LATENCY;
use crate::config::MemConfig;
use crate::hierarchy::MemorySystem;
use gemfi_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};

const TAG_ZEROS: u8 = 0;
const TAG_LITERAL: u8 = 1;
/// Zero runs shorter than this are cheaper to store literally.
const MIN_RUN: usize = 32;
/// Largest memory a checkpoint may declare: 1 GiB, 16× the largest guest
/// any configuration builds (`MemConfig::default`'s 64 MiB). Decoding a
/// memory system streams its records into pages and builds no image
/// buffer, but it allocates a page table of one entry per 4 KiB before the
/// records can prove they fill it, so this also caps what a small corrupt
/// file can make the decoder allocate.
const MAX_PHYS_SIZE: usize = 1 << 30;

/// The run-length encoder behind [`encode_image`] and
/// [`MemorySystem::encode`]. The literal being gathered and the zero run
/// after it stay unwritten until the next nonzero byte or the end decides
/// whether the run is a record of its own or part of the literal, so
/// bytes may arrive in pieces of any size and a zero run costs nothing to
/// feed.
struct RunEncoder<'w> {
    w: &'w mut ByteWriter,
    literal: Vec<u8>,
    zeros: usize,
}

impl<'w> RunEncoder<'w> {
    /// Starts an image of `total` bytes.
    fn new(w: &'w mut ByteWriter, total: usize) -> RunEncoder<'w> {
        w.put_len(total);
        RunEncoder { w, literal: Vec::new(), zeros: 0 }
    }

    /// Appends `n` zero bytes.
    fn zeros(&mut self, n: usize) {
        self.zeros += n;
    }

    /// Appends `bytes`.
    fn bytes(&mut self, mut bytes: &[u8]) {
        while let Some(start) = bytes.iter().position(|&b| b != 0) {
            let end =
                bytes[start..].iter().position(|&b| b == 0).map_or(bytes.len(), |n| start + n);
            self.zeros += start;
            self.close_run();
            self.literal.extend_from_slice(&bytes[start..end]);
            bytes = &bytes[end..];
        }
        self.zeros += bytes.len();
    }

    /// Ends the pending zero run: a long one is written as a record after
    /// the literal before it, a short one joins that literal.
    fn close_run(&mut self) {
        if self.zeros >= MIN_RUN {
            self.flush_literal();
            self.w.put_u8(TAG_ZEROS);
            self.w.put_len(self.zeros);
        } else {
            self.literal.resize(self.literal.len() + self.zeros, 0);
        }
        self.zeros = 0;
    }

    fn flush_literal(&mut self) {
        if !self.literal.is_empty() {
            self.w.put_u8(TAG_LITERAL);
            self.w.put_bytes(&self.literal);
            self.literal.clear();
        }
    }

    fn finish(mut self) {
        self.close_run();
        self.flush_literal();
    }
}

/// Run-length encodes `bytes` into `w`.
pub fn encode_image(bytes: &[u8], w: &mut ByteWriter) {
    let mut e = RunEncoder::new(w, bytes.len());
    e.bytes(bytes);
    e.finish();
}

/// Reads an image's declared size, refusing one above `MAX_PHYS_SIZE`.
fn image_len(r: &mut ByteReader<'_>) -> Result<usize, CodecError> {
    let total = r.get_len()?;
    if total > MAX_PHYS_SIZE {
        return Err(CodecError::LengthOverflow { len: total as u64 });
    }
    Ok(total)
}

/// Reads the records of a `total`-byte image and hands every literal to
/// `literal` with its offset; the bytes between literals are zeros. Only
/// the encoder's own output is accepted: zero runs of at least `MIN_RUN`
/// bytes alternating with non-empty literals that hold no such run and do
/// not extend a neighbouring run. Every decoded image therefore re-encodes
/// to the same bytes, which is what lets a decoded checkpoint keep its
/// file's digest.
fn read_literals<'a>(
    r: &mut ByteReader<'a>,
    total: usize,
    mut literal: impl FnMut(usize, &'a [u8]),
) -> Result<(), CodecError> {
    let mut at = 0;
    let mut last = None;
    // Whether the last decoded byte is a zero.
    let mut after_zero = false;
    while at < total {
        let tag = r.get_u8()?;
        let canonical = match tag {
            TAG_ZEROS => {
                let n = r.get_len()?;
                if at + n > total {
                    return Err(CodecError::LengthOverflow { len: n as u64 });
                }
                let canonical = n >= MIN_RUN && last != Some(TAG_ZEROS) && !after_zero;
                at += n;
                after_zero = true;
                canonical
            }
            TAG_LITERAL => {
                let b = r.get_bytes()?;
                if at + b.len() > total {
                    return Err(CodecError::LengthOverflow { len: b.len() as u64 });
                }
                let canonical = last != Some(TAG_LITERAL)
                    && b.first().is_some_and(|&x| x != 0 || last.is_none())
                    && !b.split(|&x| x != 0).any(|zeros| zeros.len() >= MIN_RUN);
                literal(at, b);
                at += b.len();
                after_zero = b.last() == Some(&0);
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
    Ok(())
}

/// Decodes an image produced by [`encode_image`], accepting only the
/// encoder's own output (see `read_literals`).
///
/// # Errors
///
/// [`CodecError`] on truncation, bad tags, a size mismatch, an image
/// larger than `MAX_PHYS_SIZE`, or a record the encoder would not write.
pub fn decode_image(r: &mut ByteReader<'_>) -> Result<Vec<u8>, CodecError> {
    let total = image_len(r)?;
    // `total` is attacker-controlled until the records check out: cap the
    // preallocation by what the stream could plausibly still hold so a
    // corrupt/truncated file errors out instead of reserving gigabytes
    // up front. Legitimate zero-run expansion beyond this grows amortized.
    let mut out = Vec::with_capacity(total.min(r.remaining()));
    read_literals(r, total, |at, b| {
        out.resize(at, 0);
        out.extend_from_slice(b);
    })?;
    out.resize(total, 0);
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
        // Page by page: an untouched page joins the zero run unread.
        let mut e = RunEncoder::new(w, cfg.phys_size);
        for (len, page) in self.phys().page_slices() {
            match page {
                Some(bytes) => e.bytes(bytes),
                None => e.zeros(len),
            }
        }
        e.finish();
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
        let total = image_len(r)?;
        if total != phys_size {
            return Err(CodecError::LengthOverflow { len: total as u64 });
        }
        // Literals stream straight into pages; zero runs leave theirs
        // untouched.
        let mut mem = MemorySystem::new(config);
        read_literals(r, total, |at, b| {
            // Infallible: `read_literals` keeps every literal inside
            // `total`, which is the memory's size.
            #[allow(clippy::expect_used)]
            mem.write_slice(at as u64, b).expect("literal fits by construction");
        })?;
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
