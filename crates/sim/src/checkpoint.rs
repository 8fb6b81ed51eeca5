//! Whole-machine checkpoints (the DMTCP substitution).
//!
//! A [`Checkpoint`] captures everything a resumed simulation can observe:
//! architectural state, guest memory, kernel state, and simulation time.
//! Caches and predictors restore cold (gem5's semantics when restoring into
//! a different CPU model). Checkpoints serialize with the workspace's
//! [`Codec`] into a versioned binary file — the "network share" objects of
//! the paper's NoW protocol (Sec. III-E step 2).
//!
//! The file starts with a self-describing header — magic, format version,
//! and an FNV-1a digest of the payload — so campaign tooling can cheaply
//! fingerprint a spooled checkpoint ([`Checkpoint::peek_header`]) without
//! decoding it. The resume path compares this digest against the one
//! recorded in the campaign journal and rejects a stale or swapped
//! checkpoint before re-running any experiment against the wrong state.
//!
//! A checkpoint is immutable once captured (its fields are private), which
//! lets [`Checkpoint::digest`] memoize the payload fingerprint: the first
//! call re-encodes the payload, every later call — the resume path
//! validates digests repeatedly — returns the cached value. Decoding primes
//! the cache for free from the verified file header.

use crate::config::MachineConfig;
use gemfi_cpu::CpuKind;
use gemfi_isa::codec::{ByteReader, ByteWriter, Codec, CodecError};
use gemfi_isa::ArchState;
use gemfi_kernel::Kernel;
use gemfi_mem::{MemConfig, MemorySystem};
use std::sync::OnceLock;

const MAGIC: u32 = 0x47_46_49_43; // "GFIC"
const VERSION: u32 = 2;

/// FNV-1a, 64-bit — the checkpoint payload fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The decoded file header of a serialized checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Format version ([`Checkpoint::decode`] accepts exactly the current
    /// one).
    pub version: u32,
    /// FNV-1a digest of the encoded payload.
    pub digest: u64,
}

/// A point-in-time snapshot of a [`crate::Machine`].
///
/// Immutable after capture: restores never mutate the checkpoint (per-run
/// overrides like the watchdog budget are passed to
/// [`crate::Machine::restore_with`] instead), so one `Checkpoint` — usually
/// behind an `Arc` — safely fans out to any number of concurrent
/// experiments, each sharing its memory pages copy-on-write.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    config: MachineConfig,
    arch: ArchState,
    mem: MemorySystem,
    kernel: Kernel,
    tick: u64,
    instret: u64,
    /// Lazily computed payload digest; sound to cache because every other
    /// field is immutable.
    digest: OnceLock<u64>,
}

impl PartialEq for Checkpoint {
    /// State equality; whether the digest has been computed yet is not
    /// state.
    fn eq(&self, other: &Checkpoint) -> bool {
        self.config == other.config
            && self.arch == other.arch
            && self.mem == other.mem
            && self.kernel == other.kernel
            && self.tick == other.tick
            && self.instret == other.instret
    }
}

fn encode_cpu_kind(k: CpuKind, w: &mut ByteWriter) {
    w.put_u8(match k {
        CpuKind::Atomic => 0,
        CpuKind::Timing => 1,
        CpuKind::InOrder => 2,
        CpuKind::O3 => 3,
    });
}

fn decode_cpu_kind(r: &mut ByteReader<'_>) -> Result<CpuKind, CodecError> {
    Ok(match r.get_u8()? {
        0 => CpuKind::Atomic,
        1 => CpuKind::Timing,
        2 => CpuKind::InOrder,
        3 => CpuKind::O3,
        v => return Err(CodecError::InvalidTag { what: "CpuKind", value: v as u64 }),
    })
}

impl Checkpoint {
    /// Assembles a checkpoint from captured machine state.
    /// [`crate::Machine::checkpoint`] is the usual producer; tests build
    /// variants directly.
    pub fn new(
        config: MachineConfig,
        arch: ArchState,
        mem: MemorySystem,
        kernel: Kernel,
        tick: u64,
        instret: u64,
    ) -> Checkpoint {
        Checkpoint { config, arch, mem, kernel, tick, instret, digest: OnceLock::new() }
    }

    /// The machine configuration at capture time.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Architectural state of the (single) hardware context.
    pub fn arch(&self) -> &ArchState {
        &self.arch
    }

    /// Guest memory and hierarchy configuration.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Kernel state (threads, console, heap break, …).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Simulated time at capture.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Instructions committed at capture.
    pub fn instret(&self) -> u64 {
        self.instret
    }

    fn encode_payload(&self, w: &mut ByteWriter) {
        encode_cpu_kind(self.config.cpu, w);
        w.put_u64(self.config.quantum);
        w.put_u64(self.config.max_ticks);
        w.put_u64(self.config.boot_spin);
        self.arch.encode(w);
        self.mem.encode(w);
        self.kernel.encode(w);
        w.put_u64(self.tick);
        w.put_u64(self.instret);
    }

    fn decode_payload(r: &mut ByteReader<'_>) -> Result<Checkpoint, CodecError> {
        let cpu = decode_cpu_kind(r)?;
        let quantum = r.get_u64()?;
        let max_ticks = r.get_u64()?;
        let boot_spin = r.get_u64()?;
        let arch = ArchState::decode(r)?;
        let mem = MemorySystem::decode(r)?;
        let kernel = Kernel::decode(r)?;
        let tick = r.get_u64()?;
        let instret = r.get_u64()?;
        let mem_config: MemConfig = *mem.config();
        Ok(Checkpoint::new(
            MachineConfig { cpu, mem: mem_config, quantum, max_ticks, boot_spin },
            arch,
            mem,
            kernel,
            tick,
            instret,
        ))
    }

    /// The payload fingerprint this checkpoint would carry in its file
    /// header — the identity the campaign journal records and the resume
    /// path verifies. Computed once and cached (the checkpoint is
    /// immutable); decoding primes the cache from the verified header, so
    /// the resume-validation path never re-encodes the RLE image at all.
    pub fn digest(&self) -> u64 {
        *self.digest.get_or_init(|| {
            let mut w = ByteWriter::new();
            self.encode_payload(&mut w);
            fnv1a(&w.into_bytes())
        })
    }

    /// Reads just the header of a serialized checkpoint, without decoding
    /// (or validating) the payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for short or foreign files.
    pub fn peek_header(bytes: &[u8]) -> Result<CheckpointHeader, CodecError> {
        let mut r = ByteReader::new(bytes);
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(CodecError::InvalidTag { what: "checkpoint magic", value: magic as u64 });
        }
        let version = r.get_u32()?;
        let digest = r.get_u64()?;
        Ok(CheckpointHeader { version, digest })
    }
}

impl Codec for Checkpoint {
    fn encode(&self, w: &mut ByteWriter) {
        let mut pw = ByteWriter::new();
        self.encode_payload(&mut pw);
        let payload = pw.into_bytes();
        // Serializing necessarily re-encodes the payload, so prime (or
        // reuse) the digest cache while the bytes are in hand.
        let digest = *self.digest.get_or_init(|| fnv1a(&payload));
        w.put_u32(MAGIC);
        w.put_u32(VERSION);
        w.put_u64(digest);
        w.put_bytes(&payload);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(CodecError::InvalidTag { what: "checkpoint magic", value: magic as u64 });
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(CodecError::InvalidTag {
                what: "checkpoint version",
                value: version as u64,
            });
        }
        let digest = r.get_u64()?;
        let payload = r.get_bytes()?;
        if fnv1a(payload) != digest {
            return Err(CodecError::InvalidTag { what: "checkpoint digest", value: digest });
        }
        let ckpt = Checkpoint::decode_payload(&mut ByteReader::new(payload))?;
        // The header digest was just verified against the payload — prime
        // the cache so resume validation never re-encodes the image.
        let _ = ckpt.digest.set(digest);
        Ok(ckpt)
    }
}

impl Checkpoint {
    /// Writes the checkpoint to a file (the paper's network-share objects).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// I/O errors, or a [`CodecError`] wrapped as `InvalidData` for corrupt
    /// files.
    pub fn load(path: &std::path::Path) -> std::io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        Checkpoint::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Reads just the header of a checkpoint file (cheap fingerprinting for
    /// resume validation).
    ///
    /// # Errors
    ///
    /// I/O errors, or a [`CodecError`] wrapped as `InvalidData`.
    pub fn load_header(path: &std::path::Path) -> std::io::Result<CheckpointHeader> {
        let mut bytes = [0u8; 16];
        let full = std::fs::read(path)?;
        let n = full.len().min(16);
        bytes[..n].copy_from_slice(&full[..n]);
        Checkpoint::peek_header(&bytes[..n])
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, RunExit};
    use gemfi_asm::{Assembler, Reg};
    use gemfi_cpu::NoopHooks;

    fn checkpointing_machine() -> (Machine<NoopHooks>, Checkpoint) {
        let mut a = Assembler::new();
        a.li(Reg::R1, 7);
        a.fi_read_init();
        a.li(Reg::A0, 3);
        a.pal(gemfi_isa::PalFunc::Exit);
        let p = a.finish().unwrap();
        let cfg = MachineConfig {
            mem: gemfi_mem::MemConfig { phys_size: 4 << 20, ..gemfi_mem::MemConfig::default() },
            ..MachineConfig::default()
        };
        let mut m = Machine::boot(cfg, &p, NoopHooks).unwrap();
        assert_eq!(m.run(), RunExit::CheckpointRequest);
        let c = m.checkpoint();
        (m, c)
    }

    fn assert_equivalent(a: &Checkpoint, b: &Checkpoint) {
        // Cache/stat state restores cold by design, so compare the
        // architecturally observable parts.
        assert_eq!(a.arch(), b.arch());
        assert_eq!(a.kernel(), b.kernel());
        assert_eq!(a.tick(), b.tick());
        assert_eq!(a.instret(), b.instret());
        assert_eq!(a.config(), b.config());
        let size = a.mem().config().phys_size;
        assert_eq!(
            a.mem().read_slice(0, size).unwrap(),
            b.mem().read_slice(0, size).unwrap(),
            "memory images differ"
        );
    }

    #[test]
    fn checkpoint_bytes_roundtrip() {
        let (_, c) = checkpointing_machine();
        let restored = Checkpoint::from_bytes(&c.to_bytes()).unwrap();
        assert_equivalent(&restored, &c);
    }

    #[test]
    fn checkpoint_file_roundtrip() {
        let (_, c) = checkpointing_machine();
        let dir = std::env::temp_dir().join("gemfi-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        c.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_equivalent(&loaded, &c);
        let header = Checkpoint::load_header(&path).unwrap();
        assert_eq!(header.version, VERSION);
        assert_eq!(header.digest, c.digest());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let (_, c) = checkpointing_machine();
        let mut bytes = c.to_bytes();
        bytes[0] ^= 0xff;
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn stale_version_is_rejected() {
        let (_, c) = checkpointing_machine();
        let mut bytes = c.to_bytes();
        bytes[4] = 1; // little-endian version field → v1
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(format!("{err:?}").contains("version"), "{err:?}");
        // The header remains peekable even for rejected versions.
        assert_eq!(Checkpoint::peek_header(&bytes).unwrap().version, 1);
    }

    #[test]
    fn corrupt_payload_fails_the_digest() {
        let (_, c) = checkpointing_machine();
        let mut bytes = c.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(format!("{err:?}").contains("digest"), "{err:?}");
    }

    #[test]
    fn digest_identifies_distinct_checkpoints() {
        let (_, a) = checkpointing_machine();
        let b = Checkpoint::new(
            *a.config(),
            a.arch().clone(),
            a.mem().clone(),
            a.kernel().clone(),
            a.tick() + 1,
            a.instret(),
        );
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), a.clone().digest());
    }

    #[test]
    fn digest_is_cached_and_primed_by_decode() {
        let (_, a) = checkpointing_machine();
        let first = a.digest();
        assert_eq!(first, a.digest(), "memoized digest must be stable");
        // A decoded checkpoint carries the verified header digest already.
        let decoded = Checkpoint::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(decoded.digest.get().copied(), Some(first), "decode must prime the cache");
        assert_eq!(decoded.digest(), first);
    }

    #[test]
    fn restored_machine_finishes_like_the_original() {
        let (mut orig, c) = checkpointing_machine();
        let mut rest = Machine::restore(&c, None, NoopHooks);
        assert_eq!(orig.run(), rest.run());
        assert_eq!(orig.instret(), rest.instret());
    }
}
