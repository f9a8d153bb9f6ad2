//! Deterministic training checkpoints.
//!
//! A [`Checkpoint`] captures everything a rank needs to resume training
//! bit-for-bit: its expert shard, the iteration counter, the digest of
//! the compiled [`crate::plan::IterationPlan`] it was executing, the RNG
//! cursor, and the full [`ExecConfig`]. Everything else a worker holds —
//! gates, inputs, scratch buffers — is a pure deterministic function of
//! the config, so restoring the shard and replaying from the captured
//! iteration reproduces the fault-free trajectory exactly.
//!
//! The wire format is versioned, little-endian, and checksummed:
//!
//! ```text
//! magic   "JCK1"            4 bytes
//! version u32               (version u16 in the high half, flags u16 low)
//! rank    u32               world u32
//! iter    u64               (iterations completed when captured)
//! plan_digest u64           (FNV of the compiled IterationPlan)
//! rng_cursor  u64           (base seed; all live randomness derives
//!                            from it at init, so the cursor IS the seed)
//! cfg     binary fields     (ExecConfig field by field, for mismatch
//!                            detection; u32/u64 values plus the f32
//!                            learning rate as raw bits — JSON would
//!                            round u64 seeds through f64)
//! blocks  u32
//!   per block:  u32 n       (local experts)
//!     per expert: u32 len + expert blob (weights.rs layout)
//! opt     u8 kind + u32 len + bytes   (kind 0 = plain SGD, no state)
//! placement (only when flags bit 0 is set):
//!         epoch u64 + world u32 + live u8×world
//!         blocks u32, per block: u32 n + owner u32×n
//! checksum u64              (FNV-1a over every preceding byte)
//! ```
//!
//! The placement section exists only for runs whose expert→rank table
//! has diverged from the default balanced layout (elastic migration,
//! §DESIGN 15). A default-placement checkpoint sets no flag and emits
//! no section, so every pre-elastic checkpoint byte stream — and its
//! checksum — is unchanged.
//!
//! The checksum is verified *before* any field is parsed, so a corrupted
//! checkpoint is rejected with a clear [`CkptError::Checksum`] instead of
//! a confusing decode error (or, worse, silently wrong weights).

use crate::exec::model::{ExecConfig, WorkerState};
use crate::exec::obs;
use crate::exec::weights::{expert_from_bytes, expert_to_bytes};
use crate::placement::Placement;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use janus_moe::expert::ExpertFfn;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

const MAGIC: &[u8; 4] = b"JCK1";
const VERSION: u16 = 1;
/// Flags bit 0: a placement section follows the optimizer state.
const FLAG_PLACEMENT: u16 = 0x1;
/// Optimizer-state kind tag: plain SGD carries no state.
const OPT_SGD: u8 = 0;

/// Why a checkpoint could not be loaded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The blob is shorter than the field being read.
    Truncated(String),
    /// The stored checksum does not match the bytes. The checkpoint is
    /// corrupt; refusing to load it.
    Checksum { stored: u64, computed: u64 },
    /// The blob does not start with the `JCK1` magic.
    BadMagic,
    /// The format version is newer than this build understands.
    Version(u16),
    /// A field failed to decode after the checksum passed.
    Decode(String),
    /// The checkpoint is valid but does not belong to this worker
    /// (different config, rank, or plan).
    Mismatch(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Truncated(what) => write!(f, "checkpoint truncated: {what}"),
            CkptError::Checksum { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, \
                 computed {computed:#018x}; refusing to load corrupt state"
            ),
            CkptError::BadMagic => write!(f, "not a checkpoint: bad magic (want \"JCK1\")"),
            CkptError::Version(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::Decode(what) => write!(f, "checkpoint decode failed: {what}"),
            CkptError::Mismatch(what) => write!(f, "checkpoint does not match worker: {what}"),
        }
    }
}

impl std::error::Error for CkptError {}

/// FNV-1a 64-bit over `bytes` — the same cheap, dependency-free digest
/// the plan compiler uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A full per-rank training snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Which rank this snapshot belongs to.
    pub rank: u32,
    /// World size when captured (guards against topology changes).
    pub world: u32,
    /// Iterations completed when this snapshot was taken: resuming from
    /// it means the next iteration to run is `iter`.
    pub iter: u64,
    /// Digest of the compiled [`crate::plan::IterationPlan`] the run was
    /// executing — a restored rank must execute the same plan.
    pub plan_digest: u64,
    /// RNG cursor. The engines hold no live RNG between iterations
    /// (every stochastic quantity is derived from the seed at init), so
    /// the cursor is the base seed itself; it is stored explicitly so a
    /// format reader never needs that invariant to interpret the file.
    pub rng_cursor: u64,
    /// The run configuration (for mismatch detection on restore).
    pub cfg: ExecConfig,
    /// Expert→rank table when it has diverged from the default balanced
    /// layout (elastic migration); `None` for the default placement, so
    /// pre-elastic checkpoints encode byte-identically.
    pub placement: Option<Placement>,
    /// Owned expert shard: `experts[block][local_index]`, local order =
    /// ascending global expert id under the captured placement.
    pub experts: Vec<Vec<ExpertFfn>>,
}

impl Checkpoint {
    /// Snapshot `state` after it completed `iter` iterations of the plan
    /// with digest `plan_digest`.
    pub fn capture(state: &WorkerState, iter: u64, plan_digest: u64) -> Checkpoint {
        let placement = if state.placement.is_default() {
            None
        } else {
            Some((*state.placement).clone())
        };
        Checkpoint {
            rank: state.rank as u32,
            world: state.cfg.world() as u32,
            iter,
            plan_digest,
            rng_cursor: state.cfg.seed,
            cfg: state.cfg.clone(),
            placement,
            experts: state.experts.clone(),
        }
    }

    /// The expert→rank table this snapshot was captured under: the
    /// stored one, or the config's default balanced layout.
    pub fn effective_placement(&self) -> Placement {
        self.placement
            .clone()
            .unwrap_or_else(|| WorkerState::balanced_placement(&self.cfg))
    }

    /// Apply this snapshot to `state`, which must have been initialized
    /// for the same config and rank (everything outside the expert shard
    /// is already a deterministic function of the config).
    pub fn restore(&self, state: &mut WorkerState) -> Result<(), CkptError> {
        if self.cfg != state.cfg {
            return Err(CkptError::Mismatch(format!(
                "config differs (checkpoint seed {}, worker seed {})",
                self.cfg.seed, state.cfg.seed
            )));
        }
        if self.rank as usize != state.rank {
            return Err(CkptError::Mismatch(format!(
                "checkpoint is for rank {}, worker is rank {}",
                self.rank, state.rank
            )));
        }
        if self.world as usize != state.cfg.world() {
            return Err(CkptError::Mismatch(format!(
                "checkpoint world {} != worker world {}",
                self.world,
                state.cfg.world()
            )));
        }
        let placement = self.effective_placement();
        if *state.placement != placement {
            return Err(CkptError::Mismatch(format!(
                "placement differs (checkpoint epoch {} digest {:#018x}, worker epoch {} \
                 digest {:#018x})",
                placement.epoch,
                placement.digest(),
                state.placement.epoch,
                state.placement.digest()
            )));
        }
        for (b, shard) in self.experts.iter().enumerate() {
            let want = placement.owned_in(b, state.rank).len();
            if shard.len() != want {
                return Err(CkptError::Mismatch(format!(
                    "block {b}: checkpoint holds {} local experts, placement expects {want}",
                    shard.len()
                )));
            }
        }
        state.experts = self.experts.clone();
        Ok(())
    }

    /// Serialize to the versioned, checksummed wire format. Encoding the
    /// same snapshot always yields the same bytes (field order is fixed
    /// and every field — including the embedded config — is binary, not
    /// text), which is what makes `save(load(x)) == x` bitwise.
    pub fn to_bytes(&self) -> Bytes {
        let span = obs::span(self.rank as usize, "ckpt", || {
            (
                format!("ckpt_save/r{}/i{}", self.rank, self.iter),
                "ckpt".to_string(),
            )
        });
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        let flags = if self.placement.is_some() {
            FLAG_PLACEMENT
        } else {
            0
        };
        buf.put_u32(((VERSION as u32) << 16) | flags as u32); // version high, flags low
        buf.put_u32(self.rank);
        buf.put_u32(self.world);
        buf.put_u64(self.iter);
        buf.put_u64(self.plan_digest);
        buf.put_u64(self.rng_cursor);
        put_cfg(&mut buf, &self.cfg);
        buf.put_u32(self.experts.len() as u32);
        for shard in &self.experts {
            buf.put_u32(shard.len() as u32);
            for expert in shard {
                let blob = expert_to_bytes(expert);
                buf.put_u32(blob.len() as u32);
                buf.put_slice(&blob);
            }
        }
        buf.put_u8(OPT_SGD);
        buf.put_u32(0); // plain SGD carries no optimizer state
        if let Some(p) = &self.placement {
            put_placement(&mut buf, p);
        }
        let checksum = fnv1a(buf.as_ref());
        buf.put_u64(checksum);
        let out = buf.freeze();
        janus_obs::global().count("janus_ckpt_bytes_written_total", out.len() as u64);
        obs::end_into(span, "janus_ckpt_save_us");
        out
    }

    /// Parse the wire format, verifying the checksum over the whole blob
    /// *before* interpreting any field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        // Rank lives at a fixed offset; peek it (pre-checksum) only to
        // label the load span.
        let span_rank = if bytes.len() >= 12 {
            u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize
        } else {
            0
        };
        let span = obs::span(span_rank, "ckpt", || {
            (format!("ckpt_load/r{span_rank}"), "ckpt".to_string())
        });
        let ckpt = Self::parse(bytes)?;
        janus_obs::global().count("janus_ckpt_bytes_read_total", bytes.len() as u64);
        obs::end_into(span, "janus_ckpt_load_us");
        Ok(ckpt)
    }

    fn parse(bytes: &[u8]) -> Result<Checkpoint, CkptError> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(CkptError::Truncated(format!(
                "{} bytes is too short to hold even the header and checksum",
                bytes.len()
            )));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_be_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(CkptError::Checksum { stored, computed });
        }
        let mut buf = Bytes::from(body.to_vec());
        let need = |buf: &Bytes, n: usize, what: &str| {
            if buf.remaining() < n {
                Err(CkptError::Truncated(format!("{what}: need {n} more bytes")))
            } else {
                Ok(())
            }
        };
        need(&buf, 4, "magic")?;
        if buf.split_to(4).as_ref() != MAGIC {
            return Err(CkptError::BadMagic);
        }
        need(&buf, 4, "version")?;
        let word = buf.get_u32();
        let version = (word >> 16) as u16;
        let flags = word as u16;
        if version != VERSION {
            return Err(CkptError::Version(version));
        }
        need(&buf, 32, "header")?;
        let rank = buf.get_u32();
        let world = buf.get_u32();
        let iter = buf.get_u64();
        let plan_digest = buf.get_u64();
        let rng_cursor = buf.get_u64();
        let cfg = get_cfg(&mut buf)?;
        need(&buf, 4, "block count")?;
        let blocks = buf.get_u32() as usize;
        let mut experts = Vec::with_capacity(blocks);
        for b in 0..blocks {
            need(&buf, 4, "shard size")?;
            let n = buf.get_u32() as usize;
            let mut shard = Vec::with_capacity(n);
            for e in 0..n {
                need(&buf, 4, "expert blob length")?;
                let len = buf.get_u32() as usize;
                need(&buf, len, "expert blob")?;
                let expert = expert_from_bytes(buf.split_to(len))
                    .map_err(|err| CkptError::Decode(format!("block {b} expert {e}: {err}")))?;
                shard.push(expert);
            }
            experts.push(shard);
        }
        need(&buf, 5, "optimizer section")?;
        let opt_kind = buf.get_u8();
        if opt_kind != OPT_SGD {
            return Err(CkptError::Decode(format!(
                "unknown optimizer-state kind {opt_kind}"
            )));
        }
        let opt_len = buf.get_u32() as usize;
        need(&buf, opt_len, "optimizer state")?;
        buf.advance(opt_len);
        let placement = if flags & FLAG_PLACEMENT != 0 {
            Some(get_placement(&mut buf)?)
        } else {
            None
        };
        if buf.has_remaining() {
            return Err(CkptError::Decode(format!(
                "{} trailing bytes at end of checkpoint",
                buf.remaining()
            )));
        }
        Ok(Checkpoint {
            rank,
            world,
            iter,
            plan_digest,
            rng_cursor,
            cfg,
            placement,
            experts,
        })
    }
}

/// Append `cfg` to the wire buffer field by field. Binary on purpose:
/// a JSON detour would round u64 seeds through f64 and corrupt them.
fn put_cfg(buf: &mut BytesMut, cfg: &ExecConfig) {
    buf.put_u32(cfg.machines as u32);
    buf.put_u32(cfg.gpus_per_machine as u32);
    buf.put_u32(cfg.hidden_dim as u32);
    buf.put_u32(cfg.blocks as u32);
    buf.put_u32(cfg.experts as u32);
    buf.put_u32(cfg.experts_per_block.len() as u32);
    for &e in &cfg.experts_per_block {
        buf.put_u32(e as u32);
    }
    buf.put_u32(cfg.top_k as u32);
    buf.put_u32(cfg.tokens as u32);
    buf.put_u64(cfg.seed);
    buf.put_u32(cfg.lr.to_bits());
}

/// Inverse of [`put_cfg`].
fn get_cfg(buf: &mut Bytes) -> Result<ExecConfig, CkptError> {
    let need = |buf: &Bytes, n: usize, what: &str| {
        if buf.remaining() < n {
            Err(CkptError::Truncated(format!(
                "config {what}: need {n} more bytes"
            )))
        } else {
            Ok(())
        }
    };
    need(buf, 24, "fixed fields")?;
    let machines = buf.get_u32() as usize;
    let gpus_per_machine = buf.get_u32() as usize;
    let hidden_dim = buf.get_u32() as usize;
    let blocks = buf.get_u32() as usize;
    let experts = buf.get_u32() as usize;
    let n_per_block = buf.get_u32() as usize;
    need(buf, n_per_block * 4, "per-block expert counts")?;
    let experts_per_block = (0..n_per_block).map(|_| buf.get_u32() as usize).collect();
    need(buf, 20, "trailing fields")?;
    let top_k = buf.get_u32() as usize;
    let tokens = buf.get_u32() as usize;
    let seed = buf.get_u64();
    let lr = f32::from_bits(buf.get_u32());
    Ok(ExecConfig {
        machines,
        gpus_per_machine,
        hidden_dim,
        blocks,
        experts,
        experts_per_block,
        top_k,
        tokens,
        seed,
        lr,
    })
}

/// Append the placement table to the wire buffer: epoch, world, live
/// flags, then per-block owner vectors.
fn put_placement(buf: &mut BytesMut, p: &Placement) {
    buf.put_u64(p.epoch);
    buf.put_u32(p.world() as u32);
    for &alive in &p.live {
        buf.put_u8(alive as u8);
    }
    buf.put_u32(p.owners.len() as u32);
    for block in &p.owners {
        buf.put_u32(block.len() as u32);
        for &o in block {
            buf.put_u32(o);
        }
    }
}

/// Inverse of [`put_placement`].
fn get_placement(buf: &mut Bytes) -> Result<Placement, CkptError> {
    let need = |buf: &Bytes, n: usize, what: &str| {
        if buf.remaining() < n {
            Err(CkptError::Truncated(format!(
                "placement {what}: need {n} more bytes"
            )))
        } else {
            Ok(())
        }
    };
    need(buf, 12, "header")?;
    let epoch = buf.get_u64();
    let world = buf.get_u32() as usize;
    need(buf, world, "live flags")?;
    let live: Vec<bool> = (0..world).map(|_| buf.get_u8() != 0).collect();
    need(buf, 4, "block count")?;
    let blocks = buf.get_u32() as usize;
    let mut owners = Vec::with_capacity(blocks);
    for b in 0..blocks {
        need(buf, 4, "owner count")?;
        let n = buf.get_u32() as usize;
        need(buf, n * 4, "owner vector")?;
        let block: Vec<u32> = (0..n).map(|_| buf.get_u32()).collect();
        if let Some(&bad) = block.iter().find(|&&o| o as usize >= world) {
            return Err(CkptError::Decode(format!(
                "placement block {b}: owner {bad} out of range for world {world}"
            )));
        }
        owners.push(block);
    }
    Ok(Placement {
        epoch,
        owners,
        live,
    })
}

/// An in-memory checkpoint store keyed by `(rank, iter)` — the moral
/// equivalent of a checkpoint directory, holding the encoded blobs the
/// round driver commits and restores from.
#[derive(Default)]
pub struct CkptStore {
    inner: Mutex<HashMap<(usize, u64), Bytes>>,
}

impl CkptStore {
    /// Empty store.
    pub fn new() -> Self {
        CkptStore::default()
    }

    /// Commit one rank's checkpoint bytes for iteration cut `iter`.
    pub fn put(&self, rank: usize, iter: u64, bytes: Bytes) {
        self.inner.lock().insert((rank, iter), bytes);
    }

    /// The stored blob for `(rank, iter)`, if any.
    pub fn get(&self, rank: usize, iter: u64) -> Option<Bytes> {
        self.inner.lock().get(&(rank, iter)).cloned()
    }

    /// The most recent iteration cut for which *every* rank of a
    /// `world`-sized mesh has a checkpoint — the only cuts that are safe
    /// to restore a run from.
    pub fn latest_full_cut(&self, world: usize) -> Option<u64> {
        let map = self.inner.lock();
        map.keys()
            .map(|&(_, iter)| iter)
            .filter(|&iter| (0..world).all(|r| map.contains_key(&(r, iter))))
            .max()
    }

    /// Number of stored blobs.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when nothing has been committed.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Total bytes held across all blobs.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().values().map(|b| b.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rank: usize) -> (WorkerState, Checkpoint) {
        let cfg = ExecConfig::small();
        let state = WorkerState::init(&cfg, rank);
        let ckpt = Checkpoint::capture(&state, 3, 0xDEAD_BEEF);
        (state, ckpt)
    }

    #[test]
    fn roundtrip_is_bitwise_identical() {
        let (_, ckpt) = sample(1);
        let bytes = ckpt.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        // save(load(x)) == x at the byte level, not just structurally.
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn restore_replaces_the_expert_shard() {
        let (mut state, ckpt) = sample(0);
        // Perturb the live shard, then restore.
        state.experts[0][0].b1[0] += 1.0;
        assert_ne!(state.experts, ckpt.experts);
        ckpt.restore(&mut state).unwrap();
        assert_eq!(state.experts, ckpt.experts);
    }

    #[test]
    fn corrupted_byte_is_rejected_by_checksum() {
        let (_, ckpt) = sample(0);
        let mut bytes = ckpt.to_bytes().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, CkptError::Checksum { .. }),
            "want checksum rejection, got {err}"
        );
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let (_, ckpt) = sample(0);
        let bytes = ckpt.to_bytes();
        let err = Checkpoint::from_bytes(&bytes[..10]).unwrap_err();
        assert!(matches!(err, CkptError::Truncated(_)), "{err}");
    }

    #[test]
    fn wrong_rank_restore_is_a_mismatch() {
        let (_, ckpt) = sample(0);
        let cfg = ExecConfig::small();
        let mut other = WorkerState::init(&cfg, 1);
        let err = ckpt.restore(&mut other).unwrap_err();
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn wrong_config_restore_is_a_mismatch() {
        let (_, ckpt) = sample(0);
        let cfg = ExecConfig {
            seed: 1234,
            ..ExecConfig::small()
        };
        let mut other = WorkerState::init(&cfg, 0);
        let err = ckpt.restore(&mut other).unwrap_err();
        assert!(matches!(err, CkptError::Mismatch(_)), "{err}");
    }

    #[test]
    fn default_placement_emits_no_section_and_no_flag() {
        let (_, ckpt) = sample(0);
        assert!(ckpt.placement.is_none());
        let bytes = ckpt.to_bytes();
        // Flags live in the low half of the version word at offset 4.
        let flags = u16::from_be_bytes([bytes[6], bytes[7]]);
        assert_eq!(flags & FLAG_PLACEMENT, 0);
        assert_eq!(ckpt.effective_placement().epoch, 0);
    }

    #[test]
    fn migrated_placement_roundtrips_through_the_wire() {
        let cfg = ExecConfig::small();
        let placement = WorkerState::balanced_placement(&cfg).drain(cfg.world() - 1);
        let state = WorkerState::init_placed(&cfg, 0, placement.clone());
        let ckpt = Checkpoint::capture(&state, 7, 0xBEEF);
        assert_eq!(ckpt.placement.as_ref(), Some(&placement));
        let bytes = ckpt.to_bytes();
        let flags = u16::from_be_bytes([bytes[6], bytes[7]]);
        assert_ne!(flags & FLAG_PLACEMENT, 0);
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.effective_placement(), placement);
    }

    #[test]
    fn placement_mismatch_restore_is_rejected() {
        let cfg = ExecConfig::small();
        let placement = WorkerState::balanced_placement(&cfg).drain(cfg.world() - 1);
        let state = WorkerState::init_placed(&cfg, 0, placement);
        let ckpt = Checkpoint::capture(&state, 7, 0xBEEF);
        // A default-placement worker must not accept a migrated shard.
        let mut fresh = WorkerState::init(&cfg, 0);
        let err = ckpt.restore(&mut fresh).unwrap_err();
        assert!(err.to_string().contains("placement"), "{err}");
    }

    #[test]
    fn store_tracks_full_cuts() {
        let store = CkptStore::new();
        assert!(store.is_empty());
        assert_eq!(store.latest_full_cut(2), None);
        store.put(0, 2, Bytes::from("a"));
        assert_eq!(store.latest_full_cut(2), None, "rank 1 missing at cut 2");
        store.put(1, 2, Bytes::from("bb"));
        assert_eq!(store.latest_full_cut(2), Some(2));
        store.put(0, 4, Bytes::from("c"));
        assert_eq!(store.latest_full_cut(2), Some(2), "cut 4 is partial");
        store.put(1, 4, Bytes::from("d"));
        assert_eq!(store.latest_full_cut(2), Some(4));
        assert_eq!(store.len(), 4);
        assert_eq!(store.total_bytes(), 5);
    }
}
