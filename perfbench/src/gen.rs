//! Seeded inputs: every payload byte, object size and read-back offset a
//! workload uses comes from here, as a pure function of the `--seed`.
//!
//! Generating fresh random bytes for every operation would put the
//! generator on the measured path, so each workload draws its payloads
//! from a small seeded pool and stamps every payload with a 16-byte
//! header naming its client and sequence number. Payloads are therefore
//! distinct per operation while costing one copy to build.

/// SplitMix64: tiny, fast and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`, e.g. one per client.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Bytes of the per-payload header (`client`, `seq`).
pub const HEADER: usize = 16;

/// A seeded pool of random bytes that payloads are cut from.
#[derive(Debug, Clone)]
pub struct Pool {
    bytes: Vec<u8>,
}

impl Pool {
    pub fn new(seed: u64, len: usize) -> Pool {
        let mut bytes = vec![0u8; len];
        Rng::stream(seed, u64::MAX).fill(&mut bytes);
        Pool { bytes }
    }

    /// Write the payload `(client, seq, pool_off)` of `out.len()` bytes.
    pub fn payload_into(&self, client: u64, seq: u64, pool_off: usize, out: &mut [u8]) {
        let len = out.len();
        out.copy_from_slice(&self.bytes[pool_off..pool_off + len]);
        let mut head = [0u8; HEADER];
        head[..8].copy_from_slice(&client.to_le_bytes());
        head[8..].copy_from_slice(&seq.to_le_bytes());
        let n = HEADER.min(len);
        out[..n].copy_from_slice(&head[..n]);
    }

    pub fn payload(&self, client: u64, seq: u64, pool_off: usize, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.payload_into(client, seq, pool_off, &mut out);
        out
    }
}

/// One client operation of a plan, as the determinism check sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Write `len` bytes at `offset` whose pool cut starts at `pool_off`.
    Write { seq: u64, offset: u64, len: usize, pool_off: usize },
    /// Read back `len` bytes at `offset` and compare.
    Read { offset: u64, len: usize },
}

/// `repl_wal_tcp`: a client's stream of 64 KB writes into a ring of slots
/// of its own object; every fourth operation reads back a seeded slot
/// written earlier. The ring bounds memory: the store keeps objects in RAM.
#[derive(Debug, Clone)]
pub struct ReplPlan {
    rng: Rng,
    i: u64,
    writes: u64,
    pub chunk: usize,
    pub slots: u64,
    pool_len: usize,
}

impl ReplPlan {
    pub const CHUNK: usize = 64 * 1024;
    pub const SLOTS: u64 = 96;
    pub const POOL: usize = 4 * 64 * 1024;

    pub fn new(seed: u64, client: u64) -> ReplPlan {
        ReplPlan {
            rng: Rng::stream(seed, client),
            i: 0,
            writes: 0,
            chunk: Self::CHUNK,
            slots: Self::SLOTS,
            pool_len: Self::POOL,
        }
    }

    pub fn next_op(&mut self) -> PlanOp {
        let i = self.i;
        self.i += 1;
        if i % 4 == 3 {
            let written = self.writes.min(self.slots);
            let slot = self.rng.below(written);
            PlanOp::Read { offset: slot * self.chunk as u64, len: self.chunk }
        } else {
            let seq = self.writes;
            self.writes += 1;
            let slot = seq % self.slots;
            let pool_off = self.rng.below((self.pool_len - self.chunk) as u64 + 1) as usize;
            PlanOp::Write { seq, offset: slot * self.chunk as u64, len: self.chunk, pool_off }
        }
    }
}

/// `small_obj_signed`: one create → write → getattr → read → remove loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallLoop {
    pub seq: u64,
    pub len: usize,
    pub pool_off: usize,
    /// Read-back range inside the written object.
    pub read_off: usize,
    pub read_len: usize,
}

#[derive(Debug, Clone)]
pub struct SmallPlan {
    rng: Rng,
    seq: u64,
}

impl SmallPlan {
    pub const MIN: usize = 1024;
    pub const MAX: usize = 16 * 1024;
    pub const POOL: usize = 64 * 1024;

    pub fn new(seed: u64, client: u64) -> SmallPlan {
        SmallPlan { rng: Rng::stream(seed, 0x5A11 + client), seq: 0 }
    }

    pub fn next_loop(&mut self) -> SmallLoop {
        let seq = self.seq;
        self.seq += 1;
        let len = self.rng.between(Self::MIN as u64, Self::MAX as u64) as usize;
        let pool_off = self.rng.below((Self::POOL - len) as u64 + 1) as usize;
        let read_off = self.rng.below(len as u64 / 2) as usize;
        let read_len = self.rng.between(1, (len - read_off) as u64) as usize;
        SmallLoop { seq, len, pool_off, read_off, read_len }
    }
}

/// `ckpt_restore`: each epoch rewrites a seeded window of a rank's state,
/// as a simulation step would, so every checkpoint differs from the last.
#[derive(Debug, Clone)]
pub struct CkptPlan {
    rng: Rng,
    pub state: Vec<u8>,
}

impl CkptPlan {
    pub const STATE: usize = 2 << 20;
    pub const WINDOW: usize = 4096;

    pub fn new(seed: u64, rank: u64) -> CkptPlan {
        let mut state = vec![0u8; Self::STATE];
        Rng::stream(seed, 0xC4B7 + rank).fill(&mut state);
        CkptPlan { rng: Rng::stream(seed, 0xE90C + rank), state }
    }

    /// Advance the state to `epoch`.
    pub fn step(&mut self, epoch: u64) {
        let off = self.rng.below((Self::STATE - Self::WINDOW) as u64 + 1) as usize;
        let mut fill = Rng::stream(epoch, off as u64);
        fill.fill(&mut self.state[off..off + Self::WINDOW]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::stream(7, 0);
        assert!((0..1000).all(|_| r.below(13) < 13));
        assert!((0..1000).all(|_| (3..=9).contains(&r.between(3, 9))));
    }

    #[test]
    fn reads_only_target_written_slots() {
        let mut p = ReplPlan::new(1, 0);
        let mut written = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            match p.next_op() {
                PlanOp::Write { offset, .. } => {
                    written.insert(offset);
                }
                PlanOp::Read { offset, .. } => assert!(written.contains(&offset)),
            }
        }
    }
}
