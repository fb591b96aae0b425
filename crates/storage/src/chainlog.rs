//! Append-only chain log with a snapshot slot — the durable store
//! behind crash-recoverable chain state (DESIGN.md §5f).
//!
//! The log is a single append-only byte buffer of checksummed frames
//! plus one replaceable snapshot slot. It is chain-agnostic: payloads
//! are opaque byte strings (the chain crate frames blocks+receipt
//! digests and journaled transactions into it), so this crate stays
//! free of consensus types.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! kind: u8 · height: u64 · len: u64 · payload: [u8; len] · fnv1a64(frame bytes): u64
//! ```
//!
//! Recovery reads frames until the buffer ends or a frame fails to
//! parse or checksum — a torn tail from a crash mid-append truncates
//! the log at the last complete frame instead of poisoning it. The
//! simulation keeps the "file" in memory for determinism; the framing,
//! checksums and torn-tail semantics are exactly what an on-disk
//! implementation would need.

/// Frame kind: a journaled transaction awaiting inclusion.
pub const FRAME_TX: u8 = 1;
/// Frame kind: an appended block (payload: block bytes + receipts digest).
pub const FRAME_BLOCK: u8 = 2;

/// One decoded log frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// [`FRAME_TX`] or [`FRAME_BLOCK`].
    pub kind: u8,
    /// Chain height the frame was appended at (block height for block
    /// frames; current tip height for tx frames).
    pub height: u64,
    /// Opaque payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Bytes the frame occupies in the log: header, payload and checksum.
    pub fn encoded_len(&self) -> usize {
        1 + 8 + 8 + self.payload.len() + 8
    }
}

/// FNV-1a 64-bit — cheap, deterministic frame checksum (not
/// cryptographic; integrity against torn writes, not adversaries — the
/// chain re-validates everything it replays).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The append-only log plus snapshot slot.
#[derive(Clone, Debug, Default)]
pub struct ChainLog {
    log: Vec<u8>,
    snapshot: Option<(u64, Vec<u8>)>,
}

/// Result of scanning the log: the complete frames, and whether a torn
/// or corrupt tail was dropped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanResult {
    /// Every frame up to the first damage (or the end).
    pub frames: Vec<Frame>,
    /// True when trailing bytes were unreadable (crash mid-append or
    /// corruption) and recovery stopped early.
    pub truncated: bool,
}

impl ChainLog {
    /// An empty log.
    pub fn new() -> ChainLog {
        ChainLog::default()
    }

    /// Appends one frame.
    pub fn append(&mut self, kind: u8, height: u64, payload: &[u8]) {
        let start = self.log.len();
        self.log.push(kind);
        self.log.extend_from_slice(&height.to_le_bytes());
        self.log
            .extend_from_slice(&(payload.len() as u64).to_le_bytes());
        self.log.extend_from_slice(payload);
        let sum = fnv1a64(&self.log[start..]);
        self.log.extend_from_slice(&sum.to_le_bytes());
    }

    /// Reads every complete frame, stopping at the first torn or
    /// corrupt one.
    pub fn scan(&self) -> ScanResult {
        let mut frames = Vec::new();
        let buf = &self.log;
        let mut pos = 0usize;
        while pos < buf.len() {
            let start = pos;
            // kind + height + len header
            if buf.len() - pos < 1 + 8 + 8 {
                return ScanResult {
                    frames,
                    truncated: true,
                };
            }
            let kind = buf[pos];
            pos += 1;
            let height = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
            pos += 8;
            let len = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap()) as usize;
            pos += 8;
            // Overflow-safe: a corrupted length field can be ~u64::MAX, so
            // never compute `len + 8` directly.
            let rest = buf.len() - pos;
            if rest < 8 || rest - 8 < len {
                return ScanResult {
                    frames,
                    truncated: true,
                };
            }
            let payload = buf[pos..pos + len].to_vec();
            pos += len;
            let sum = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
            pos += 8;
            if fnv1a64(&buf[start..pos - 8]) != sum {
                return ScanResult {
                    frames,
                    truncated: true,
                };
            }
            frames.push(Frame {
                kind,
                height,
                payload,
            });
        }
        ScanResult {
            frames,
            truncated: false,
        }
    }

    /// Scans and truncates the raw log to its longest valid frame
    /// prefix, so appends after a torn write go after the last complete
    /// frame instead of extending garbage. Returns the scan of the
    /// surviving prefix.
    pub fn repair(&mut self) -> ScanResult {
        let scan = self.scan();
        if scan.truncated {
            self.keep_prefix(&scan.frames);
        }
        scan
    }

    /// Truncates the raw log to `kept`, a prefix of the frames its scan
    /// returns: every later frame is dropped, the snapshot slot stays.
    pub fn keep_prefix(&mut self, kept: &[Frame]) {
        self.log.truncate(kept.iter().map(Frame::encoded_len).sum());
    }

    /// Replaces the snapshot slot (an on-disk store would write to a
    /// temp file and rename, making the swap atomic).
    pub fn write_snapshot(&mut self, height: u64, bytes: Vec<u8>) {
        self.snapshot = Some((height, bytes));
    }

    /// The current snapshot, if one was written.
    pub fn snapshot(&self) -> Option<(u64, &[u8])> {
        self.snapshot.as_ref().map(|(h, b)| (*h, b.as_slice()))
    }

    /// Log size in bytes (for bench reporting).
    pub fn log_bytes(&self) -> usize {
        self.log.len()
    }

    /// Drops trailing bytes of the raw log, simulating a crash mid-
    /// append (test/chaos helper).
    pub fn truncate_tail(&mut self, drop_bytes: usize) {
        let keep = self.log.len().saturating_sub(drop_bytes);
        self.log.truncate(keep);
    }

    /// Flips one bit of the raw log (test/chaos helper).
    pub fn corrupt_bit(&mut self, byte_index: usize, bit: u8) {
        if let Some(b) = self.log.get_mut(byte_index) {
            *b ^= 1 << (bit & 7);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> ChainLog {
        let mut log = ChainLog::new();
        log.append(FRAME_TX, 0, b"tx-one");
        log.append(FRAME_BLOCK, 1, b"block-one");
        log.append(FRAME_TX, 1, b"");
        log.append(FRAME_BLOCK, 2, &[0xAB; 300]);
        log
    }

    #[test]
    fn roundtrip_scan() {
        let log = filled();
        let scan = log.scan();
        assert!(!scan.truncated);
        assert_eq!(scan.frames.len(), 4);
        assert_eq!(
            scan.frames[0],
            Frame {
                kind: FRAME_TX,
                height: 0,
                payload: b"tx-one".to_vec()
            }
        );
        assert_eq!(scan.frames[2].payload, Vec::<u8>::new());
        assert_eq!(scan.frames[3].payload.len(), 300);
    }

    #[test]
    fn torn_tail_truncates_to_last_complete_frame() {
        for drop in 1..40 {
            let mut log = filled();
            log.truncate_tail(drop);
            let scan = log.scan();
            assert!(scan.truncated, "drop={drop}");
            assert_eq!(
                scan.frames.len(),
                3,
                "drop={drop} keeps the complete prefix"
            );
        }
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let clean = filled().scan();
        // Flip one bit in each frame region; scanning must never panic
        // and never return a frame with silently altered content.
        let total = filled().log_bytes();
        for i in 0..total {
            let mut log = filled();
            log.corrupt_bit(i, i as u8 % 8);
            let scan = log.scan();
            assert!(scan.frames.len() <= clean.frames.len());
            for (got, want) in scan.frames.iter().zip(&clean.frames) {
                assert_eq!(got, want, "byte {i}: prefix frames must be intact");
            }
        }
    }

    #[test]
    fn corrupt_length_field_cannot_overallocate() {
        let mut log = ChainLog::new();
        log.append(FRAME_TX, 0, b"x");
        // Force the len field to an absurd value; scan must just stop.
        for b in 9..17 {
            log.log[b] = 0xFF;
        }
        let scan = log.scan();
        assert!(scan.truncated);
        assert!(scan.frames.is_empty());
    }

    #[test]
    fn repair_truncates_then_appends_cleanly() {
        let mut log = filled();
        log.truncate_tail(5);
        let scan = log.repair();
        assert!(scan.truncated);
        assert_eq!(scan.frames.len(), 3);
        // Appending after repair yields a clean log again.
        log.append(FRAME_BLOCK, 2, b"replacement");
        let scan = log.scan();
        assert!(!scan.truncated);
        assert_eq!(scan.frames.len(), 4);
        assert_eq!(scan.frames[3].payload, b"replacement".to_vec());
    }

    #[test]
    fn keep_prefix_drops_later_frames_and_keeps_the_snapshot() {
        let mut log = filled();
        log.write_snapshot(1, vec![7]);
        let frames = log.scan().frames;
        log.keep_prefix(&frames[..2]);
        assert_eq!(log.scan().frames, frames[..2]);
        assert_eq!(log.snapshot(), Some((1, &[7u8][..])));
        log.append(FRAME_TX, 2, b"after");
        assert_eq!(log.scan().frames[2].payload, b"after".to_vec());
    }

    #[test]
    fn snapshot_slot_replaces() {
        let mut log = ChainLog::new();
        assert_eq!(log.snapshot(), None);
        log.write_snapshot(5, vec![1, 2, 3]);
        log.write_snapshot(9, vec![4]);
        assert_eq!(log.snapshot(), Some((9, &[4u8][..])));
    }
}
