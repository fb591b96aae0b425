//! Persist: journal frames, state snapshots and crash recovery.

use super::Blockchain;
use crate::block::{receipts_digest, Block};
use crate::state::WorldState;
use crate::tx::SignedTransaction;
use parking_lot::Mutex;
use pds2_crypto::codec::{Decode, Decoder, Encode, Encoder};
use pds2_crypto::sha256::Digest;
use pds2_storage::chainlog::{ChainLog, FRAME_BLOCK, FRAME_TX};
use std::sync::Arc;

impl Blockchain {
    /// Attaches a durable store. Blocks the log does not yet hold are
    /// backfilled, then every produced/applied block (and admitted
    /// transaction) is appended as it happens, with a full state
    /// snapshot every `snapshot_every` blocks.
    pub fn attach_store(&mut self, store: Arc<Mutex<ChainLog>>, snapshot_every: u64) {
        {
            let mut log = store.lock();
            let persisted = log
                .scan()
                .frames
                .iter()
                .filter(|f| f.kind == FRAME_BLOCK)
                .count();
            for block in self.blocks.iter().skip(persisted) {
                self.journal_block(&mut log, block);
            }
        }
        self.store = Some(store);
        self.snapshot_every = snapshot_every;
        self.maybe_snapshot();
    }

    /// Starts `store` over from this chain. Fork choice swaps in a chain
    /// rebuilt from genesis, and the journal of the abandoned fork must
    /// not outlive it: a crash would otherwise restore the orphaned head.
    pub(crate) fn restart_store(&mut self, store: Arc<Mutex<ChainLog>>, snapshot_every: u64) {
        *store.lock() = ChainLog::new();
        self.attach_store(store, snapshot_every);
    }

    /// Appends `block`'s frame: block bytes + the digest of its receipts
    /// (which must already be recorded).
    pub(super) fn journal_block(&self, log: &mut ChainLog, block: &Block) {
        let mut enc = Encoder::new();
        enc.put_bytes(&block.to_bytes());
        enc.put_digest(&self.stored_receipts_digest(block));
        log.append(FRAME_BLOCK, block.header.height, &enc.finish());
    }

    fn decode_block_frame(payload: &[u8]) -> Option<(Block, Digest)> {
        let mut dec = Decoder::new(payload);
        let block = Block::from_bytes(&dec.get_bytes().ok()?).ok()?;
        let digest = dec.get_digest().ok()?;
        dec.expect_end().ok()?;
        Some((block, digest))
    }

    /// Appends an admitted transaction's frame (no-op without a store).
    pub(super) fn journal_tx(&self, tx_bytes: &[u8]) {
        if let Some(store) = &self.store {
            store.lock().append(FRAME_TX, self.height(), tx_bytes);
        }
    }

    /// Receipts digest of a block from the chain's receipt map.
    fn stored_receipts_digest(&self, block: &Block) -> Digest {
        receipts_digest(
            block
                .transactions
                .iter()
                .filter_map(|tx| self.receipts.get(&tx.hash())),
        )
    }

    pub(super) fn maybe_snapshot(&mut self) {
        if self.snapshot_every == 0
            || self.height() == 0
            || !self.height().is_multiple_of(self.snapshot_every)
        {
            return;
        }
        let Some(store) = &self.store else { return };
        let height = self.height();
        let bytes = self.snapshot_bytes();
        store.lock().write_snapshot(height, bytes);
        pds2_obs::counter!("chain.snapshots_written").inc();
    }

    /// Serializes the chain tip for a recovery snapshot: height, fee
    /// state and the complete world state.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(self.height());
        enc.put_u64(self.next_base_fee);
        self.state.encode_snapshot(&mut enc);
        enc.finish()
    }

    /// Restores the tip state (fee + world state) from snapshot bytes.
    /// Blocks, receipts and events are NOT in the snapshot — the caller
    /// loads the block prefix from the log.
    fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<u64, String> {
        let mut dec = Decoder::new(bytes);
        let height = dec.get_u64().map_err(|e| format!("snapshot: {e:?}"))?;
        let next_base_fee = dec.get_u64().map_err(|e| format!("snapshot: {e:?}"))?;
        let state = WorldState::decode_snapshot(&mut dec, &self.registry)?;
        dec.expect_end().map_err(|e| format!("snapshot: {e:?}"))?;
        self.state = state;
        self.next_base_fee = next_base_fee;
        Ok(height)
    }

    /// Rebuilds a crashed node from its durable store: restore the
    /// latest snapshot (falling back to genesis replay if it is missing
    /// or corrupt), replay the block log from there — re-validating
    /// every block and checking each frame's receipts digest against the
    /// re-derived receipts — then reinstate journaled transactions the
    /// chain does not already include. The log's torn tail, if any, is
    /// truncated first.
    ///
    /// `genesis` must be the same construction the crashed node started
    /// from (validators, allocations, registry, config);
    /// `snapshot_every` re-arms the snapshot cadence going forward.
    pub fn recover_from_store(
        genesis: Blockchain,
        store: Arc<Mutex<ChainLog>>,
        snapshot_every: u64,
    ) -> Blockchain {
        let mut chain = genesis;
        chain.store = None; // no re-journaling while replaying
        let (snapshot, frames) = {
            let mut log = store.lock();
            let scan = log.repair();
            (log.snapshot().map(|(_, b)| b.to_vec()), scan.frames)
        };
        let replay_from = match snapshot.map(|bytes| chain.restore_snapshot(&bytes)) {
            Some(Ok(height)) => height,
            Some(Err(_)) => {
                pds2_obs::counter!("chain.snapshot_restore_failed").inc();
                0
            }
            None => 0,
        };
        for frame in frames.iter().filter(|f| f.kind == FRAME_BLOCK) {
            let decoded = Self::decode_block_frame(&frame.payload);
            if frame.height < replay_from {
                // Snapshot fast path: the block prefix loads raw (no
                // re-execution; pre-snapshot receipts and events are
                // not retained).
                if let Some((block, _)) = decoded {
                    chain
                        .seen
                        .extend(block.transactions.iter().map(|tx| tx.hash()));
                    chain.blocks.push(block);
                }
                continue;
            }
            // The tail replays through full validation + execution. A
            // frame that does not decode, a block that does not apply, or
            // receipts that differ from the pre-crash execution mean the
            // log is not trustworthy past this point.
            let replayed = decoded.is_some_and(|(block, expected_receipts)| {
                chain.apply_external_block(&block).is_ok()
                    && chain.stored_receipts_digest(&block) == expected_receipts
            });
            if !replayed {
                break;
            }
        }
        // `submit` dedups everything the replayed chain already included
        // (via `seen`).
        chain.reinstate_transactions(
            frames
                .iter()
                .filter(|f| f.kind == FRAME_TX)
                .filter_map(|f| SignedTransaction::from_bytes(&f.payload).ok()),
        );
        pds2_obs::counter!("chain.recoveries").inc();
        // Only now re-arm persistence (attaching earlier would duplicate
        // every replayed frame).
        chain.attach_store(store, snapshot_every);
        chain
    }
}
