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

    /// Restores the tip state (fee + world state) from the bytes of the
    /// snapshot slot written at `height`; on error nothing has changed.
    /// Blocks, receipts and events are NOT in the snapshot — the caller
    /// loads the block prefix from the log.
    fn restore_snapshot(&mut self, height: u64, bytes: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(bytes);
        if dec.get_u64().map_err(|e| format!("snapshot: {e:?}"))? != height {
            return Err("snapshot: height differs from its slot's".into());
        }
        let next_base_fee = dec.get_u64().map_err(|e| format!("snapshot: {e:?}"))?;
        let state = WorldState::decode_snapshot(&mut dec, &self.registry, self.state.backend())?;
        dec.expect_end().map_err(|e| format!("snapshot: {e:?}"))?;
        self.state = state;
        self.next_base_fee = next_base_fee;
        Ok(())
    }

    /// Rebuilds a crashed node from its durable store: restore the
    /// latest snapshot if the log still holds a decodable block for
    /// every height below it (falling back to genesis replay if it is
    /// missing or corrupt, or if damage truncated the log beneath it —
    /// the state of height `H` must never sit under a shorter chain),
    /// replay the block log from there — re-validating every block and
    /// checking each frame's receipts digest against the re-derived
    /// receipts — then reinstate journaled transactions the chain does
    /// not already include. The log's torn tail, if any, is truncated
    /// first.
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
            (log.snapshot().map(|(h, b)| (h, b.to_vec())), scan.frames)
        };
        let block_frames: Vec<_> = frames.iter().filter(|f| f.kind == FRAME_BLOCK).collect();
        let mut replay_from = 0;
        if let Some((height, bytes)) = snapshot {
            let prefix: Vec<Block> = (0..height)
                .zip(&block_frames)
                .map_while(|(h, frame)| {
                    let (block, _) = Self::decode_block_frame(&frame.payload)?;
                    (frame.height == h).then_some(block)
                })
                .collect();
            if prefix.len() as u64 == height && chain.restore_snapshot(height, &bytes).is_ok() {
                // Snapshot fast path: the block prefix loads raw (no
                // re-execution; pre-snapshot receipts and events are
                // not retained).
                for block in prefix {
                    chain
                        .seen
                        .extend(block.transactions.iter().map(|tx| tx.hash()));
                    chain.blocks.push(block);
                }
                replay_from = chain.blocks.len();
            } else {
                pds2_obs::counter!("chain.snapshot_restore_failed").inc();
            }
        }
        for frame in &block_frames[replay_from..] {
            // The tail replays through full validation + execution. A
            // frame that does not decode, a block that does not apply, or
            // receipts that differ from the pre-crash execution mean the
            // log is not trustworthy past this point.
            let replayed = Self::decode_block_frame(&frame.payload).is_some_and(
                |(block, expected_receipts)| {
                    chain.apply_external_block(&block).is_ok()
                        && chain.stored_receipts_digest(&block) == expected_receipts
                },
            );
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

#[cfg(test)]
mod tests {
    use super::super::tests::{signed_transfer, test_chain};
    use super::*;
    use crate::address::Address;
    use crate::backend::BackendKind;
    use pds2_crypto::KeyPair;

    /// A flipped bit or a torn write at every frame of a six-block
    /// journal with a snapshot at height 4: whatever prefix of the log
    /// survives, the recovered node holds exactly the state of the
    /// blocks it holds — the never-crashed chain's root at that height.
    #[test]
    fn recovery_from_a_log_damaged_at_any_frame_lands_on_the_twins_state() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = test_chain(&alice);
        live.attach_store(store.clone(), 4);
        let mut roots = vec![live.state.state_root()];
        for nonce in 0..6 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            live.produce_block();
            roots.push(live.state.state_root());
        }
        let pristine = store.lock().clone();
        assert_eq!(pristine.snapshot().expect("snapshot written").0, 4);
        let recover = |log: ChainLog| {
            Blockchain::recover_from_store(test_chain(&alice), Arc::new(Mutex::new(log)), 4)
        };
        let whole = recover(pristine.clone());
        assert_eq!((whole.height(), whole.state.state_root()), (6, roots[6]));

        let frames = pristine.scan().frames;
        let mut offset = 0;
        for (i, frame) in frames.iter().enumerate() {
            let held = frames[..i].iter().filter(|f| f.kind == FRAME_BLOCK).count();
            let mut flipped = pristine.clone();
            flipped.corrupt_bit(offset + 20, 0);
            let mut torn = pristine.clone();
            torn.truncate_tail(pristine.log_bytes() - offset - 5);
            for (damage, log) in [("flipped", flipped), ("torn", torn)] {
                let recovered = recover(log);
                let what = format!("{damage} at frame {i}, {held} blocks held");
                assert_eq!(recovered.height(), held as u64, "{what}");
                assert_eq!(recovered.state.balance(&bob), 10 * held as u128, "{what}");
                assert_eq!(recovered.state.state_root(), roots[held], "{what}");
            }
            offset += 1 + 8 + 8 + frame.payload.len() + 8;
        }
        assert_eq!(offset, pristine.log_bytes());
    }

    /// A chain on the full-rehash oracle that recovers through its
    /// snapshot stays on the oracle: the restored state takes the backend
    /// of the chain it is restored into.
    #[test]
    fn snapshot_restore_keeps_the_chains_backend() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let genesis = || {
            let mut chain = test_chain(&alice);
            chain.state.set_backend(BackendKind::FullRehash);
            chain
        };
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = genesis();
        live.attach_store(store.clone(), 2);
        for nonce in 0..3 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            live.produce_block();
        }
        assert_eq!(store.lock().snapshot().expect("snapshot written").0, 2);
        let recovered = Blockchain::recover_from_store(genesis(), store, 2);
        assert_eq!(recovered.height(), 3);
        assert_eq!(recovered.state.backend_name(), "rehash");
        assert_eq!(recovered.state.state_root(), live.state.state_root());
    }
}
