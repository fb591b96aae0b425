//! Persist: journal frames, state snapshots and crash recovery.

use super::{Blockchain, ChainError};
use crate::block::{receipts_digest, Block, BlockHeader};
use crate::gas;
use crate::state::WorldState;
use crate::tx::SignedTransaction;
use parking_lot::Mutex;
use pds2_crypto::codec::{Decode, Decoder, Encode, Encoder};
use pds2_crypto::schnorr::Signature;
use pds2_crypto::sha256::{sha256, Digest};
use pds2_storage::chainlog::{ChainLog, Frame, FRAME_BLOCK, FRAME_TX};
use std::sync::Arc;

impl Blockchain {
    /// Attaches a durable store. Blocks the log does not yet hold are
    /// backfilled, then every produced/applied block (and admitted
    /// transaction) is appended as it happens, with a full state
    /// snapshot every `snapshot_every` blocks.
    pub fn attach_store(&mut self, store: Arc<Mutex<ChainLog>>, snapshot_every: u64) {
        let persisted = store
            .lock()
            .scan()
            .frames
            .iter()
            .filter(|f| f.kind == FRAME_BLOCK)
            .count();
        self.arm_store(store, snapshot_every, persisted);
    }

    /// [`Self::attach_store`] for a caller that knows how many block
    /// frames `store` holds: the first `persisted` blocks.
    fn arm_store(&mut self, store: Arc<Mutex<ChainLog>>, snapshot_every: u64, persisted: usize) {
        {
            let mut log = store.lock();
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
        self.arm_store(store, snapshot_every, 0);
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
        // Written into the buffer of the snapshot it replaces: a state of
        // megabytes goes in one pass over memory already mapped, with no
        // series of reallocations and no fresh pages to fault in.
        let mut log = store.lock();
        let buffer = log
            .take_snapshot()
            .map_or_else(Vec::new, |(_, bytes)| bytes);
        log.write_snapshot(self.height(), self.snapshot_into(buffer));
        pds2_obs::counter!("chain.snapshots_written").inc();
    }

    /// Serializes the chain tip's world state for a recovery snapshot.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.snapshot_into(Vec::new())
    }

    /// [`Blockchain::snapshot_bytes`], written into `buffer`.
    fn snapshot_into(&self, buffer: Vec<u8>) -> Vec<u8> {
        let mut enc = Encoder::reusing(buffer);
        self.state.encode_snapshot(&mut enc);
        enc.finish()
    }

    /// Restores the tip state from the bytes of a snapshot slot whose
    /// block is `tip`; on error nothing has changed. The base fee is the
    /// one `tip` implies. The slot has no checksum, so a state that
    /// decodes is still compared with `tip`'s root. Blocks, receipts and
    /// events are NOT in the snapshot — the caller loads the block prefix
    /// from the log.
    fn restore_snapshot(&mut self, bytes: &[u8], tip: &BlockHeader) -> Result<(), String> {
        let mut dec = Decoder::new(bytes);
        let state = WorldState::decode_snapshot(&mut dec, &self.registry)?;
        dec.expect_end().map_err(|e| format!("snapshot: {e:?}"))?;
        // The first block replayed on top would build this tree anyway.
        if state.state_root() != tip.state_root {
            return Err("snapshot: state root differs from its block's".into());
        }
        self.state = state;
        self.next_base_fee =
            gas::next_base_fee(tip.base_fee, tip.gas_used, self.config.block_gas_limit);
        Ok(())
    }

    /// Rebuilds a crashed node from its durable store: restore the
    /// latest snapshot if the log still holds a decodable block for
    /// every height below it and the restored state has the root of the
    /// block at its height (falling back to genesis replay if it is
    /// missing or corrupt, or if damage truncated the log beneath it —
    /// the state of height `H` must never sit under a shorter chain),
    /// replay the block log from there — re-validating every block and
    /// checking each frame's receipts digest against the re-derived
    /// receipts — then re-admit, as one batch, the journaled transactions
    /// the chain does not already include. The log is read once; its torn
    /// tail, if any, is truncated first. If the replay stopped before the
    /// log's last block frame, the log is also truncated before the frame
    /// that stopped it (the snapshot slot stays), so that later blocks are
    /// not appended behind that frame, and the journaled transactions it
    /// dropped are journaled again as they are re-admitted.
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

        // Held until the snapshot is restored: the slot is decoded where
        // it lies instead of being copied out.
        let mut log = store.lock();
        let frames = log.repair().frames;
        // Positions in `frames` of the block frames, in order.
        let block_at: Vec<usize> = (0..frames.len())
            .filter(|&i| frames[i].kind == FRAME_BLOCK)
            .collect();
        let block_frames: Vec<_> = block_at.iter().map(|&i| &frames[i]).collect();
        let mut replay_from = 0;
        if let Some((height, bytes)) = log.snapshot() {
            let prefix: Vec<Block> = (0..height)
                .zip(&block_frames)
                .map_while(|(h, frame)| {
                    let (block, _) = Self::decode_block_frame(&frame.payload)?;
                    (frame.height == h).then_some(block)
                })
                .collect();
            let restored = prefix.len() as u64 == height
                && prefix
                    .last()
                    .is_some_and(|tip| chain.restore_snapshot(bytes, &tip.header).is_ok());
            if restored {
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
        drop(log);
        // The tail replays through full validation + execution, as one
        // run. A frame that does not decode, a block that does not apply,
        // or receipts that differ from the pre-crash execution mean the
        // log is not trustworthy past this point.
        let (tail, receipts): (Vec<Block>, Vec<Digest>) = block_frames[replay_from..]
            .iter()
            .map_while(|frame| Self::decode_block_frame(&frame.payload))
            .unzip();
        let replayed = chain.apply_run(&tail, |chain, i| {
            if chain.stored_receipts_digest(&tail[i]) == receipts[i] {
                Ok(())
            } else {
                Err(ChainError::InvalidBlock("receipts mismatch"))
            }
        });
        let replayed = replay_from + replayed.unwrap_or_else(|(i, _)| i);
        let stopped_at = (replayed < block_frames.len()).then_some(replayed);
        // The log keeps every frame before the block frame that stopped
        // the replay, if one did; the frames from it on would otherwise
        // stay in front of every block appended from here on.
        let (kept_frames, kept_blocks) = match stopped_at {
            Some(j) => (block_at[j], j),
            None => (frames.len(), block_frames.len()),
        };
        // A journaled transaction the replayed chain already included is
        // skipped before it is decoded. Nothing is re-admitted yet, so
        // `seen` holds the included transactions' hashes, and no admission
        // takes one out. A frame is the body's canonical encoding and then
        // the signature, so a hit on the hash of all but the signature
        // means (by collision resistance) that the frame's body is that
        // transaction's: decoded, it would only be refused as a duplicate.
        let journaled = |frames: &[Frame]| -> Vec<SignedTransaction> {
            frames
                .iter()
                .filter(|f| f.kind == FRAME_TX)
                .filter(|f| {
                    let body = f.payload.len().checked_sub(Signature::LEN);
                    !body.is_some_and(|len| chain.seen.contains(&sha256(&f.payload[..len])))
                })
                .filter_map(|f| SignedTransaction::from_bytes(&f.payload).ok())
                .collect()
        };
        let (kept_txs, dropped_txs) = (
            journaled(&frames[..kept_frames]),
            journaled(&frames[kept_frames..]),
        );
        // The kept frames journal these already: they are re-admitted
        // before persistence is re-armed, or each would be journaled twice.
        chain.reinstate(kept_txs);
        store.lock().keep_prefix(&frames[..kept_frames]);
        // The log holds the first `kept_blocks` blocks, and the receipts
        // digests of those the snapshot loaded are still the originals.
        chain.arm_store(store, snapshot_every, kept_blocks);
        // Their frames are gone: re-admitted with persistence armed, they
        // are journaled again. Two batches decide as one would, since each
        // decides as sequential submits do.
        chain.reinstate(dropped_txs);
        pds2_obs::counter!("chain.recoveries").inc();
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{signed_transfer, test_chain};
    use super::*;
    use crate::address::Address;
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
            offset += frame.encoded_len();
        }
        assert_eq!(offset, pristine.log_bytes());
    }

    /// The journal's last frame is a block that executes and is then
    /// refused: the scheduled proposer re-signed its header over a state
    /// root with one bit flipped, and the frame's checksum holds. The
    /// tail replay refuses it and leaves no trace of it, so the recovered
    /// node is the never-crashed chain at height 2, and the block it
    /// produces next is one a fresh follower applies.
    #[test]
    fn a_journaled_block_refused_after_it_executed_leaves_no_trace_in_recovery() {
        use crate::block::BlockHeader;
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = test_chain(&alice);
        live.attach_store(store.clone(), 0);
        let mut ahead = test_chain(&alice);
        for nonce in 0..2 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            ahead.apply_external_block(&live.produce_block()).unwrap();
        }
        ahead.submit(signed_transfer(&alice, 2, bob, 500)).unwrap();
        let honest = ahead.produce_block();
        let h = &honest.header;
        let mut root = h.state_root;
        root.0[0] ^= 1;
        let forged = Block {
            header: BlockHeader::new_signed(
                &KeyPair::from_seed(1000),
                h.height,
                h.parent,
                root,
                h.tx_root,
                h.timestamp,
                h.base_fee,
                h.gas_used,
            ),
            transactions: honest.transactions.clone(),
        };
        ahead.journal_block(&mut store.lock(), &forged);

        let mut recovered = Blockchain::recover_from_store(test_chain(&alice), store, 0);
        assert_eq!(
            (
                recovered.height(),
                recovered.state.state_root(),
                recovered.state.balance(&bob)
            ),
            (2, live.state.state_root(), 20)
        );
        recovered.produce_block();
        let mut follower = test_chain(&alice);
        assert_eq!(
            follower.apply_external_blocks_pipelined(recovered.blocks()),
            Ok(3)
        );
    }

    /// The journal's last block frame carries a transaction whose
    /// signature's `s` was moved by one, under a header the scheduled
    /// proposer signed over it. Transaction hashes exclude the signature,
    /// so the header is the honest one, the transaction root holds and
    /// only the signature check sees the damage. The tail is replayed as
    /// one run, whose batch is refused; its blocks then go one by one, so
    /// recovery lands on height 2, the block before the bent one.
    #[test]
    fn a_journaled_block_with_a_bent_tx_signature_stops_the_replay_before_it() {
        use crate::block::BlockHeader;
        use pds2_crypto::BigUint;
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = test_chain(&alice);
        live.attach_store(store.clone(), 0);
        let mut ahead = test_chain(&alice);
        for nonce in 0..2 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            ahead.apply_external_block(&live.produce_block()).unwrap();
        }
        ahead.submit(signed_transfer(&alice, 2, bob, 7)).unwrap();
        let honest = ahead.produce_block();
        let tx = &honest.transactions[0];
        let sig = &tx.signature;
        let bent = Signature::new(sig.r().clone(), sig.s().add(&BigUint::one())).unwrap();
        let h = &honest.header;
        let header = BlockHeader::new_signed(
            &KeyPair::from_seed(1000),
            h.height,
            h.parent,
            h.state_root,
            Block::compute_tx_root(&honest.transactions),
            h.timestamp,
            h.base_fee,
            h.gas_used,
        );
        assert_eq!(&header, h);
        let forged = Block {
            header,
            transactions: vec![SignedTransaction::new(tx.tx.clone(), bent)],
        };
        assert!(forged.tx_root_matches());
        ahead.journal_block(&mut store.lock(), &forged);

        let recovered = Blockchain::recover_from_store(test_chain(&alice), store, 0);
        assert_eq!(
            (
                recovered.height(),
                recovered.head_hash(),
                recovered.state.state_root(),
                recovered.state.balance(&bob)
            ),
            (2, live.head_hash(), live.state.state_root(), 20)
        );
    }

    /// `log` with the receipts digest of the block frame at `height` bent;
    /// every frame's checksum still holds, snapshot slot included.
    fn bend_receipts(log: &ChainLog, height: u64) -> ChainLog {
        let mut bent = ChainLog::new();
        for frame in log.scan().frames {
            let mut payload = frame.payload;
            if frame.kind == FRAME_BLOCK && frame.height == height {
                // The receipts digest is the payload's last 32 bytes.
                *payload.last_mut().unwrap() ^= 1;
            }
            bent.append(frame.kind, frame.height, &payload);
        }
        if let Some((height, bytes)) = log.snapshot() {
            bent.write_snapshot(height, bytes.to_vec());
        }
        bent
    }

    /// A block frame whose receipts digest was bent stops the replay.
    /// Blocks produced after that recovery must not be appended behind
    /// the frame that stopped it, where the next recovery would never
    /// reach them.
    #[test]
    fn blocks_produced_after_a_stopped_replay_are_recovered() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = test_chain(&alice);
        live.attach_store(store.clone(), 0);
        for nonce in 0..2 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            live.produce_block();
        }
        let store = Arc::new(Mutex::new(bend_receipts(&store.lock(), 1)));
        let mut recovered = Blockchain::recover_from_store(test_chain(&alice), store.clone(), 0);
        assert_eq!(recovered.height(), 2);
        recovered.produce_block();
        recovered.produce_block();
        let again = Blockchain::recover_from_store(test_chain(&alice), store, 0);
        assert_eq!(
            (again.height(), again.head_hash(), again.state.state_root()),
            (4, recovered.head_hash(), recovered.state.state_root())
        );
    }

    /// The same above a snapshot. The blocks the snapshot loaded keep
    /// their original frames (their receipts are not retained, so no
    /// frame could be rebuilt for them), every later recovery lands on
    /// the live head, and a transaction journaled behind the bent frame
    /// stays journaled.
    #[test]
    fn a_replay_stopped_above_the_snapshot_keeps_the_log_beneath_it() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = test_chain(&alice);
        live.attach_store(store.clone(), 4);
        for nonce in 0..6 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            live.produce_block();
        }
        let pending = signed_transfer(&alice, 6, bob, 10);
        live.submit(pending.clone()).unwrap();
        let store = Arc::new(Mutex::new(bend_receipts(&store.lock(), 5)));
        assert_eq!(store.lock().snapshot().expect("snapshot written").0, 4);
        let recover = || Blockchain::recover_from_store(test_chain(&alice), store.clone(), 4);
        let mut recovered = recover();
        assert_eq!(
            (recovered.height(), recovered.head_hash()),
            (6, live.head_hash())
        );
        assert_eq!(recovered.mempool_txs(), vec![pending.clone()]);
        assert_eq!(recover().mempool_txs(), vec![pending]);
        // Heights 7 and 8: the second writes a new snapshot.
        for height in [7, 8] {
            recovered.produce_block();
            let again = recover();
            assert_eq!(
                (again.height(), again.head_hash(), again.state.state_root()),
                (height, recovered.head_hash(), recovered.state.state_root())
            );
            recovered = again;
        }
    }

    /// The snapshot slot has no checksum, and a flipped bit in an address
    /// still decodes. The restored state's root is then no header's, so
    /// recovery refuses the snapshot and replays from genesis.
    #[test]
    fn a_snapshot_whose_root_is_not_its_blocks_is_refused() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = test_chain(&alice);
        live.attach_store(store.clone(), 4);
        for nonce in 0..6 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            live.produce_block();
        }
        let (height, snapshot) = {
            let log = store.lock();
            let (height, bytes) = log.snapshot().expect("snapshot written");
            (height, bytes.to_vec())
        };
        assert_eq!(height, 4);
        let mut flipped = snapshot;
        // The account count comes first, then the first address.
        flipped[8] ^= 1;
        store.lock().write_snapshot(height, flipped);
        let failed = pds2_obs::counter!("chain.snapshot_restore_failed");
        let failed_before = failed.get();
        let recovered = Blockchain::recover_from_store(test_chain(&alice), store, 4);
        assert_eq!(
            (recovered.height(), recovered.state.state_root()),
            (6, live.state.state_root())
        );
        assert!(failed.get() > failed_before);
    }

    /// A journaled chain whose snapshot at height 4 holds accounts, an
    /// ERC-20, an NFT and a contract, with two blocks and a pending
    /// transaction above it. Returns the live chain, its store and the
    /// hash of a transaction included beneath the snapshot.
    fn chain_with_every_kind_of_leaf() -> (Blockchain, Arc<Mutex<ChainLog>>, Digest) {
        use crate::erc20::Erc20Op;
        use crate::erc721::{AssetKind, Erc721Op};
        use crate::tx::{Transaction, TxKind};
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let mut live = genesis_with_counter(&alice);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        live.attach_store(store.clone(), 4);
        let counter = Address::contract(&Address::of(&alice.public), 3);
        let kinds = [
            TxKind::Transfer {
                to: bob,
                amount: 10,
            },
            TxKind::Erc20(Erc20Op::Create {
                symbol: "TOK".into(),
                initial_supply: 1_000,
            }),
            TxKind::Erc721(Erc721Op::Mint {
                kind: AssetKind::Dataset,
                content: pds2_crypto::sha256::sha256(b"data"),
                label: "d".into(),
            }),
            TxKind::Deploy {
                code_id: "counter".into(),
                init: Vec::new(),
            },
            TxKind::Call {
                contract: counter,
                input: vec![0],
                value: 0,
            },
            TxKind::Transfer { to: bob, amount: 5 },
            TxKind::Transfer { to: bob, amount: 1 },
        ];
        let mut first = None;
        for (nonce, kind) in kinds.into_iter().enumerate() {
            let tx = Transaction {
                from: alice.public.clone(),
                nonce: nonce as u64,
                kind,
                gas_limit: 1_000_000,
                max_fee_per_gas: 1_000,
                priority_fee_per_gas: 1,
            }
            .sign(&alice);
            first.get_or_insert(tx.hash());
            live.submit(tx).unwrap();
            if nonce < 6 {
                live.produce_block();
            }
        }
        assert_eq!((live.height(), live.mempool_len()), (6, 1));
        (live, store, first.unwrap())
    }

    /// One validator, `alice` funded, a base fee that every block moves
    /// and a registered counter contract.
    fn genesis_with_counter(alice: &KeyPair) -> Blockchain {
        let mut registry = crate::contract::ContractRegistry::new();
        registry.register("counter", crate::contract::test_support::Counter::construct);
        Blockchain::new(
            vec![KeyPair::from_seed(1000)],
            &[(Address::of(&alice.public), 1_000_000_000_000)],
            registry,
            crate::chain::ChainConfig {
                initial_base_fee: 7,
                ..crate::chain::ChainConfig::default()
            },
        )
    }

    /// Damage swept over the snapshot slot, which has no checksum: one
    /// flipped bit at every byte offset, and the slot cut at every length.
    /// Every recovery lands on the never-crashed chain: its height, head,
    /// root, base fee, supply and pending pool. Either the slot is
    /// restored, or it is refused, counted, and the chain is replayed
    /// from genesis. A corrupted count is refused before anything is
    /// sized from it, so no case panics or runs out of memory.
    #[test]
    fn recovery_from_a_damaged_snapshot_slot_lands_on_the_live_chain() {
        let alice = KeyPair::from_seed(1);
        let (live, store, beneath) = chain_with_every_kind_of_leaf();
        let (height, slot) = {
            let log = store.lock();
            let (height, bytes) = log.snapshot().expect("snapshot written");
            (height, bytes.to_vec())
        };
        assert_eq!(height, 4);
        let want = (
            live.height(),
            live.head_hash(),
            live.state.state_root(),
            live.base_fee(),
            live.state.total_native_supply(),
            live.mempool_txs(),
        );
        let failed = pds2_obs::counter!("chain.snapshot_restore_failed");
        let recover = |damaged: Vec<u8>, what: String| {
            let mut log = store.lock().clone();
            log.write_snapshot(height, damaged);
            let failed_before = failed.get();
            let chain = Blockchain::recover_from_store(
                genesis_with_counter(&alice),
                Arc::new(Mutex::new(log)),
                4,
            );
            let got = (
                chain.height(),
                chain.head_hash(),
                chain.state.state_root(),
                chain.base_fee(),
                chain.state.total_native_supply(),
                chain.mempool_txs(),
            );
            assert_eq!(got, want, "{what}");
            // Blocks a snapshot loaded hold no receipts.
            let restored = chain.receipt(&beneath).is_none();
            assert!(
                restored || failed.get() > failed_before,
                "{what}: not counted"
            );
            restored
        };
        assert!(recover(slot.clone(), "undamaged".into()));
        let mut restored = 0;
        for offset in 0..slot.len() {
            let mut flipped = slot.clone();
            flipped[offset] ^= 1 << (offset % 8);
            restored += recover(flipped, format!("bit {} of byte {offset}", offset % 8)) as usize;
        }
        for len in 0..slot.len() {
            assert!(!recover(slot[..len].to_vec(), format!("cut at {len}")));
        }
        // Only the contract's deployer is neither in the root nor checked:
        // a flipped bit there still restores (this contract's restore
        // overwrites what its constructor took from it).
        assert_eq!(restored, 32);
    }

    /// A chain that recovers through its snapshot builds its tree from
    /// the restored maps and replays the block above it: its root equals
    /// the rebuild of its maps and the live chain's.
    #[test]
    fn a_restored_root_equals_its_rebuild_and_the_live_root() {
        let alice = KeyPair::from_seed(1);
        let bob = Address::of(&KeyPair::from_seed(2).public);
        let store = Arc::new(Mutex::new(ChainLog::new()));
        let mut live = test_chain(&alice);
        live.attach_store(store.clone(), 2);
        for nonce in 0..3 {
            live.submit(signed_transfer(&alice, nonce, bob, 10))
                .unwrap();
            live.produce_block();
        }
        assert_eq!(store.lock().snapshot().expect("snapshot written").0, 2);
        let recovered = Blockchain::recover_from_store(test_chain(&alice), store, 2);
        assert_eq!(recovered.height(), 3);
        assert_eq!(recovered.state.state_root(), recovered.state.rehash_root());
        assert_eq!(recovered.state.state_root(), live.state.state_root());
    }
}
