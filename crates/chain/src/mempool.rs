//! The production mempool: per-account nonce chains feeding a
//! fee-ordered priority index.
//!
//! The original pool was a FIFO `VecDeque` whose block-selection loop
//! rescanned every pending transaction per pass (O(pending²) with nonce
//! gaps); under heavy load it degraded by collapse. This module replaces
//! it with the structure production chains converge on (tari's
//! `unconfirmed_pool`/`reorg_pool` split, geth's per-sender lists + price
//! heap):
//!
//! * **Per-account nonce chains** — every sender's pending transactions
//!   live in a `BTreeMap<nonce, _>`; only the contiguous run starting at
//!   the account's state nonce is *ready*, later nonces wait for the gap
//!   to fill.
//! * **Fee-ordered selection** — block building seeds a binary heap with
//!   each account's ready head, ordered by effective tip per gas at the
//!   current base fee (ties broken by arrival sequence, so the order is
//!   deterministic and replayable). Popping a head pushes the account's
//!   next nonce, so selection costs O(selected · log accounts) after an
//!   O(accounts) seed instead of O(pending²).
//! * **Size-bounded admission** — when the pool is full, the cheapest
//!   *account tail* (highest nonce of its sender) is evicted to make
//!   room for a better-paying arrival. Evicting only tails means
//!   eviction can never orphan a cheaper transaction that later nonces
//!   depend on.
//! * **Replace-by-fee** — a transaction with the same (sender, nonce)
//!   replaces the pending one iff it bumps both fee fields by at least
//!   [`REPLACE_BUMP_PCT`] percent, so a stuck transaction can be
//!   repriced but cannot be churned for free.
//!
//! The mempool never talks to the network or the state directly: the
//! [`Blockchain`](crate::chain::Blockchain) passes account nonces in and
//! takes selected transactions out, keeping this module a pure,
//! deterministic data structure (the proptests in `tests/proptests.rs`
//! lean on that).

use crate::address::Address;
use crate::tx::SignedTransaction;
use pds2_crypto::sha256::Digest;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};

/// Minimum percentage both fee fields must grow for replace-by-fee.
pub const REPLACE_BUMP_PCT: u64 = 10;

/// Why the mempool refused a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The transaction's gas limit exceeds the block gas limit, so no
    /// block could ever include it (rejecting at submission keeps
    /// `produce_until_empty` from spinning on it forever).
    GasLimitTooHigh {
        /// The transaction's gas limit.
        gas_limit: u64,
        /// The chain's per-block gas budget.
        block_gas_limit: u64,
    },
    /// The pool is full and the transaction does not pay enough to
    /// displace the cheapest evictable entry.
    Underpriced {
        /// Fee-per-gas ceiling that would have been required to enter.
        required_fee_per_gas: u64,
    },
    /// The pool is full and nothing can be evicted (every tail belongs
    /// to the submitting account's own chain).
    PoolFull {
        /// The configured capacity.
        capacity: usize,
    },
    /// A transaction with this (sender, nonce) is already pending and
    /// the replacement does not bump its fees by [`REPLACE_BUMP_PCT`]%.
    ReplacementUnderpriced {
        /// Minimum `max_fee_per_gas` a replacement must offer.
        required_max_fee: u64,
        /// Minimum `priority_fee_per_gas` a replacement must offer.
        required_priority_fee: u64,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::GasLimitTooHigh {
                gas_limit,
                block_gas_limit,
            } => write!(
                f,
                "gas limit {gas_limit} exceeds block gas limit {block_gas_limit}"
            ),
            SubmitError::Underpriced {
                required_fee_per_gas,
            } => write!(
                f,
                "pool full: need more than {required_fee_per_gas} max fee per gas to displace"
            ),
            SubmitError::PoolFull { capacity } => {
                write!(f, "pool full at capacity {capacity}, nothing evictable")
            }
            SubmitError::ReplacementUnderpriced {
                required_max_fee,
                required_priority_fee,
            } => write!(
                f,
                "replacement underpriced: need max fee >= {required_max_fee} \
                 and priority fee >= {required_priority_fee}"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// What [`Mempool::insert`] did with an accepted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Appended as a new pending transaction.
    Inserted,
    /// Replaced a pending transaction with the same (sender, nonce);
    /// the replaced hash is returned so the caller can retire it.
    Replaced(Digest),
}

/// One pending transaction plus its admission metadata.
#[derive(Clone, Debug)]
struct PendingTx {
    tx: SignedTransaction,
    hash: Digest,
    /// Arrival sequence number — the deterministic tie-breaker for both
    /// selection (earlier wins) and eviction (newer goes first).
    seq: u64,
}

/// Key of the eviction index: cheapest fee first, newest arrival first
/// among equals. `seq` is unique, so the tuple is a total order.
type EvictKey = (u64, std::cmp::Reverse<u64>, Address);

/// Candidate in the per-block selection heap.
struct Candidate {
    tip: u64,
    seq: u64,
    sender: Address,
    nonce: u64,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: highest tip wins, earliest arrival breaks ties.
        self.tip
            .cmp(&other.tip)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Summary of one [`Mempool::select`] round (for metrics and benches).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelectionStats {
    /// Transactions whose nonce fell below the account nonce and were
    /// dropped while seeding the heap.
    pub stale_dropped: usize,
    /// Accounts whose ready head was priced below the base fee.
    pub unaffordable_accounts: usize,
    /// Accounts skipped because their next transaction no longer fit
    /// the remaining block gas.
    pub gas_deferred: usize,
}

/// Fee-market mempool with per-account nonce chains. See the module
/// docs for the design.
pub struct Mempool {
    /// `BTreeMap` (not `HashMap`) so every full iteration — heap
    /// seeding, draining, invariant checks — visits accounts in one
    /// deterministic order.
    accounts: BTreeMap<Address, BTreeMap<u64, PendingTx>>,
    /// hash → (sender, nonce): O(1) removal when blocks include txs.
    by_hash: HashMap<Digest, (Address, u64)>,
    /// Each account's current tail, ordered cheapest-first.
    evictable: BTreeSet<EvictKey>,
    len: usize,
    next_seq: u64,
    capacity: usize,
    /// Cumulative evictions (monotone; mirrored onto the obs registry
    /// by the chain).
    pub evicted_total: u64,
}

impl Mempool {
    /// An empty pool bounded at `capacity` transactions.
    pub fn new(capacity: usize) -> Mempool {
        Mempool {
            accounts: BTreeMap::new(),
            by_hash: HashMap::new(),
            evictable: BTreeSet::new(),
            len: 0,
            next_seq: 0,
            capacity: capacity.max(1),
            evicted_total: 0,
        }
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `hash` is pending.
    pub fn contains(&self, hash: &Digest) -> bool {
        self.by_hash.contains_key(hash)
    }

    /// Every pending transaction, in deterministic (sender, nonce)
    /// order. Used by the reorg path to carry the pool across a fork
    /// switch, and by tests.
    pub fn all(&self) -> Vec<SignedTransaction> {
        self.accounts
            .values()
            .flat_map(|chain| chain.values().map(|p| p.tx.clone()))
            .collect()
    }

    fn evict_key(addr: Address, tail: &PendingTx) -> EvictKey {
        (
            tail.tx.tx.max_fee_per_gas,
            std::cmp::Reverse(tail.seq),
            addr,
        )
    }

    /// Re-registers `addr`'s tail in the eviction index after its chain
    /// changed. `old_tail` is the previously registered tail, if any.
    fn refresh_tail(&mut self, addr: Address, old_key: Option<EvictKey>) {
        if let Some(k) = old_key {
            self.evictable.remove(&k);
        }
        if let Some(tail) = self
            .accounts
            .get(&addr)
            .and_then(|c| c.values().next_back())
        {
            let key = Self::evict_key(addr, tail);
            self.evictable.insert(key);
        }
    }

    fn current_tail_key(&self, addr: &Address) -> Option<EvictKey> {
        self.accounts
            .get(addr)
            .and_then(|c| c.values().next_back())
            .map(|tail| Self::evict_key(*addr, tail))
    }

    /// Removes the cheapest evictable tail not owned by `protect`.
    /// Returns the evicted hash, or `None` if nothing qualifies.
    fn evict_cheapest(&mut self, protect: &Address) -> Option<Digest> {
        let victim = self
            .evictable
            .iter()
            .find(|(_, _, addr)| addr != protect)
            .copied()?;
        let (_, _, addr) = victim;
        let old_key = self.current_tail_key(&addr);
        let chain = self.accounts.get_mut(&addr)?;
        let (_, removed) = chain.pop_last()?;
        if chain.is_empty() {
            self.accounts.remove(&addr);
        }
        self.by_hash.remove(&removed.hash);
        self.len -= 1;
        self.evicted_total += 1;
        self.refresh_tail(addr, old_key);
        Some(removed.hash)
    }

    /// Admits `tx` (whose signature and staleness the chain has already
    /// checked). `state_nonce` is the sender's current account nonce and
    /// `block_gas_limit` the chain's per-block budget. On success the
    /// returned outcome says whether a pending transaction was replaced;
    /// `evicted` (if any) collects hashes displaced to make room.
    pub fn insert(
        &mut self,
        tx: SignedTransaction,
        state_nonce: u64,
        block_gas_limit: u64,
        evicted: &mut Vec<Digest>,
    ) -> Result<InsertOutcome, SubmitError> {
        if tx.tx.gas_limit > block_gas_limit {
            return Err(SubmitError::GasLimitTooHigh {
                gas_limit: tx.tx.gas_limit,
                block_gas_limit,
            });
        }
        let sender = tx.sender();
        let nonce = tx.tx.nonce;
        debug_assert!(nonce >= state_nonce, "chain admits stale nonces?");
        // Evictions below never take the sender's own tail, so this stays
        // the key to retire on both paths.
        let old_key = self.current_tail_key(&sender);

        // Replace-by-fee for an occupied (sender, nonce) slot.
        if let Some(slot) = self
            .accounts
            .get_mut(&sender)
            .and_then(|c| c.get_mut(&nonce))
        {
            // +REPLACE_BUMP_PCT%, floored at +1 so tiny fees still cost
            // something to replace (u128 intermediate avoids overflow).
            let bump = |fee: u64| {
                let delta = (fee as u128 * REPLACE_BUMP_PCT as u128 / 100).max(1);
                fee.saturating_add(delta.min(u64::MAX as u128) as u64)
            };
            let need_max = bump(slot.tx.tx.max_fee_per_gas);
            let need_prio = bump(slot.tx.tx.priority_fee_per_gas);
            if tx.tx.max_fee_per_gas < need_max || tx.tx.priority_fee_per_gas < need_prio {
                return Err(SubmitError::ReplacementUnderpriced {
                    required_max_fee: need_max,
                    required_priority_fee: need_prio,
                });
            }
            let hash = tx.hash();
            let seq = self.next_seq;
            self.next_seq += 1;
            let old = std::mem::replace(slot, PendingTx { tx, hash, seq });
            self.by_hash.remove(&old.hash);
            self.by_hash.insert(hash, (sender, nonce));
            self.refresh_tail(sender, old_key);
            return Ok(InsertOutcome::Replaced(old.hash));
        }

        // Size-bounded admission: displace cheaper tails, or refuse.
        while self.len >= self.capacity {
            let floor = self
                .evictable
                .iter()
                .find(|(_, _, addr)| addr != &sender)
                .map(|(fee, _, _)| *fee);
            match floor {
                None => {
                    return Err(SubmitError::PoolFull {
                        capacity: self.capacity,
                    })
                }
                Some(fee) if tx.tx.max_fee_per_gas <= fee => {
                    return Err(SubmitError::Underpriced {
                        required_fee_per_gas: fee,
                    })
                }
                Some(_) => {
                    let Some(h) = self.evict_cheapest(&sender) else {
                        return Err(SubmitError::PoolFull {
                            capacity: self.capacity,
                        });
                    };
                    evicted.push(h);
                }
            }
        }

        let hash = tx.hash();
        let seq = self.next_seq;
        self.next_seq += 1;
        self.accounts
            .entry(sender)
            .or_default()
            .insert(nonce, PendingTx { tx, hash, seq });
        self.by_hash.insert(hash, (sender, nonce));
        self.len += 1;
        self.refresh_tail(sender, old_key);
        Ok(InsertOutcome::Inserted)
    }

    /// Removes a pending transaction by hash (e.g. because an external
    /// block included it). Returns whether it was present.
    pub fn remove_by_hash(&mut self, hash: &Digest) -> bool {
        let Some((sender, nonce)) = self.by_hash.remove(hash) else {
            return false;
        };
        if let Some(chain) = self.accounts.get_mut(&sender) {
            let tail_nonce = chain.keys().next_back().copied();
            if let Some(removed) = chain.remove(&nonce) {
                self.len -= 1;
                if chain.is_empty() {
                    self.accounts.remove(&sender);
                }
                // The eviction index tracks only each account's tail, so
                // removing an interior/head nonce leaves it untouched.
                if tail_nonce == Some(nonce) {
                    self.evictable.remove(&Self::evict_key(sender, &removed));
                    if let Some(tail) = self
                        .accounts
                        .get(&sender)
                        .and_then(|c| c.values().next_back())
                    {
                        self.evictable.insert(Self::evict_key(sender, tail));
                    }
                }
            }
        }
        true
    }

    /// Drops every pending transaction of `sender` whose nonce is below
    /// `state_nonce` (consumed by a block this pool never saw). Returns
    /// how many were dropped.
    pub fn prune_stale(&mut self, sender: Address, state_nonce: u64) -> usize {
        let old_key = self.current_tail_key(&sender);
        let Some(chain) = self.accounts.get_mut(&sender) else {
            return 0;
        };
        let live = chain.split_off(&state_nonce);
        let stale = std::mem::replace(chain, live);
        if stale.is_empty() {
            return 0;
        }
        if chain.is_empty() {
            self.accounts.remove(&sender);
        }
        for p in stale.values() {
            self.by_hash.remove(&p.hash);
        }
        self.len -= stale.len();
        self.refresh_tail(sender, old_key);
        stale.len()
    }

    /// Selects up to `max_txs` transactions fitting `gas_limit` at
    /// `base_fee`, ordered by effective tip per gas (arrival order
    /// breaks ties), respecting per-account nonce chains. Selected
    /// transactions are removed from the pool; stale entries discovered
    /// along the way are dropped.
    ///
    /// `state_nonce` maps each sender to its current account nonce.
    ///
    /// Complexity: O(accounts) to seed the heap plus
    /// O(selected · log accounts) to drain it.
    pub fn select(
        &mut self,
        base_fee: u64,
        gas_limit: u64,
        max_txs: usize,
        state_nonce: impl Fn(&Address) -> u64,
        stats: &mut SelectionStats,
    ) -> Vec<SignedTransaction> {
        // Seed: one linear pass pushes each account's ready head. Accounts
        // holding stale nonces (rare — a block this pool never saw consumed
        // them) are set aside and seeded after pruning, which needs `&mut
        // self`. Heap order is independent of push order: `seq` is a unique
        // global arrival counter, so no two candidates compare equal.
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::with_capacity(self.accounts.len());
        let mut stale: Vec<(Address, u64)> = Vec::new();
        for (&sender, chain) in &self.accounts {
            let nonce = state_nonce(&sender);
            let Some((&first, head)) = chain.first_key_value() else {
                continue; // unreachable: empty chains are never retained
            };
            match first.cmp(&nonce) {
                std::cmp::Ordering::Less => {
                    stale.push((sender, nonce));
                    continue;
                }
                std::cmp::Ordering::Greater => continue, // nonce gap: nothing ready
                std::cmp::Ordering::Equal => {}
            }
            match head.tx.tx.effective_tip(base_fee) {
                Some(tip) => heap.push(Candidate {
                    tip,
                    seq: head.seq,
                    sender,
                    nonce,
                }),
                None => stats.unaffordable_accounts += 1,
            }
        }
        for (sender, nonce) in stale {
            stats.stale_dropped += self.prune_stale(sender, nonce);
            let Some(head) = self.accounts.get(&sender).and_then(|c| c.get(&nonce)) else {
                continue;
            };
            match head.tx.tx.effective_tip(base_fee) {
                Some(tip) => heap.push(Candidate {
                    tip,
                    seq: head.seq,
                    sender,
                    nonce,
                }),
                None => stats.unaffordable_accounts += 1,
            }
        }

        let mut selected = Vec::new();
        let mut gas_left = gas_limit;
        while selected.len() < max_txs {
            let Some(cand) = heap.pop() else { break };
            // A candidate is its account's ready head, and only a popped
            // candidate's own chain changes, so both lookups always hit.
            let Some(chain) = self.accounts.get_mut(&cand.sender) else {
                continue;
            };
            // Selection takes the head, so the tail only moves when the
            // chain holds a single entry (head == tail) — the common
            // multi-nonce case skips the eviction-index churn entirely.
            let was_tail = chain.keys().next_back() == Some(&cand.nonce);
            let Entry::Occupied(head) = chain.entry(cand.nonce) else {
                continue;
            };
            if head.get().tx.tx.gas_limit > gas_left {
                // Doesn't fit this block; the whole account waits (a
                // later nonce must not jump its predecessor).
                stats.gas_deferred += 1;
                continue;
            }
            let taken = head.remove();
            self.by_hash.remove(&taken.hash);
            self.len -= 1;
            gas_left -= taken.tx.tx.gas_limit;
            // Promote the account's next nonce, if contiguous + priced.
            if let Some(next) = chain.get(&(cand.nonce + 1)) {
                if let Some(tip) = next.tx.tx.effective_tip(base_fee) {
                    heap.push(Candidate {
                        tip,
                        seq: next.seq,
                        sender: cand.sender,
                        nonce: cand.nonce + 1,
                    });
                } else {
                    stats.unaffordable_accounts += 1;
                }
            }
            if chain.is_empty() {
                self.accounts.remove(&cand.sender);
            }
            if was_tail {
                self.evictable.remove(&Self::evict_key(cand.sender, &taken));
            }
            selected.push(taken.tx);
        }
        selected
    }

    /// Internal-consistency check used by the proptests: the secondary
    /// indexes mirror the account chains exactly, the size bound holds,
    /// and the eviction index points at real tails.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut count = 0;
        for (addr, chain) in &self.accounts {
            assert!(!chain.is_empty(), "empty chain retained for {addr}");
            for (nonce, p) in chain {
                assert_eq!(p.tx.tx.nonce, *nonce, "nonce key mismatch");
                assert_eq!(p.tx.tx.sender(), *addr, "sender key mismatch");
                assert_eq!(
                    self.by_hash.get(&p.hash),
                    Some(&(*addr, *nonce)),
                    "by_hash out of sync"
                );
                count += 1;
            }
            assert!(
                chain
                    .values()
                    .next_back()
                    .is_some_and(|tail| self.evictable.contains(&Self::evict_key(*addr, tail))),
                "tail of {addr} missing from eviction index"
            );
        }
        assert_eq!(count, self.len, "len out of sync");
        assert_eq!(count, self.by_hash.len(), "by_hash size out of sync");
        assert_eq!(
            self.evictable.len(),
            self.accounts.len(),
            "one eviction entry per account"
        );
        assert!(self.len <= self.capacity, "capacity exceeded");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{Transaction, TxKind};
    use pds2_crypto::schnorr::KeyPair;

    const GAS: u64 = 100_000;
    const BLOCK_GAS: u64 = 1_000_000;

    fn tx(seed: u64, nonce: u64, max_fee: u64, prio: u64) -> SignedTransaction {
        let kp = KeyPair::from_seed(seed);
        Transaction {
            from: kp.public.clone(),
            nonce,
            kind: TxKind::Transfer {
                to: Address::of(&KeyPair::from_seed(999).public),
                amount: 1,
            },
            gas_limit: GAS,
            max_fee_per_gas: max_fee,
            priority_fee_per_gas: prio,
        }
        .sign(&kp)
    }

    fn insert_ok(pool: &mut Mempool, t: SignedTransaction) {
        let mut ev = Vec::new();
        pool.insert(t, 0, BLOCK_GAS, &mut ev).expect("insert");
        pool.check_invariants();
    }

    fn select_all(pool: &mut Mempool, base_fee: u64) -> Vec<SignedTransaction> {
        let mut stats = SelectionStats::default();
        let out = pool.select(base_fee, u64::MAX, usize::MAX, |_| 0, &mut stats);
        pool.check_invariants();
        out
    }

    #[test]
    fn selection_orders_by_tip_then_arrival() {
        let mut pool = Mempool::new(100);
        insert_ok(&mut pool, tx(1, 0, 50, 5));
        insert_ok(&mut pool, tx(2, 0, 50, 9));
        insert_ok(&mut pool, tx(3, 0, 50, 5)); // same tip as seed 1, later
        let sel = select_all(&mut pool, 0);
        let tips: Vec<u64> = sel.iter().map(|t| t.tx.effective_tip(0).unwrap()).collect();
        assert_eq!(tips, [9, 5, 5]);
        assert_eq!(sel[1].tx.from, KeyPair::from_seed(1).public, "FIFO tie");
        assert!(pool.is_empty());
    }

    #[test]
    fn nonce_chains_select_in_order_despite_fees() {
        // Account 1's nonce-1 tx pays a huge tip, but nonce 0 pays
        // nothing: chain order must still hold.
        let mut pool = Mempool::new(100);
        insert_ok(&mut pool, tx(1, 1, 100, 90));
        insert_ok(&mut pool, tx(1, 0, 100, 1));
        insert_ok(&mut pool, tx(2, 0, 100, 10));
        let sel = select_all(&mut pool, 0);
        let nonces: Vec<(u64, bool)> = sel
            .iter()
            .map(|t| (t.tx.nonce, t.tx.from == KeyPair::from_seed(1).public))
            .collect();
        // Seed-2's tip (10) beats seed-1's head (1); once seed-1's head
        // is in, its 90-tip successor follows.
        assert_eq!(nonces, [(0, false), (0, true), (1, true)]);
    }

    #[test]
    fn nonce_gap_blocks_selection_until_filled() {
        let mut pool = Mempool::new(100);
        insert_ok(&mut pool, tx(1, 1, 100, 50));
        assert!(select_all(&mut pool, 0).is_empty(), "gap: nothing ready");
        assert_eq!(pool.len(), 1);
        insert_ok(&mut pool, tx(1, 0, 100, 1));
        let sel = select_all(&mut pool, 0);
        assert_eq!(sel.len(), 2);
        assert_eq!((sel[0].tx.nonce, sel[1].tx.nonce), (0, 1));
    }

    #[test]
    fn base_fee_filters_unaffordable_heads() {
        let mut pool = Mempool::new(100);
        insert_ok(&mut pool, tx(1, 0, 5, 5)); // cap 5 < base fee 10
        insert_ok(&mut pool, tx(2, 0, 20, 5));
        let mut stats = SelectionStats::default();
        let sel = pool.select(10, u64::MAX, usize::MAX, |_| 0, &mut stats);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].tx.max_fee_per_gas, 20);
        assert_eq!(stats.unaffordable_accounts, 1);
        assert_eq!(pool.len(), 1, "unaffordable tx stays pending");
    }

    #[test]
    fn eviction_removes_cheapest_tail_only() {
        let mut pool = Mempool::new(3);
        insert_ok(&mut pool, tx(1, 0, 10, 1));
        insert_ok(&mut pool, tx(1, 1, 2, 1)); // cheapest tail
        insert_ok(&mut pool, tx(2, 0, 50, 1));
        let mut ev = Vec::new();
        let rich = tx(3, 0, 99, 9);
        pool.insert(rich.clone(), 0, BLOCK_GAS, &mut ev).unwrap();
        pool.check_invariants();
        assert_eq!(ev.len(), 1, "one eviction makes room");
        assert_eq!(
            ev[0],
            tx(1, 1, 2, 1).hash(),
            "tail (nonce 1), not the head its fee depends on"
        );
        assert_eq!(pool.len(), 3);
        assert!(pool.contains(&rich.hash()));
        assert!(pool.contains(&tx(1, 0, 10, 1).hash()), "head survives");
    }

    #[test]
    fn full_pool_rejects_underpriced() {
        let mut pool = Mempool::new(2);
        insert_ok(&mut pool, tx(1, 0, 10, 1));
        insert_ok(&mut pool, tx(2, 0, 20, 1));
        let mut ev = Vec::new();
        // Equal to the floor: refused (must strictly beat it).
        let err = pool.insert(tx(3, 0, 10, 1), 0, BLOCK_GAS, &mut ev);
        assert_eq!(
            err,
            Err(SubmitError::Underpriced {
                required_fee_per_gas: 10
            })
        );
        assert!(ev.is_empty());
        pool.check_invariants();
    }

    #[test]
    fn eviction_never_targets_the_submitter() {
        // Pool of 2 filled entirely by account 1; account 1 submits a
        // third with a higher fee — evicting its own tail to admit a
        // *later* nonce would orphan the new tx, so refuse instead.
        let mut pool = Mempool::new(2);
        insert_ok(&mut pool, tx(1, 0, 10, 1));
        insert_ok(&mut pool, tx(1, 1, 10, 1));
        let mut ev = Vec::new();
        let err = pool.insert(tx(1, 2, 99, 9), 0, BLOCK_GAS, &mut ev);
        assert_eq!(err, Err(SubmitError::PoolFull { capacity: 2 }));
        pool.check_invariants();
    }

    #[test]
    fn replacement_requires_fee_bump() {
        let mut pool = Mempool::new(10);
        insert_ok(&mut pool, tx(1, 0, 100, 10));
        let mut ev = Vec::new();
        // +9% on max fee: refused.
        let err = pool.insert(tx(1, 0, 109, 11), 0, BLOCK_GAS, &mut ev);
        assert_eq!(
            err,
            Err(SubmitError::ReplacementUnderpriced {
                required_max_fee: 110,
                required_priority_fee: 11,
            })
        );
        // +10% on both: accepted, old hash reported.
        let old_hash = tx(1, 0, 100, 10).hash();
        let got = pool
            .insert(tx(1, 0, 110, 11), 0, BLOCK_GAS, &mut ev)
            .unwrap();
        assert_eq!(got, InsertOutcome::Replaced(old_hash));
        pool.check_invariants();
        assert_eq!(pool.len(), 1);
        assert!(!pool.contains(&old_hash));
        assert!(pool.contains(&tx(1, 0, 110, 11).hash()));
    }

    #[test]
    fn unfittable_gas_rejected_up_front() {
        let mut pool = Mempool::new(10);
        let kp = KeyPair::from_seed(1);
        let big = Transaction {
            from: kp.public.clone(),
            nonce: 0,
            kind: TxKind::Transfer {
                to: Address::of(&KeyPair::from_seed(999).public),
                amount: 1,
            },
            gas_limit: BLOCK_GAS + 1,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&kp);
        let mut ev = Vec::new();
        assert_eq!(
            pool.insert(big, 0, BLOCK_GAS, &mut ev),
            Err(SubmitError::GasLimitTooHigh {
                gas_limit: BLOCK_GAS + 1,
                block_gas_limit: BLOCK_GAS,
            })
        );
    }

    #[test]
    fn gas_exhaustion_defers_whole_account() {
        let mut pool = Mempool::new(10);
        insert_ok(&mut pool, tx(1, 0, 10, 5)); // best tip
        insert_ok(&mut pool, tx(1, 1, 10, 5));
        insert_ok(&mut pool, tx(2, 0, 10, 1));
        let mut stats = SelectionStats::default();
        // Gas budget fits exactly two transactions.
        let sel = pool.select(0, 2 * GAS, usize::MAX, |_| 0, &mut stats);
        assert_eq!(sel.len(), 2);
        assert_eq!(pool.len(), 1, "third tx deferred to the next block");
        pool.check_invariants();
    }

    #[test]
    fn prune_stale_drops_consumed_nonces() {
        let mut pool = Mempool::new(10);
        insert_ok(&mut pool, tx(1, 0, 10, 1));
        insert_ok(&mut pool, tx(1, 1, 10, 1));
        insert_ok(&mut pool, tx(1, 2, 10, 1));
        let sender = Address::of(&KeyPair::from_seed(1).public);
        assert_eq!(pool.prune_stale(sender, 2), 2);
        pool.check_invariants();
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(&tx(1, 2, 10, 1).hash()));
    }

    #[test]
    fn remove_by_hash_unlinks_everywhere() {
        let mut pool = Mempool::new(10);
        let t = tx(1, 0, 10, 1);
        insert_ok(&mut pool, t.clone());
        assert!(pool.remove_by_hash(&t.hash()));
        assert!(!pool.remove_by_hash(&t.hash()), "second removal is a no-op");
        pool.check_invariants();
        assert!(pool.is_empty());
    }
}
