//! The micro rows `benchmark/` cannot see, all on [`pds2_bench::micro`]:
//! size sweeps over what the benchmark fixes (state size, pool depth,
//! fleet size, readings per signed batch, signatures per batched check)
//! and layers its workloads never reach (the hash kernel, threshold
//! signing, tracing switched off, the oblivious primitives).
//! Anything on the path of a benchmark workload is measured there and
//! not here; EXPERIMENTS.md E15 and E17–E20 read their tables from the
//! file this writes.
//!
//! Nothing is re-proved before timing: every equivalence the rows rest
//! on (kernels, backends, schedulers) is a tier-1 test.
//! The few assertions left compare two rows of the same run.
//!
//! Writes `BENCH_micro.json` in the working directory.
//!
//! `cargo run --release -p pds2-bench --bin bench_micro`
//! `cargo run --release -p pds2-bench --bin bench_micro -- --smoke`
//!   (CI mode: two sizes per sweep, three samples, looser assertions)

use pds2_bench::micro::Micro;
use pds2_chain::address::Address;
use pds2_chain::mempool::{Mempool, SelectionStats};
use pds2_chain::smt::{self, SmtTree};
use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
use pds2_core::authenticity::{Device, ManufacturerRegistry, ReadingVerifier};
use pds2_crypto::schnorr::{verify_batch, BatchItem};
use pds2_crypto::sha256::{self, sha256, Sha256};
use pds2_crypto::{Digest, Encode, KeyPair, PublicKey, Signature};
use pds2_gov::dkg::{run_dkg, ThresholdParams};
use pds2_gov::sign::{nonce_commitment, partial_sign, NonceGuard};
use pds2_gov::{sign_with_quorum, SigningSession, ValidatorShare};
use pds2_net::{Ctx, LinkModel, Node, NodeId, SchedulerKind, Simulator, Topology};
use pds2_obs as obs;
use pds2_tee::oblivious::{o_access, o_sort};
use rand::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// How much to run: `--smoke` takes three samples of a sixteenth of the
/// iterations over two small sizes of each sweep.
#[derive(Clone, Copy)]
struct Mode {
    smoke: bool,
    samples: usize,
}

impl Mode {
    fn iters(self, full: usize) -> usize {
        if self.smoke {
            (full / 16).max(1)
        } else {
            full
        }
    }

    /// Samples of a hand-timed region: three where one is `seconds_long`.
    fn sample_count(self, seconds_long: bool) -> usize {
        if seconds_long {
            3
        } else {
            self.samples
        }
    }
}

/// `@1k`, `@100k`, `@1M`: the suffix of a row in a size sweep.
fn size_suffix(n: usize) -> String {
    if n.is_multiple_of(1_000_000) {
        format!("@{}M", n / 1_000_000)
    } else if n.is_multiple_of(1_000) {
        format!("@{}k", n / 1_000)
    } else {
        format!("@{n}")
    }
}

// ---------------------------------------------------------------------
// The hash kernel (DESIGN.md §5d) and the yardstick.
// ---------------------------------------------------------------------

/// Returns `crypto.schnorr.verify_us` (a key seen before), the quantity
/// four assertions divide by.
fn crypto_rows(m: &mut Micro, mode: Mode) -> f64 {
    // Whatever kernel this CPU dispatches to must agree with the
    // portable loop on a 64-block message before either is timed: the
    // two rows are only comparable as the same function.
    const LEN: usize = 64 * 64;
    let mut padded = [0u8; LEN + 64];
    for (i, b) in padded[..LEN].iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31);
    }
    padded[LEN] = 0x80;
    padded[LEN + 56..].copy_from_slice(&(LEN as u64 * 8).to_be_bytes());
    let mut state = [
        0x6a09e667u32,
        0xbb67ae85,
        0x3c6ef372,
        0xa54ff53a,
        0x510e527f,
        0x9b05688c,
        0x1f83d9ab,
        0x5be0cd19,
    ];
    sha256::compress_portable(&mut state, &padded);
    let portable: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
    assert_eq!(
        sha256(&padded[..LEN]).as_bytes()[..],
        portable[..],
        "{} kernel disagrees with the portable compression",
        sha256::backend()
    );

    let (samples, iters) = (mode.samples, mode.iters(100_000));
    let block = &padded[..64];
    m.time(
        "crypto.sha256.compress_portable_ns",
        "ns",
        samples,
        iters,
        || sha256::compress_portable(black_box(&mut state), black_box(block)),
    );
    let mut hasher = Sha256::new();
    m.time("crypto.sha256.compress_ns", "ns", samples, iters, || {
        hasher.update(black_box(block));
    });
    black_box(hasher.finalize());
    let (left, right) = (sha256(b"left"), sha256(b"right"));
    m.time("chain.smt.node_hash_ns", "ns", samples, iters, || {
        black_box(smt::node_hash(black_box(&left), black_box(&right)));
    });
    m.time("crypto.digest.short_ns", "ns", samples, iters, || {
        black_box(black_box(&left).short());
    });

    signature_rows(m, mode)
}

/// Microseconds per call of `f` over `iters` back-to-back calls.
fn time_block(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// The single and batched signature rows, sampled in rounds: a round
/// times one block of each, so a slow spell of the host lands on every
/// row alike and the assertions between them compare like with like.
/// Blocks, not single calls: alternating known and first calls one by
/// one read the known row about 10 % high against the first-key row.
///
/// * `crypto.schnorr.verify_us`: one verification under a key seen
///   before, cycling over 32 messages;
/// * `crypto.schnorr.verify_first_key_us`: one under a key this thread
///   has not verified under before, which builds the key's rows
///   (DESIGN.md §5d); every call takes a fresh key;
/// * `crypto.schnorr.verify_batch_us_per_sig@n`: one batched check of
///   `n` signatures under `n` distinct keys (what a block of transfers
///   from distinct senders is), divided by `n`. The benchmark sees this
///   only as a block's `validate_cold_us_per_tx` at its own block size.
///
/// Returns `verify_us`.
fn signature_rows(m: &mut Micro, mode: Mode) -> f64 {
    const SIZES: [usize; 3] = [8, 64, 256];
    let kp = KeyPair::from_seed(7);
    let known: Vec<_> = (0..32u64)
        .map(|i| (i.to_le_bytes(), kp.sign(&i.to_le_bytes())))
        .collect();
    let iters = mode.iters(512);
    let fresh: Vec<_> = (0..(mode.samples * iters) as u64)
        .map(|i| {
            let kp = KeyPair::from_seed(0xF125_7000 + i);
            (kp.sign(b"first"), kp.public)
        })
        .collect();
    let signed: Vec<_> = (0..*SIZES.last().expect("not empty") as u64)
        .map(|i| {
            let kp = KeyPair::from_seed(0xBA7C + i);
            let msg = sha256(&i.to_le_bytes());
            (kp.sign(msg.as_bytes()), kp.public, msg)
        })
        .collect();
    let items: Vec<BatchItem<'_>> = signed
        .iter()
        .map(|(sig, key, msg)| (key, &msg.as_bytes()[..], sig))
        .collect();
    // One untimed call of each: the known key's rows are built here.
    assert!(kp.public.verify(&known[0].0, &known[0].1));
    for n in SIZES {
        assert!(verify_batch(&items[..n]));
    }
    let (mut known_us, mut first_us) = (Vec::new(), Vec::new());
    let mut batch_us = vec![Vec::new(); SIZES.len()];
    let (mut next_known, mut next_fresh) = (0, fresh.iter());
    for _ in 0..mode.samples {
        known_us.push(time_block(iters, || {
            let (msg, sig) = &known[next_known % known.len()];
            next_known += 1;
            assert!(kp.public.verify(msg, sig));
        }));
        first_us.push(time_block(iters, || {
            let (sig, key) = next_fresh.next().expect("one fresh key per call");
            assert!(key.verify(b"first", sig));
        }));
        for (samples, n) in batch_us.iter_mut().zip(SIZES) {
            let batches = mode.iters(512 / n).max(1);
            samples.push(
                time_block(batches, || assert!(verify_batch(black_box(&items[..n])))) / n as f64,
            );
        }
    }
    let verify_us = m.record("crypto.schnorr.verify_us", "us", &mut known_us);
    let first_key_us = m.record("crypto.schnorr.verify_first_key_us", "us", &mut first_us);
    // What the rows buy: a key seen before costs well under what its first
    // verification does.
    assert!(
        verify_us <= 0.6 * first_key_us,
        "a known key's verify ({verify_us:.1} us) exceeds 0.6x a first one ({first_key_us:.1} us)"
    );
    let per_sig: Vec<f64> = (batch_us.iter_mut().zip(SIZES))
        .map(|(samples, n)| {
            let name = format!("crypto.schnorr.verify_batch_us_per_sig@{n}");
            m.record(&name, "us", samples)
        })
        .collect();
    // The reason the batch exists: a block-sized one costs well under
    // half a single check per signature, and a larger one costs less.
    assert!(
        per_sig[2] < per_sig[0] && per_sig[2] < 0.5 * verify_us,
        "batched {per_sig:?} us per signature against {verify_us:.1} us single"
    );
    verify_us
}

/// Times one verification under `key`, cycling over 32 messages signed
/// by `sign`; returns the row's median.
fn verify_row(
    m: &mut Micro,
    mode: Mode,
    name: &str,
    key: &PublicKey,
    sign: impl Fn(&[u8]) -> Signature,
) -> f64 {
    let signed: Vec<_> = (0..32u64)
        .map(|i| (i.to_le_bytes(), sign(&i.to_le_bytes())))
        .collect();
    let mut next = 0;
    m.time(name, "us", mode.samples, mode.iters(512), || {
        let (msg, sig) = &signed[next % signed.len()];
        next += 1;
        assert!(key.verify(msg, sig));
    })
}

// ---------------------------------------------------------------------
// Threshold governance (DESIGN.md §5i, E20): blocks are sealed by one
// proposer key, so no benchmark workload signs with a committee.
// ---------------------------------------------------------------------

fn gov_rows(m: &mut Micro, mode: Mode, verify_us: f64) {
    let params = ThresholdParams::majority(7);
    let of = format!("{}of{}", params.t, params.n);
    let samples = mode.samples;
    m.time(
        &format!("gov.dkg_{of}_ms"),
        "ms",
        samples,
        mode.iters(16),
        || {
            run_dkg(0xD6, params).expect("valid params");
        },
    );

    let (committee, shares) = run_dkg(0xBE9C, params).expect("valid params");
    let quorum: Vec<&ValidatorShare> = shares.iter().take(params.t).collect();
    let msg = b"bench partial";
    let nonces: Vec<_> = quorum
        .iter()
        .map(|s| (s.index, nonce_commitment(s, msg, 0)))
        .collect();
    // One long-lived guard per signer, as a real member would hold; the
    // repeated transcript is identical, so re-signing is idempotent.
    let mut guards: Vec<NonceGuard> = quorum.iter().map(|_| NonceGuard::new()).collect();
    m.time("gov.partial_sign_us", "us", samples, mode.iters(64), || {
        partial_sign(quorum[0], &committee, msg, 0, &nonces, &mut guards[0]).expect("member signs");
    });
    let partials: Vec<_> = quorum
        .iter()
        .zip(guards.iter_mut())
        .map(|(s, g)| partial_sign(s, &committee, msg, 0, &nonces, g).expect("member signs"))
        .collect();
    m.time(
        &format!("gov.aggregate_{of}_us"),
        "us",
        samples,
        mode.iters(64),
        || {
            let mut session =
                SigningSession::new(&committee, msg, 0, nonces.clone()).expect("quorum set");
            for p in &partials {
                session.offer(&committee, p).expect("honest partial");
            }
            let sig = session.aggregate(&committee).expect("aggregates");
            assert!(committee.group_public().verify(msg, &sig));
        },
    );

    let aggregate_us = verify_row(
        m,
        mode,
        "gov.verify_aggregate_us",
        committee.group_public(),
        |msg| sign_with_quorum(&committee, &quorum, msg).expect("quorum signs"),
    );
    // The aggregate is a plain Schnorr signature under the group key,
    // so the chain pays for a committee seal what it pays for any other.
    assert!(
        aggregate_us <= 3.0 * verify_us,
        "aggregate verify {aggregate_us:.1} us exceeds 3x single-key verify {verify_us:.1} us"
    );
}

// ---------------------------------------------------------------------
// State commitment against state size (DESIGN.md §5f, E18): the
// benchmark holds 100k accounts.
// ---------------------------------------------------------------------

/// Leaves touched per simulated block.
const TOUCH: u64 = 256;
/// Bytes per slot of the tree's leaf and internal-node arrays (pinned
/// by a `smt` unit test).
const LEAF_SLOT_BYTES: u64 = 96;
const INTERNAL_SLOT_BYTES: u64 = 40;

fn key(i: u64) -> Digest {
    sha256(&i.to_le_bytes())
}

fn val(i: u64, round: u64) -> Digest {
    sha256(&[i.to_le_bytes(), round.to_le_bytes()].concat())
}

/// The touched-key batch for one simulated block: a deterministic spread
/// of existing keys (updates) plus a few fresh ones (inserts).
fn touch_batch(n: u64, round: u64) -> Vec<(Digest, Option<Digest>)> {
    let stride = (n / TOUCH).max(1);
    let mut ups: Vec<(Digest, Option<Digest>)> = (0..TOUCH - 8)
        .map(|i| (key((i * stride) % n), Some(val(i, round))))
        .collect();
    ups.extend((0..8).map(|i| (key(n + round * 8 + i), Some(val(n + i, round)))));
    ups
}

fn smt_rows(m: &mut Micro, mode: Mode) {
    let sweep: &[u64] = if mode.smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    for &n in sweep {
        let at = size_suffix(n as usize);
        let leaves: Vec<(Digest, Digest)> = (0..n).map(|i| (key(i), val(i, 0))).collect();

        // The cost a node without a snapshot pays. Three samples where
        // one is most of a second; the previous tree is freed first so
        // million-leaf trees do not pile up.
        let mut builds = Vec::new();
        let mut built = None;
        for _ in 0..mode.sample_count(n >= 1_000_000) {
            let input = leaves.clone();
            drop(built.take());
            let t = Instant::now();
            built = Some(SmtTree::from_leaves(input));
            builds.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let build_ms = m.record(&format!("chain.smt.build_ms{at}"), "ms", &mut builds);
        let (mut tree, build_hashed) = built.expect("built at least once");
        // A fresh build hashes each node once, so the hash count gives
        // the internal-node count.
        let leaf_slots = tree.len() as u64;
        m.count(
            &format!("chain.smt.tree_bytes{at}"),
            "bytes",
            leaf_slots * LEAF_SLOT_BYTES + (build_hashed - leaf_slots) * INTERNAL_SLOT_BYTES,
        );

        let probe = key(n / 2);
        let proof = tree.prove(&probe);
        m.count(
            &format!("chain.smt.proof_bytes{at}"),
            "bytes",
            proof.to_bytes().len() as u64,
        );
        m.count(
            &format!("chain.smt.proof_siblings{at}"),
            "count",
            proof.siblings.len() as u64,
        );
        let root = tree.root_hash();
        let want = tree.get(&probe).expect("probe key present");
        m.time(
            &format!("chain.smt.proof_verify_us{at}"),
            "us",
            mode.samples,
            mode.iters(2_000),
            || assert!(proof.verify_inclusion(&root, &probe, &want)),
        );

        // Successive blocks on one tree, as a chain applies them.
        let mut commits = Vec::with_capacity(mode.samples);
        for round in 1..=mode.samples as u64 {
            let batch = touch_batch(n, round);
            let t = Instant::now();
            let hashed = tree.commit(batch);
            commits.push(t.elapsed().as_secs_f64() * 1e3);
            if round == 1 {
                m.count(
                    &format!("chain.smt.commit_256_nodes_hashed{at}"),
                    "count",
                    hashed,
                );
            }
        }
        let commit_ms = m.record(&format!("chain.smt.commit_256_ms{at}"), "ms", &mut commits);
        // Why the state is a tree: a block costs its touched paths, not
        // the state. Asserted where the gap is far outside timing noise.
        if !mode.smoke && n >= 100_000 {
            assert!(
                build_ms >= 10.0 * commit_ms,
                "a 256-leaf commit ({commit_ms:.3} ms) must cost under a tenth of \
                 rebuilding {n} leaves ({build_ms:.1} ms)"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Admission and selection against pool depth (E17): the default
// capacity is 1 << 20 and `mempool_flood` holds 16 000.
// ---------------------------------------------------------------------

/// Per-block selection budget; the sweep is bounded by it, not by gas.
const SELECT_TXS: usize = 512;

/// SplitMix64 finalizer: deterministic fee jitter without an RNG.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `accounts` senders, each with a gapless run of nonces, interleaved
/// round-robin in arrival order, fees jittered deterministically. The
/// pool never verifies signatures (the chain does before insert), so
/// one donor signature is reused.
fn build_corpus(accounts: usize, per_account: usize) -> Vec<SignedTransaction> {
    let donor_sig = KeyPair::from_seed(99).sign(b"mempool-bench-donor");
    let keys: Vec<KeyPair> = (0..accounts as u64)
        .map(|i| KeyPair::from_seed(100_000 + i))
        .collect();
    let bob = Address::of(&KeyPair::from_seed(2).public);
    let mut txs = Vec::with_capacity(accounts * per_account);
    for nonce in 0..per_account as u64 {
        for (a, kp) in keys.iter().enumerate() {
            let r = mix(nonce.wrapping_mul(accounts as u64) + a as u64);
            let max_fee = 2 + r % 10_000;
            txs.push(SignedTransaction::new(
                Transaction {
                    from: kp.public.clone(),
                    nonce,
                    kind: TxKind::Transfer { to: bob, amount: 1 },
                    gas_limit: 50_000,
                    max_fee_per_gas: max_fee,
                    priority_fee_per_gas: 1 + mix(r) % max_fee,
                },
                donor_sig.clone(),
            ));
        }
    }
    txs
}

fn mempool_rows(m: &mut Micro, mode: Mode) {
    let sweep: &[(usize, usize)] = if mode.smoke {
        &[(1_000, 50), (10_000, 100)]
    } else {
        &[(10_000, 100), (100_000, 500), (1_000_000, 1_000)]
    };
    for &(pending, accounts) in sweep {
        let corpus = build_corpus(accounts, pending / accounts);
        assert_eq!(corpus.len(), pending);
        // Every fill is an insert sample and every fresh pool gives a
        // selection at full depth. The million-transaction fill is
        // seconds long: three fills, and successive selections from
        // each (which drain under 1 % of the pool).
        let fills = mode.sample_count(pending >= 1_000_000);
        let (mut inserts, mut selects) = (Vec::new(), Vec::new());
        for _ in 0..fills {
            let arrivals = corpus.clone();
            let mut pool = Mempool::new(pending + 1);
            let mut evicted = Vec::new();
            let t = Instant::now();
            for tx in arrivals {
                pool.insert(tx, 0, u64::MAX, &mut evicted)
                    .expect("corpus admission");
            }
            inserts.push(t.elapsed().as_secs_f64() * 1e6 / pending as f64);
            assert!(evicted.is_empty() && pool.len() == pending);

            let mut nonces: HashMap<Address, u64> = HashMap::new();
            let mut stats = SelectionStats::default();
            for _ in 0..mode.samples.div_ceil(fills) {
                let t = Instant::now();
                let selected = pool.select(
                    0,
                    u64::MAX,
                    SELECT_TXS,
                    |a| nonces.get(a).copied().unwrap_or(0),
                    &mut stats,
                );
                selects.push(t.elapsed().as_secs_f64() * 1e6);
                assert_eq!(selected.len(), SELECT_TXS);
                for tx in &selected {
                    nonces.insert(tx.tx.sender(), tx.tx.nonce + 1);
                }
            }
        }
        let at = size_suffix(pending);
        m.record(&format!("chain.mempool.insert_us{at}"), "us", &mut inserts);
        m.record(
            &format!("chain.mempool.select_{SELECT_TXS}_us{at}"),
            "us",
            &mut selects,
        );
    }
}

// ---------------------------------------------------------------------
// The event scheduler against fleet size (DESIGN.md §5h, E19): the
// benchmark's fleet is seven nodes.
// ---------------------------------------------------------------------

/// Baseline timer period (µs) of the pulse workload.
const PULSE_PERIOD_US: u64 = 300_000;
/// Staggered periodic timers armed per node: the pending set holds
/// `TIMERS_PER_NODE × nodes` timer entries plus everything in flight,
/// which is what separates O(1) wheel ops from O(log n) heap ops.
const TIMERS_PER_NODE: u64 = 16;

/// A fanout/reply protocol with several staggered timers per node, so
/// at 100k nodes the pending set holds hundreds of thousands of events
/// and scheduler cost dominates per-event work.
struct Pulse {
    sent: u64,
}

impl Node for Pulse {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        for k in 0..TIMERS_PER_NODE {
            let jitter = ctx.rng().random_range(0..PULSE_PERIOD_US);
            ctx.set_timer(jitter + 1, k);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        if msg.is_multiple_of(16) {
            ctx.send(from, msg | 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
        self.sent += 1;
        // Heartbeat-fleet shape: most timer fires are silent liveness
        // checks; every fourth fire gossips to a random peer.
        if self.sent.is_multiple_of(4) {
            let value = (self.sent << 3) | tag;
            if let Some(peer) = ctx.random_peer() {
                ctx.send(peer, value);
            }
        }
        ctx.set_timer(PULSE_PERIOD_US + tag * 37, tag);
    }

    fn msg_size(_msg: &u64) -> u64 {
        64
    }

    fn msg_digest(msg: &u64) -> u64 {
        msg.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

/// One untraced run: `(events processed, wheel cascades, wall seconds of
/// run_until alone)`; fleet set-up is not timed.
fn pulse_run(n: usize, horizon_us: u64, kind: SchedulerKind) -> (u64, u64, f64) {
    let seed = 0xE19 + n as u64;
    let nodes = (0..n).map(|_| Pulse { sent: 0 }).collect();
    let topo = Topology::five_continents(seed).with_slowdown_spread(1024, 3072);
    let mut sim = Simulator::with_scheduler(nodes, LinkModel::regional(topo), seed, kind);
    let t = Instant::now();
    let events = sim.run_until(horizon_us);
    (events, sim.sched_cascades(), t.elapsed().as_secs_f64())
}

fn sched_rows(m: &mut Micro, mode: Mode) {
    // Horizons shrink with the fleet so every size processes a few
    // hundred thousand to a few million events. A run is seconds long
    // at the top of the sweep: three a side.
    let sweep: &[(usize, u64)] = if mode.smoke {
        &[(1_000, 1_000_000), (5_000, 600_000)]
    } else {
        &[
            (1_000, 5_000_000),
            (10_000, 1_250_000),
            (100_000, 400_000),
            (200_000, 200_000),
        ]
    };
    let runs = if mode.smoke { 1 } else { 3 };
    let mut best_ratio_at_scale = 0.0f64;
    for &(n, horizon_us) in sweep {
        let at = size_suffix(n);
        let (mut wheel, mut heap) = (Vec::new(), Vec::new());
        for run in 0..runs {
            let (events, cascades, wheel_s) = pulse_run(n, horizon_us, SchedulerKind::Wheel);
            let (heap_events, _, heap_s) = pulse_run(n, horizon_us, SchedulerKind::Heap);
            assert_eq!(events, heap_events, "event counts diverged at {n} nodes");
            wheel.push(events as f64 / wheel_s);
            heap.push(events as f64 / heap_s);
            if run == 0 {
                m.count(&format!("net.sched.events{at}"), "count", events);
                m.count(&format!("net.sched.wheel_cascades{at}"), "count", cascades);
            }
        }
        let wheel_per_s = m.record(
            &format!("net.sched.wheel_events_per_s{at}"),
            "1/s",
            &mut wheel,
        );
        let heap_per_s = m.record(
            &format!("net.sched.heap_events_per_s{at}"),
            "1/s",
            &mut heap,
        );
        if n >= 100_000 {
            best_ratio_at_scale = best_ratio_at_scale.max(wheel_per_s / heap_per_s);
        }
    }
    // Six readings of the 100k ratio on one host spanned 4.45–5.61, so
    // the floor sits well under them; E19 states the measured ratio.
    if !mode.smoke {
        assert!(
            best_ratio_at_scale >= 3.0,
            "the wheel must beat the heap 3x from 100k nodes (best {best_ratio_at_scale:.2}x)"
        );
    }
}

// ---------------------------------------------------------------------
// Tracing switched off (E15): the benchmark reports what an active
// capture costs, never what the disabled sites cost.
// ---------------------------------------------------------------------

fn obs_rows(m: &mut Micro, mode: Mode, verify_us: f64) {
    assert!(!obs::enabled(), "site timing requires tracing disabled");
    // One round is what `validate_external_block` wraps a check in, in
    // the two forms a site can take: the one `span` opened and dropped
    // and the one `event!` (an `enabled()` gate), with a counter bumped.
    let mut round = 0u64;
    let site_ns = m.time(
        "obs.disabled_site_ns",
        "ns",
        mode.samples,
        mode.iters(100_000),
        || {
            round += 1;
            let span = obs::span(
                "bench",
                "disabled_site",
                obs::Stamp::Block(black_box(round)),
                obs::TraceCtx::NONE,
                Vec::new(),
            );
            obs::counter!("test.bench_micro.disabled_site").inc();
            obs::event!(
                "bench",
                "disabled_site.done",
                obs::Stamp::Block(round),
                span.ctx()
            );
        },
    );
    // "Off" must mean off: a disabled round per signature check has to
    // vanish beside the check itself.
    let budget = if mode.smoke { 0.05 } else { 0.01 };
    assert!(
        site_ns < budget * verify_us * 1e3,
        "a disabled site round ({site_ns:.1} ns) exceeds {budget} of one signature \
         verification ({verify_us:.1} us)"
    );
}

// ---------------------------------------------------------------------
// Readings per signed batch (§IV-B). The benchmark's
// `core.authenticity.reading_verify_us` times 64 batches of one, each a
// signature check; what a reading costs inside a batch is a sweep over
// something it fixes.
// ---------------------------------------------------------------------

fn authenticity_rows(m: &mut Micro, mode: Mode) {
    let mut registry = ManufacturerRegistry::new();
    let manufacturer = KeyPair::from_seed(1);
    registry.register_manufacturer(manufacturer.public.clone());
    let mut device = Device::new(1);
    registry.endorse(&manufacturer, &device).unwrap();
    const BATCHES: [usize; 3] = [1, 32, 256];
    let readings: Vec<Vec<_>> = BATCHES
        .iter()
        .map(|&batch| {
            (0..(mode.iters(1024) / batch).max(1))
                .flat_map(|_| device.sign_batch((0..batch).map(|i| (0, vec![i as f64; 4], 1.0))))
                .collect()
        })
        .collect();
    // A verifier refuses what it has seen: each sample is a new one, so
    // every batch root is checked cold once. A round times every size
    // once, so a slow spell of the host lands on the rows the assertion
    // compares alike.
    let mut samples = vec![Vec::new(); BATCHES.len()];
    for _ in 0..mode.samples {
        for (taken, readings) in samples.iter_mut().zip(&readings) {
            let mut verifier = ReadingVerifier::new(&registry);
            let t = Instant::now();
            for r in readings {
                verifier.verify(black_box(r)).expect("honest reading");
            }
            taken.push(t.elapsed().as_secs_f64() * 1e6 / readings.len() as f64);
        }
    }
    let per_reading: Vec<f64> = (samples.iter_mut().zip(BATCHES))
        .map(|(taken, batch)| {
            let name = format!("core.authenticity.verify_us_per_reading@{batch}");
            m.record(&name, "us", taken)
        })
        .collect();
    assert!(
        per_reading[1] <= per_reading[0] / 8.0,
        "a reading in a batch of 32 ({:.2} us) must cost at most an eighth of one \
         signed alone ({:.2} us)",
        per_reading[1],
        per_reading[0]
    );
}

// ---------------------------------------------------------------------
// The §III-B oblivious primitives against their trace-leaking
// counterpart: no lifecycle reaches them.
// ---------------------------------------------------------------------

fn tee_rows(m: &mut Micro, mode: Mode) {
    let data: Vec<u64> = (0..256u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let (samples, iters) = (mode.samples, mode.iters(2_000));
    m.time("tee.oblivious.sort_256_us", "us", samples, iters, || {
        let mut v = data.clone();
        o_sort(&mut v);
        black_box(v);
    });
    m.time(
        "tee.oblivious.std_sort_256_us",
        "us",
        samples,
        iters,
        || {
            let mut v = data.clone();
            v.sort_unstable();
            black_box(v);
        },
    );
    m.time(
        "tee.oblivious.access_256_ns",
        "ns",
        samples,
        mode.iters(100_000),
        || {
            black_box(o_access(black_box(&data), 77));
        },
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mode = Mode {
        smoke,
        samples: if smoke { 3 } else { 11 },
    };
    let mut m = Micro::new(smoke);
    let verify_us = crypto_rows(&mut m, mode);
    gov_rows(&mut m, mode, verify_us);
    smt_rows(&mut m, mode);
    mempool_rows(&mut m, mode);
    sched_rows(&mut m, mode);
    obs_rows(&mut m, mode, verify_us);
    authenticity_rows(&mut m, mode);
    tee_rows(&mut m, mode);
    m.finish("BENCH_micro.json");
}
