//! Decode-robustness: every parser that faces bytes from the network or
//! the chain must reject hostile input with an error — never panic, never
//! over-allocate.

use pds2::market::authenticity::SignedReading;
use pds2::market::certificate::ParticipationCertificate;
use pds2::market::workload::WorkloadSpec;
use pds2::market::WorkloadState;
use pds2::storage::semantic::Requirement;
use pds2_chain::block::BlockHeader;
use pds2_chain::erc20::Erc20Op;
use pds2_chain::erc721::Erc721Op;
use pds2_chain::tx::SignedTransaction;
use pds2_crypto::codec::Decode;
use pds2_crypto::{PublicKey, Signature};
use proptest::prelude::*;

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..512)
}

macro_rules! fuzz_decode {
    ($name:ident, $ty:ty) => {
        proptest! {
            #[test]
            fn $name(bytes in arbitrary_bytes()) {
                // Must return Ok or Err, never panic or hang.
                let _ = <$ty>::from_bytes(&bytes);
            }
        }
    };
}

fuzz_decode!(signed_transaction_never_panics, SignedTransaction);
fuzz_decode!(block_header_never_panics, BlockHeader);
fuzz_decode!(signature_never_panics, Signature);
fuzz_decode!(public_key_never_panics, PublicKey);
fuzz_decode!(erc20_op_never_panics, Erc20Op);
fuzz_decode!(erc721_op_never_panics, Erc721Op);
fuzz_decode!(workload_spec_never_panics, WorkloadSpec);
fuzz_decode!(signed_reading_never_panics, SignedReading);
fuzz_decode!(certificate_never_panics, ParticipationCertificate);
fuzz_decode!(requirement_never_panics, Requirement);
fuzz_decode!(smt_proof_never_panics, pds2_chain::SmtProof);
fuzz_decode!(merkle_proof_never_panics, pds2_crypto::MerkleProof);
fuzz_decode!(partial_sig_never_panics, pds2_gov::PartialSig);

proptest! {
    #[test]
    fn workload_state_never_panics(bytes in arbitrary_bytes()) {
        let _ = WorkloadState::from_snapshot(&bytes);
    }

    /// Bit-flipping a valid encoding either still decodes (to a different
    /// value whose signature then fails) or errors — never panics.
    #[test]
    fn bitflipped_transaction_is_rejected_or_unverifiable(
        flip_at in 0usize..200,
        flip_bit in 0u8..8,
    ) {
        use pds2_chain::address::Address;
        use pds2_chain::tx::{Transaction, TxKind};
        use pds2_crypto::{Encode, KeyPair};
        let kp = KeyPair::from_seed(1);
        let tx = Transaction {
            from: kp.public.clone(),
            nonce: 3,
            kind: TxKind::Transfer {
                to: Address::of(&KeyPair::from_seed(2).public),
                amount: 77,
            },
            gas_limit: 55_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&kp);
        let mut bytes = tx.to_bytes();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        match SignedTransaction::from_bytes(&bytes) {
            Err(_) => {} // malformed: rejected at decode
            Ok(decoded) => {
                // Structurally valid: the signature must catch the change.
                prop_assert!(
                    !decoded.verify_signature() || decoded == tx,
                    "bit flip must invalidate the signature"
                );
            }
        }
    }

    /// Bit-flipping a valid threshold partial signature on the wire must
    /// either fail to decode or be rejected by the aggregator's
    /// dual-exponentiation check — a byzantine shareholder cannot smuggle
    /// a corrupted partial into an aggregate.
    #[test]
    fn bitflipped_partial_sig_is_rejected_or_unverifiable(
        flip_at in 0usize..200,
        flip_bit in 0u8..8,
    ) {
        use pds2_crypto::Encode;
        use pds2_gov::dkg::{run_dkg_quiet, ThresholdParams};
        use pds2_gov::sign::{nonce_commitment, partial_sign, NonceGuard};
        use pds2_gov::{PartialSig, SigningSession};

        let params = ThresholdParams::new(3, 4).unwrap();
        let (committee, shares) = run_dkg_quiet(0xF122, params).unwrap();
        let msg = b"wire partial";
        let nonces: Vec<(u64, _)> = shares[..3]
            .iter()
            .map(|s| (s.index, nonce_commitment(s, msg, 0)))
            .collect();
        let partial =
            partial_sign(&shares[0], &committee, msg, 0, &nonces, &mut NonceGuard::new()).unwrap();
        let mut bytes = partial.to_bytes();
        let idx = flip_at % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        match PartialSig::from_bytes(&bytes) {
            Err(_) => {} // malformed: rejected at decode
            Ok(decoded) => {
                let mut session =
                    SigningSession::new(&committee, msg, 0, nonces.clone()).unwrap();
                prop_assert!(
                    session.offer(&committee, &decoded).is_err() || decoded == partial,
                    "flipped partial must fail the dual-exp check"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse-Merkle-proof mutations: a light client accepts state only
// through `verify_proof` against a header root, so every mutation of a
// serialized proof — truncation at every prefix length, a bit flip at
// every position, swapping any two sibling hashes — must either fail to
// decode or fail verification. Exercised for both inclusion and
// non-inclusion proofs from a seeded 64-leaf tree.
// ---------------------------------------------------------------------------

mod smt_proof_mutations {
    use pds2_chain::smt::{verify_proof, SmtProof, SmtTree};
    use pds2_crypto::codec::{Decode, Encode};
    use pds2_crypto::{sha256, Digest};

    fn key(i: u64) -> Digest {
        sha256(&i.to_le_bytes())
    }

    fn value_bytes(i: u64) -> Vec<u8> {
        format!("leaf-value-{i}").into_bytes()
    }

    /// A 64-leaf tree; keys 0..64 are present, everything else absent.
    fn fixture() -> (SmtTree, Digest) {
        let leaves: Vec<(Digest, Digest)> =
            (0..64).map(|i| (key(i), sha256(&value_bytes(i)))).collect();
        let (tree, _) = SmtTree::from_leaves(leaves);
        let root = tree.root_hash();
        (tree, root)
    }

    /// The value a verifier would check for probe key `i`, honoring the
    /// fixture's present/absent split.
    fn expected_value(i: u64) -> Option<Vec<u8>> {
        (i < 64).then(|| value_bytes(i))
    }

    /// Probe keys: a present one (inclusion) and an absent one whose
    /// path ends at a mismatched witness leaf or an empty subtree
    /// (non-inclusion).
    const PROBES: [u64; 4] = [3, 41, 130, 9_999];

    #[test]
    fn smt_proof_roundtrip_covers_inclusion_and_absence() {
        let (tree, root) = fixture();
        for i in (0..64).chain(100..164) {
            let proof = tree.prove(&key(i));
            let back = SmtProof::from_bytes(&proof.to_bytes()).expect("roundtrip decodes");
            assert_eq!(back, proof);
            let value = expected_value(i);
            assert!(
                verify_proof(&root, &key(i), value.as_deref(), &back),
                "round-tripped proof must verify for key {i}"
            );
            // The same proof must not prove the opposite claim.
            let opposite = match value {
                Some(_) => None,
                None => Some(value_bytes(i)),
            };
            assert!(
                !verify_proof(&root, &key(i), opposite.as_deref(), &back),
                "proof proved the opposite claim for key {i}"
            );
        }
    }

    #[test]
    fn truncated_smt_proof_never_verifies() {
        let (tree, root) = fixture();
        for i in PROBES {
            let wire = tree.prove(&key(i)).to_bytes();
            let value = expected_value(i);
            for len in 0..wire.len() {
                if let Ok(p) = SmtProof::from_bytes(&wire[..len]) {
                    assert!(
                        !verify_proof(&root, &key(i), value.as_deref(), &p),
                        "key {i}: truncation to {len}/{} bytes still verifies",
                        wire.len()
                    );
                }
            }
        }
    }

    #[test]
    fn bitflipped_smt_proof_never_verifies() {
        let (tree, root) = fixture();
        for i in PROBES {
            let wire = tree.prove(&key(i)).to_bytes();
            let value = expected_value(i);
            for idx in 0..wire.len() {
                for bit in 0..8 {
                    let mut bytes = wire.clone();
                    bytes[idx] ^= 1 << bit;
                    if let Ok(p) = SmtProof::from_bytes(&bytes) {
                        assert!(
                            !verify_proof(&root, &key(i), value.as_deref(), &p),
                            "key {i}: flip at byte {idx} bit {bit} still verifies"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sibling_swapped_smt_proof_never_verifies() {
        let (tree, root) = fixture();
        for i in PROBES {
            let proof = tree.prove(&key(i));
            let value = expected_value(i);
            let n = proof.siblings.len();
            assert!(n > 1, "key {i}: proof too shallow to swap");
            for a in 0..n {
                for b in a + 1..n {
                    if proof.siblings[a] == proof.siblings[b] {
                        // Swapping identical digests (e.g. two empty
                        // subtrees) is byte-identical — not a mutation.
                        continue;
                    }
                    let mut mutated = proof.clone();
                    mutated.siblings.swap(a, b);
                    assert!(
                        !verify_proof(&root, &key(i), value.as_deref(), &mutated),
                        "key {i}: swapping siblings {a}<->{b} still verifies"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Corrupted-in-flight variants: the exact damage the chaos layer's
// byzantine links inflict — truncation at every prefix length and a bit
// flip at every byte position — applied exhaustively to the codecs that
// cross the simulated network (tx, block, gossip model). Every variant
// must produce `Err` or a semantically-rejected value; none may panic.
// ---------------------------------------------------------------------------

mod corrupted_in_flight {
    use pds2_chain::address::Address;
    use pds2_chain::block::Block;
    use pds2_chain::chain::Blockchain;
    use pds2_chain::contract::ContractRegistry;
    use pds2_chain::tx::{SignedTransaction, Transaction, TxKind};
    use pds2_crypto::codec::{Decode, Encode};
    use pds2_crypto::KeyPair;
    use pds2_learning::gossip::GossipMsg;

    fn sample_transaction() -> SignedTransaction {
        let kp = KeyPair::from_seed(1);
        Transaction {
            from: kp.public.clone(),
            nonce: 9,
            kind: TxKind::Transfer {
                to: Address::of(&KeyPair::from_seed(2).public),
                amount: 1_234,
            },
            gas_limit: 90_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&kp)
    }

    fn sample_block() -> Block {
        let alice = KeyPair::from_seed(1);
        let mut chain = Blockchain::single_validator(
            55,
            &[(Address::of(&alice.public), 10_000)],
            ContractRegistry::new(),
        );
        chain
            .submit(
                Transaction {
                    from: alice.public.clone(),
                    nonce: 0,
                    kind: TxKind::Transfer {
                        to: Address::of(&KeyPair::from_seed(2).public),
                        amount: 5,
                    },
                    gas_limit: 100_000,
                    max_fee_per_gas: 0,
                    priority_fee_per_gas: 0,
                }
                .sign(&alice),
            )
            .unwrap();
        chain.produce_block()
    }

    fn sample_gossip_msg() -> GossipMsg {
        GossipMsg::new(vec![0.25, -1.5, 3.75, 0.0], 17, true)
    }

    /// Decoding every strict prefix must error — truncation in flight can
    /// never yield a usable value, let alone a panic.
    fn assert_truncation_rejected<T: Decode>(wire: &[u8], what: &str) {
        for len in 0..wire.len() {
            assert!(
                T::from_bytes(&wire[..len]).is_err(),
                "{what}: truncation to {len}/{} bytes decoded successfully",
                wire.len()
            );
        }
    }

    #[test]
    fn truncated_transaction_always_errors() {
        assert_truncation_rejected::<SignedTransaction>(&sample_transaction().to_bytes(), "tx");
    }

    #[test]
    fn truncated_block_always_errors() {
        assert_truncation_rejected::<Block>(&sample_block().to_bytes(), "block");
    }

    #[test]
    fn truncated_gossip_msg_always_errors() {
        assert_truncation_rejected::<GossipMsg>(&sample_gossip_msg().to_bytes(), "gossip");
    }

    #[test]
    fn bitflipped_transaction_every_position() {
        let tx = sample_transaction();
        let wire = tx.to_bytes();
        for idx in 0..wire.len() {
            for bit in 0..8 {
                let mut bytes = wire.clone();
                bytes[idx] ^= 1 << bit;
                if let Ok(decoded) = SignedTransaction::from_bytes(&bytes) {
                    assert!(
                        !decoded.verify_signature() || decoded == tx,
                        "flip at byte {idx} bit {bit} produced a different tx \
                         with a valid signature"
                    );
                }
            }
        }
    }

    #[test]
    fn bitflipped_block_every_position() {
        let block = sample_block();
        let wire = block.to_bytes();
        for idx in 0..wire.len() {
            for bit in 0..8 {
                let mut bytes = wire.clone();
                bytes[idx] ^= 1 << bit;
                if let Ok(decoded) = Block::from_bytes(&bytes) {
                    // A decodable mutant must be caught by the block's own
                    // integrity checks: proposer signature over the header,
                    // or the tx-root commitment over the body.
                    let intact = decoded.header.verify_signature()
                        && decoded.header.tx_root == Block::compute_tx_root(&decoded.transactions)
                        && decoded.transactions.iter().all(|t| t.verify_signature());
                    assert!(
                        !intact || decoded == block,
                        "flip at byte {idx} bit {bit} produced a different block \
                         passing all integrity checks"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_signature_always_errors() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"truncation probe");
        assert_truncation_rejected::<pds2_crypto::Signature>(&sig.to_bytes(), "signature");
    }

    #[test]
    fn truncated_public_key_always_errors() {
        let kp = KeyPair::from_seed(7);
        assert_truncation_rejected::<pds2_crypto::PublicKey>(&kp.public.to_bytes(), "public key");
    }

    /// A bit-flipped signature encoding either fails to decode or decodes
    /// to a signature the (unchanged) key rejects — on both the fast and
    /// the schoolbook verification paths.
    #[test]
    fn bitflipped_signature_every_position() {
        let kp = KeyPair::from_seed(7);
        let msg = b"bit flip probe";
        let sig = kp.sign(msg);
        let wire = sig.to_bytes();
        for idx in 0..wire.len() {
            for bit in 0..8 {
                let mut bytes = wire.clone();
                bytes[idx] ^= 1 << bit;
                if let Ok(decoded) = pds2_crypto::Signature::from_bytes(&bytes) {
                    let fast = kp.public.verify(msg, &decoded);
                    let reference = kp.public.verify_reference(msg, &decoded);
                    assert_eq!(fast, reference, "paths split at byte {idx} bit {bit}");
                    assert!(
                        !fast || decoded == sig,
                        "flip at byte {idx} bit {bit} produced a different \
                         signature that still verifies"
                    );
                }
            }
        }
    }

    /// A bit-flipped public-key encoding either fails to decode or decodes
    /// to a key that rejects the original signature — again identically on
    /// both verification paths.
    #[test]
    fn bitflipped_public_key_every_position() {
        let kp = KeyPair::from_seed(7);
        let msg = b"bit flip probe";
        let sig = kp.sign(msg);
        let wire = kp.public.to_bytes();
        for idx in 0..wire.len() {
            for bit in 0..8 {
                let mut bytes = wire.clone();
                bytes[idx] ^= 1 << bit;
                if let Ok(decoded) = pds2_crypto::PublicKey::from_bytes(&bytes) {
                    let fast = decoded.verify(msg, &sig);
                    let reference = decoded.verify_reference(msg, &sig);
                    assert_eq!(fast, reference, "paths split at byte {idx} bit {bit}");
                    assert!(
                        !fast || decoded == kp.public,
                        "flip at byte {idx} bit {bit} produced a different \
                         key accepting the original signature"
                    );
                }
            }
        }
    }

    #[test]
    fn bitflipped_gossip_msg_every_position() {
        let msg = sample_gossip_msg();
        let wire = msg.to_bytes();
        for idx in 0..wire.len() {
            for bit in 0..8 {
                let mut bytes = wire.clone();
                bytes[idx] ^= 1 << bit;
                if let Ok(decoded) = GossipMsg::from_bytes(&bytes) {
                    assert!(
                        !decoded.verify() || decoded == msg,
                        "flip at byte {idx} bit {bit} survived the content digest"
                    );
                }
            }
        }
    }
}
