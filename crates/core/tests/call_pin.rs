//! The workload contract's wire forms and one scripted run, pinned.
//!
//! Two things are compared against constants. The bytes of one sample of
//! each call form and of two deploy-init forms, written field by field so
//! the layout can be read off. And one script on a single-validator chain,
//! one transaction per block, that sends every call in the phase it belongs
//! to and in one it does not, walks every revert the contract has, and ends
//! five workloads five ways (paid out, cancelled, expired, aborted, paid
//! out with nothing to pay): every receipt's success, gas, error, output
//! and events, every balance the script can move, and each contract's last
//! snapshot. A change to `contract.rs` that moves a byte of an input, a
//! unit of gas, an error string, an event or the order of two checks fails
//! here. This is to `contract.rs` what `lifecycle_pin.rs` is to
//! `marketplace/` and `crates/chain/tests/state_pin.rs` to `state/`.

use pds2_chain::address::Address;
use pds2_chain::chain::Blockchain;
use pds2_chain::contract::ContractRegistry;
use pds2_chain::erc20::{Erc20Op, TokenId};
use pds2_chain::tx::{Transaction, TxKind};
use pds2_core::contract::{Call, Init, WorkloadContract, WorkloadState, WORKLOAD_CODE_ID};
use pds2_crypto::codec::{Decode, Encode};
use pds2_crypto::sha256::sha256;
use pds2_crypto::KeyPair;
use std::num::NonZeroU32;

// Generated at 57ea5ea, the commit before the call and init forms got one
// owner each, with that commit's builders (one function per call in a
// `calls` module, a nine-argument init builder on `WorkloadContract`,
// `WorkloadState::from_snapshot`). Since then the expressions that build
// an input or read a snapshot were rewritten (`Call::… .to_bytes()`,
// `Init { … }.to_bytes()`, `WorkloadState::from_bytes`), the comparison
// reports every moved row at once, and seven receipts moved, each marked
// `Moved` below with what it was. All seven are malformed inputs, which
// now fail where the input is parsed: before the phase and the sender are
// looked at, and having charged nothing but the base 5 000 (the cut
// participation had been charged for the row before the cut). No other
// receipt, no balance and no snapshot moved.
//
// At 2b6b005 the execution timeout was a `u64` and 0 meant "none". It is
// now a non-zero `u32`: four bytes shorter on the wire and never zero, so
// every workload can be aborted once Executing. The two init forms, the
// seven deploy receipts (64 gas less for four fewer init bytes), the row
// where a stranger's ABORT of A met "no timeout", now a refused deploy of
// A's terms with a zero timeout, and the five snapshots (each holds its
// init) moved, each marked `Moved` below with what it was. The heights,
// every other receipt and every balance held.

/// One sample of each form, field by field: a call is `tag ‖ fields`, a
/// count is a `u64`, every integer little-endian.
const FORMS: &[(&str, &[&str])] = &[
    ("fund", &["00"]),
    ("register_executor", &["01"]),
    ("submit_participation/0", &["02", "0000000000000000"]),
    (
        "submit_participation/1",
        &[
            "02",
            "0100000000000000",
            "169b5b823c62b64ca7e5f8456a13c8d5d06f4ece522a58bc2b8a784dcf3609b0",
            "1400000000000000",
            "263b0cd24d60b99eccbf84810fb5ed5cc5b12d2cdda410ab50f64dee88e023c6",
        ],
    ),
    (
        "submit_participation/2",
        &[
            "02",
            "0200000000000000",
            "169b5b823c62b64ca7e5f8456a13c8d5d06f4ece522a58bc2b8a784dcf3609b0",
            "1400000000000000",
            "263b0cd24d60b99eccbf84810fb5ed5cc5b12d2cdda410ab50f64dee88e023c6",
            "f64551fcd6f07823cb87971cfb91446425da18286b3ab1ef935e0cbd7a69f68a",
            "ffffffffffffffff",
            "9449c7f3a93cf0c55a675ddf1c83732d87d56255e70b150d9e6f3cf863bb7fc1",
        ],
    ),
    ("start", &["03"]),
    (
        "submit_result",
        &[
            "04",
            "9372c470eeadd5ecd9c3c74c2b3cb633f8e2f2fad799250a0f70d652b6b825e4",
        ],
    ),
    ("finalize/0", &["05", "0000000000000000"]),
    (
        "finalize/3",
        &[
            "05",
            "0300000000000000",
            "169b5b823c62b64ca7e5f8456a13c8d5d06f4ece522a58bc2b8a784dcf3609b0",
            "b80b0000000000000000000000000000",
            "f64551fcd6f07823cb87971cfb91446425da18286b3ab1ef935e0cbd7a69f68a",
            "00000000000000000000000000000000",
            "3946ca64ff78d93ca61090a437cbb6b3d2ca0d488f5f9ccf3059608368b27693",
            "ffffffffffffffffffffffffffffffff",
        ],
    ),
    ("cancel", &["06"]),
    ("expire", &["07"]),
    ("abort", &["08"]),
    (
        "init/native",
        &[
            "d4f02eaafd1a9e9de7d10972ca8e47fa7a985825c3c9c1e249c72683cb3e4f19",
            "5694d08a2e53ffcae0c3103e5ad6f6076abd960eb1f8a56577040bc1028f702b",
            "10270000000000000000000000000000",
            "f4010000000000000000000000000000",
            "02000000",
            "0a00000000000000",
            "0000000000000000",
            // Moved. At 2b6b005: "0000000000000000" (no timeout)
            "40000000",
            "00",
        ],
    ),
    (
        "init/token",
        &[
            "d4f02eaafd1a9e9de7d10972ca8e47fa7a985825c3c9c1e249c72683cb3e4f19",
            "5694d08a2e53ffcae0c3103e5ad6f6076abd960eb1f8a56577040bc1028f702b",
            "ffffffffffffffffffffffffffffffff",
            "01000000000000000000000000000000",
            "ffffffff",
            "0700000000000000",
            "e803000000000000",
            // Moved. At 2b6b005: "0200000000000000"
            "02000000",
            "01",
            "0300000000000000",
        ],
    ),
];

/// `label | gas | outcome | events` of every transaction of the script, in
/// order.
const RECEIPTS: &[&str] = &[
    // Moved. At 2b6b005: gas=56856
    "deploy A | gas=56792 | ok out= | contract.deploy{code=pds2-workload-v1 addr=0x3a855116 by=0xbe66cd65}",
    // Moved. At 2b6b005: gas=56856
    "deploy B | gas=56792 | ok out= | contract.deploy{code=pds2-workload-v1 addr=0x6e5f51a3 by=0xbe66cd65}",
    // Moved. At 2b6b005: gas=56856
    "deploy C | gas=56792 | ok out= | contract.deploy{code=pds2-workload-v1 addr=0x82b9a1fd by=0xbe66cd65}",
    // Moved. At 2b6b005: gas=56984
    "deploy D | gas=56920 | ok out= | contract.deploy{code=pds2-workload-v1 addr=0x63be8b1e by=0xbe66cd65}",
    // Moved. At 2b6b005: gas=56856
    "deploy E | gas=56792 | ok out= | contract.deploy{code=pds2-workload-v1 addr=0x8f56239d by=0xbe66cd65}",
    // Moved. At 2b6b005: gas=56872
    "deploy: trailing byte | gas=56808 | ERR bad input: trailing bytes after decode | ",
    // Moved. At 2b6b005: gas=56936
    "deploy: cut short | gas=56872 | ERR bad input: unexpected end of input | ",
    "C fund | gas=31131 | ok out= | workload.funded{by=0xbe66cd65 total=900}",
    "C expire: at the deadline | gas=30756 | ERR reverted: deadline 8 not reached at height 8 | ",
    "A fund: no value | gas=30756 | ERR reverted: funding requires value | ",
    "A fund | gas=31131 | ok out= | workload.funded{by=0xbe66cd65 total=11000}",
    "A fund: by an executor | gas=31131 | ok out= | workload.funded{by=0x681eeba2 total=11500}",
    "A start: nothing to start | gas=30756 | ERR reverted: start conditions not met: providers 0/2, records 0/10, funded 11500/10000 | ",
    "A register | gas=31131 | ok out= | workload.executor_registered{executor=0x39df3966}",
    "A register | gas=31131 | ok out= | workload.executor_registered{executor=0x2149f668}",
    "A register | gas=31131 | ok out= | workload.executor_registered{executor=0x681eeba2}",
    "A register: twice | gas=30756 | ERR reverted: executor already registered | ",
    "A participation: stranger | gas=32036 | ERR reverted: unregistered executor | ",
    "A participation: no rows | gas=30884 | ok out= | ",
    "A participation: two rows | gas=35538 | ok out= | workload.participation{provider=0x169b5b82 records=20 executor=0x39df3966 cert=263b0cd2} workload.participation{provider=0xf64551fc records=30 executor=0x39df3966 cert=9449c7f3}",
    "A participation: second row empty | gas=34363 | ERR reverted: empty contribution | ",
    "A participation: second row claimed twice | gas=34363 | ERR reverted: provider 0x169b5b82 already contributed | ",
    "A participation: one row | gas=33211 | ok out= | workload.participation{provider=0x3946ca64 records=25 executor=0x2149f668 cert=cdf9e092}",
    "A open: submit_result | gas=31268 | ERR reverted: wrong phase: expected Executing, contract is Open | ",
    "A open: finalize | gas=31652 | ERR reverted: wrong phase: expected Executing, contract is Open | ",
    "A open: abort | gas=30756 | ERR reverted: wrong phase: expected Executing, contract is Open | ",
    "A cancel: executor | gas=30756 | ERR reverted: only the consumer may cancel | ",
    "A expire: no deadline | gas=30756 | ERR reverted: workload has no deadline | ",
    // Moved. At 57ea5ea: gas=30740 | ERR bad input: empty input
    "A malformed: empty input | gas=30740 | ERR bad input: unexpected end of input | ",
    // Moved. At 57ea5ea: gas=30756 | ERR bad input: unknown method 9
    "A malformed: unknown tag | gas=30756 | ERR bad input: invalid tag byte 9 | ",
    // Moved. At 57ea5ea: gas=34283 | ERR bad input: unexpected end of input
    "A malformed: participation cut in its second row | gas=33108 | ERR bad input: length prefix exceeds input | ",
    // Moved. At 57ea5ea: gas=30884 | ERR bad input: unexpected end of input
    "A malformed: participation count 2^60 | gas=30884 | ERR bad input: length prefix exceeds input | ",
    // Moved. At 57ea5ea: gas=32020 | ERR reverted: unregistered executor
    "A malformed: participation cut, from a stranger | gas=32020 | ERR bad input: length prefix exceeds input | ",
    // Moved. At 57ea5ea: gas=30884 | ERR reverted: wrong phase: expected Executing, contract is Open
    "A malformed: finalize count with no rows, while open | gas=30884 | ERR bad input: length prefix exceeds input | ",
    // Moved. At 57ea5ea: gas=30772 | ERR reverted: start conditions not met: providers 0/2, records 0/10, funded 0/10000
    "B malformed: start and one byte, nothing to start | gas=30772 | ERR bad input: trailing bytes after decode | ",
    "A start | gas=31131 | ok out= | workload.started{providers=3 records=75 executors=3}",
    "A executing: fund | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Executing | ",
    "A executing: register_executor | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Executing | ",
    "A executing: submit_participation | gas=32036 | ERR reverted: wrong phase: expected Open, contract is Executing | ",
    "A executing: start | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Executing | ",
    "A executing: cancel | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Executing | ",
    "A executing: expire | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Executing | ",
    // Moved. At 2b6b005: "A abort: no timeout", a stranger's ABORT of A
    // while Executing, gas=30756, reverted because A had no timeout.
    "deploy: no timeout | gas=56792 | ERR bad input: invalid value: zero execution timeout | ",
    "A result: stranger | gas=31268 | ERR reverted: unregistered executor | ",
    "A result | gas=31643 | ok out= | workload.result_submitted{executor=0x39df3966 result=bf5b6382}",
    "A result: twice | gas=31268 | ERR reverted: result already submitted | ",
    "A finalize: a contributing executor is silent | gas=31652 | ERR reverted: results outstanding from contributing executor 0x2149f668 | ",
    "A result | gas=31643 | ok out= | workload.result_submitted{executor=0x681eeba2 result=ccdd3516}",
    "A result | gas=31643 | ok out= | workload.result_submitted{executor=0x2149f668 result=bf5b6382}",
    "A malformed: result cut short | gas=31252 | ERR bad input: unexpected end of input | ",
    "A malformed: finalize count with no rows | gas=30884 | ERR bad input: length prefix exceeds input | ",
    "A finalize: share for a stranger | gas=32420 | ERR reverted: share for non-contributor 0x43bb00d0 | ",
    "A finalize: more than the pool | gas=32420 | ERR reverted: shares 10001 exceed reward pool 10000 | ",
    "A finalize: shares that wrap | gas=32420 | ERR reverted: shares 340282366920938463463374607431768211455 exceed reward pool 10000 | ",
    "A finalize | gas=33938 | ok out=bf5b6382c2ea46ede3117c0250a9abf431ddf38fca4d50462e5834d09b1b33ef | workload.slashed{executor=0x681eeba2} workload.completed{result=bf5b6382 providers_paid=3 total_paid=8000}",
    "A completed: fund | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Completed | ",
    "A completed: register_executor | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Completed | ",
    "A completed: submit_participation | gas=32036 | ERR reverted: wrong phase: expected Open, contract is Completed | ",
    "A completed: start | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Completed | ",
    "A completed: submit_result | gas=31268 | ERR reverted: wrong phase: expected Executing, contract is Completed | ",
    "A completed: finalize | gas=31652 | ERR reverted: wrong phase: expected Executing, contract is Completed | ",
    "A completed: cancel | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Completed | ",
    "A completed: expire | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Completed | ",
    "A completed: abort | gas=30756 | ERR reverted: wrong phase: expected Executing, contract is Completed | ",
    "B fund | gas=31131 | ok out= | workload.funded{by=0xbe66cd65 total=700}",
    "B cancel | gas=31131 | ok out= | workload.cancelled{by=0xbe66cd65}",
    "B cancelled: fund | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Cancelled | ",
    "B cancelled: cancel | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Cancelled | ",
    "B cancelled: expire | gas=30756 | ERR reverted: wrong phase: expected Open, contract is Cancelled | ",
    "token create | gas=27792 | ok out=0000000000000000 | erc20.create{token=0 symbol=RWD supply=5000}",
    "D fund: nothing sent yet | gas=30756 | ERR reverted: no new token escrow: balance 0, recorded 0 | ",
    "token to D | gas=28256 | ok out= | erc20.transfer{token=0 from=0xbe66cd65 to=0x63be8b1e amount=700}",
    "D fund: native value | gas=30756 | ERR reverted: token-denominated workload takes no native value | ",
    "D fund | gas=31131 | ok out= | workload.funded{by=0xbe66cd65 total=700}",
    "D fund: nothing new | gas=30756 | ERR reverted: no new token escrow: balance 700, recorded 700 | ",
    "D register | gas=31131 | ok out= | workload.executor_registered{executor=0x39df3966}",
    "D register | gas=31131 | ok out= | workload.executor_registered{executor=0x2149f668}",
    "D participation | gas=33211 | ok out= | workload.participation{provider=0x169b5b82 records=3 executor=0x39df3966 cert=263b0cd2}",
    "D start: records short | gas=30756 | ERR reverted: start conditions not met: providers 1/1, records 3/5, funded 700/700 | ",
    "D participation | gas=33211 | ok out= | workload.participation{provider=0xf64551fc records=3 executor=0x2149f668 cert=9449c7f3}",
    "D start | gas=31131 | ok out= | workload.started{providers=2 records=6 executors=2}",
    "D abort: too early | gas=30756 | ERR reverted: execution timeout 82 not reached at height 81 | ",
    "D result | gas=31643 | ok out= | workload.result_submitted{executor=0x39df3966 result=bf5b6382}",
    "D result | gas=31643 | ok out= | workload.result_submitted{executor=0x2149f668 result=ccdd3516}",
    "D finalize: one against one | gas=31652 | ERR reverted: no 2/3 agreement: best 1/2 | ",
    "D abort | gas=31131 | ok out= | workload.aborted{by=0x66477f03 at_height=85} erc20.contract_payout{token=0 from=0x63be8b1e to=0xbe66cd65 amount=700}",
    "D aborted: submit_result | gas=31268 | ERR reverted: wrong phase: expected Executing, contract is Cancelled | ",
    "D aborted: finalize | gas=31652 | ERR reverted: wrong phase: expected Executing, contract is Cancelled | ",
    "D aborted: abort | gas=30756 | ERR reverted: wrong phase: expected Executing, contract is Cancelled | ",
    "E register | gas=31131 | ok out= | workload.executor_registered{executor=0x39df3966}",
    "E start | gas=31131 | ok out= | workload.started{providers=0 records=0 executors=1}",
    "E finalize: no results | gas=30884 | ERR reverted: no results submitted | ",
    "E result | gas=31643 | ok out= | workload.result_submitted{executor=0x39df3966 result=bf5b6382}",
    "E finalize | gas=31259 | ok out=bf5b6382c2ea46ede3117c0250a9abf431ddf38fca4d50462e5834d09b1b33ef | workload.completed{result=bf5b6382 providers_paid=0 total_paid=0}",
    "C expire | gas=31131 | ok out= | workload.expired{by=0x66477f03 at_height=94}",
];

/// `address native token` of every key, provider and contract at the end.
const BALANCES: &[&str] = &[
    "0xbe66cd65 native=992500 token=5000",
    "0x39df3966 native=10500 token=0",
    "0x2149f668 native=10500 token=0",
    "0x681eeba2 native=9500 token=0",
    "0x66477f03 native=0 token=0",
    "0x169b5b82 native=3000 token=0",
    "0xf64551fc native=0 token=0",
    "0x3946ca64 native=4000 token=0",
    "0x43bb00d0 native=0 token=0",
    "0x3a855116 native=0 token=0",
    "0x6e5f51a3 native=0 token=0",
    "0x82b9a1fd native=0 token=0",
    "0x63be8b1e native=0 token=0",
    "0x8f56239d native=0 token=0",
];

/// `name phase sha256(snapshot)` of each contract at the end.
const SNAPSHOTS: &[&str] = &[
    // Moved. At 2b6b005: 1822754250762c4a1c6131c0c9d7d71f02c3af7a3ac8eb8bd5e3452b8ab5aa8e
    "A Completed be9275101c89dab26b950de15ec96b034d9afad8bcb52f8b388b58ed49385436",
    // Moved. At 2b6b005: 9665afd508a57b25e05d817abf7c8c2db93d2dde3146972cd17de441460dcea7
    "B Cancelled 8b2dbf1f9393191c1114caaf4fe299a9152094305b641620935e4b2b7591eca5",
    // Moved. At 2b6b005: d2b70818d272c58469c936bb52bb6e63ce0fc9801f93af078a68fea30e7fba78
    "C Cancelled 7ee164060322b5a267ba161acd0afc8057bcfc1dcae0da6cbabcc8f23e7f1e03",
    // Moved. At 2b6b005: 6e8381b06fdf840c2a84a4cb4d51279bbdc9417869e210b286de32e9bfb22261
    "D Cancelled 16d5fb1203d80de5acb6a75ca4a299590512c367cff892adbdb4c546823ef305",
    // Moved. At 2b6b005: 82e8b91f703151607d9ec6060e9624aed3fffb719265d9610798dda86f716676
    "E Completed 1381f4fb0a7a4353f9f78ff80243d9e4d74f65b190b3a9ecb4618638c8729ba8",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// An address that is its tag's hash: nobody holds its key.
fn named(tag: &str) -> Address {
    Address(sha256(tag.as_bytes()))
}

fn forms() -> Vec<(&'static str, Vec<u8>)> {
    let (p0, p1, p2) = (named("p0"), named("p1"), named("p2"));
    let (c0, c1) = (sha256(b"cert0"), sha256(b"cert1"));
    vec![
        ("fund", Call::Fund.to_bytes()),
        ("register_executor", Call::RegisterExecutor.to_bytes()),
        (
            "submit_participation/0",
            Call::SubmitParticipation(vec![]).to_bytes(),
        ),
        (
            "submit_participation/1",
            Call::SubmitParticipation(vec![(p0, 20, c0)]).to_bytes(),
        ),
        (
            "submit_participation/2",
            Call::SubmitParticipation(vec![(p0, 20, c0), (p1, u64::MAX, c1)]).to_bytes(),
        ),
        ("start", Call::Start.to_bytes()),
        (
            "submit_result",
            Call::SubmitResult(sha256(b"model")).to_bytes(),
        ),
        ("finalize/0", Call::Finalize(vec![]).to_bytes()),
        (
            "finalize/3",
            Call::Finalize(vec![(p0, 3_000), (p1, 0), (p2, u128::MAX)]).to_bytes(),
        ),
        ("cancel", Call::Cancel.to_bytes()),
        ("expire", Call::Expire.to_bytes()),
        ("abort", Call::Abort.to_bytes()),
        (
            "init/native",
            Init {
                spec_hash: sha256(b"spec"),
                code_measurement: sha256(b"code"),
                provider_reward: 10_000,
                executor_fee: 500,
                min_providers: 2,
                min_records: 10,
                deadline_height: 0,
                exec_timeout_blocks: NonZeroU32::new(64).unwrap(),
                reward_token: None,
            }
            .to_bytes(),
        ),
        (
            "init/token",
            Init {
                spec_hash: sha256(b"spec"),
                code_measurement: sha256(b"code"),
                provider_reward: u128::MAX,
                executor_fee: 1,
                min_providers: u32::MAX,
                min_records: 7,
                deadline_height: 1_000,
                exec_timeout_blocks: NonZeroU32::new(2).unwrap(),
                reward_token: Some(TokenId(3)),
            }
            .to_bytes(),
        ),
    ]
}

#[test]
fn every_wire_form_repeats_byte_for_byte() {
    let forms = forms();
    assert_eq!(forms.len(), FORMS.len());
    for ((name, bytes), (pinned_name, fields)) in forms.iter().zip(FORMS) {
        assert_eq!(name, pinned_name);
        assert_eq!(hex(bytes), fields.concat(), "{name}");
    }
}

const CONSUMER: usize = 0;
const E0: usize = 1;
const E1: usize = 2;
const E2: usize = 3;
const STRANGER: usize = 4;

struct Run {
    chain: Blockchain,
    keys: Vec<KeyPair>,
    rows: Vec<String>,
}

impl Run {
    fn addr(&self, who: usize) -> Address {
        Address::of(&self.keys[who].public)
    }

    /// Sends one transaction in its own block and records its receipt.
    fn send(&mut self, label: &str, who: usize, kind: TxKind) -> Option<Address> {
        let key = self.keys[who].clone();
        let tx = Transaction {
            from: key.public.clone(),
            nonce: self.chain.state.nonce(&Address::of(&key.public)),
            kind,
            gas_limit: 5_000_000,
            max_fee_per_gas: 0,
            priority_fee_per_gas: 0,
        }
        .sign(&key);
        let hash = self.chain.submit(tx).unwrap();
        self.chain.produce_block();
        let r = self.chain.receipt(&hash).unwrap().clone();
        let events: Vec<String> = r
            .events
            .iter()
            .map(|e| format!("{}{{{}}}", e.topic, e.data))
            .collect();
        let outcome = match &r.error {
            None => format!("ok out={}", hex(&r.output)),
            Some(e) => format!("ERR {e}"),
        };
        assert_eq!(r.success, r.error.is_none(), "{label}");
        self.rows.push(format!(
            "{label} | gas={} | {outcome} | {}",
            r.gas_used,
            events.join(" ")
        ));
        r.deployed
    }

    fn deploy(&mut self, label: &str, init: Vec<u8>) -> Address {
        let kind = TxKind::Deploy {
            code_id: WORKLOAD_CODE_ID.into(),
            init,
        };
        self.send(label, CONSUMER, kind).expect("deployed")
    }

    fn call(&mut self, label: &str, who: usize, contract: Address, input: Vec<u8>, value: u128) {
        let kind = TxKind::Call {
            contract,
            input,
            value,
        };
        self.send(label, who, kind);
    }

    /// Every one of the nine calls, well formed, from the key that would
    /// send it, against a contract in a phase that takes none of them.
    fn sweep(&mut self, label: &str, contract: Address, only: &[&str]) {
        let p0 = named("p0");
        let all: [(&str, usize, Vec<u8>, u128); 9] = [
            ("fund", CONSUMER, Call::Fund.to_bytes(), 5),
            (
                "register_executor",
                E2,
                Call::RegisterExecutor.to_bytes(),
                0,
            ),
            (
                "submit_participation",
                E0,
                Call::SubmitParticipation(vec![(named("p3"), 9, sha256(b"cert3"))]).to_bytes(),
                0,
            ),
            ("start", CONSUMER, Call::Start.to_bytes(), 0),
            (
                "submit_result",
                E0,
                Call::SubmitResult(sha256(b"late")).to_bytes(),
                0,
            ),
            (
                "finalize",
                CONSUMER,
                Call::Finalize(vec![(p0, 1)]).to_bytes(),
                0,
            ),
            ("cancel", CONSUMER, Call::Cancel.to_bytes(), 0),
            ("expire", STRANGER, Call::Expire.to_bytes(), 0),
            ("abort", STRANGER, Call::Abort.to_bytes(), 0),
        ];
        for (name, who, input, value) in all {
            if only.is_empty() || only.contains(&name) {
                self.call(&format!("{label}: {name}"), who, contract, input, value);
            }
        }
    }
}

/// `input` with its last `n` bytes cut off.
fn cut(mut input: Vec<u8>, n: usize) -> Vec<u8> {
    input.truncate(input.len() - n);
    input
}

fn script() -> (Vec<String>, Vec<String>, Vec<String>) {
    let keys: Vec<KeyPair> = [1, 100, 101, 102, 55].map(KeyPair::from_seed).into();
    let alloc: Vec<(Address, u128)> = keys
        .iter()
        .zip([1_000_000u128, 10_000, 10_000, 10_000, 0])
        .map(|(k, v)| (Address::of(&k.public), v))
        .collect();
    let mut registry = ContractRegistry::new();
    registry.register(WORKLOAD_CODE_ID, WorkloadContract::construct);
    let mut run = Run {
        chain: Blockchain::single_validator(999, &alloc, registry),
        keys,
        rows: Vec::new(),
    };
    let p: Vec<Address> = ["p0", "p1", "p2", "p3"].map(named).into();
    let cert = |i: usize| sha256(format!("cert{i}").as_bytes());
    let token = TokenId(0);
    let init = |provider_reward: u128,
                executor_fee: u128,
                min_providers: u32,
                min_records: u64,
                deadline_height: u64,
                exec_timeout_blocks: u32,
                reward_token: Option<TokenId>| {
        Init {
            spec_hash: sha256(b"spec"),
            code_measurement: sha256(b"code"),
            provider_reward,
            executor_fee,
            min_providers,
            min_records,
            deadline_height,
            exec_timeout_blocks: NonZeroU32::new(exec_timeout_blocks).unwrap(),
            reward_token,
        }
        .to_bytes()
    };

    // Five workloads: A is paid out, B cancelled, C expires (deadline at
    // height 8), D is token-denominated and aborted, E has no quorum and
    // no reward and is finalized with nothing to pay. D's execution timeout
    // is 2 blocks; the others' 64 are never waited out.
    let a = run.deploy("deploy A", init(10_000, 500, 2, 10, 0, 64, None));
    let b = run.deploy("deploy B", init(10_000, 500, 2, 10, 0, 64, None));
    let c = run.deploy("deploy C", init(10_000, 500, 2, 10, 8, 64, None));
    let d = run.deploy("deploy D", init(600, 50, 1, 5, 1_000, 2, Some(token)));
    let e = run.deploy("deploy E", init(0, 0, 0, 0, 0, 64, None));
    run.send(
        "deploy: trailing byte",
        CONSUMER,
        TxKind::Deploy {
            code_id: WORKLOAD_CODE_ID.into(),
            init: [init(1, 1, 1, 1, 0, 64, None), vec![0]].concat(),
        },
    );
    run.send(
        "deploy: cut short",
        CONSUMER,
        TxKind::Deploy {
            code_id: WORKLOAD_CODE_ID.into(),
            init: cut(init(1, 1, 1, 1, 0, 64, Some(token)), 3),
        },
    );

    // C is funded and asked to expire at its deadline, not after it.
    run.call("C fund", CONSUMER, c, Call::Fund.to_bytes(), 900);
    run.call(
        "C expire: at the deadline",
        STRANGER,
        c,
        Call::Expire.to_bytes(),
        0,
    );

    // A, Open.
    run.call("A fund: no value", CONSUMER, a, Call::Fund.to_bytes(), 0);
    run.call("A fund", CONSUMER, a, Call::Fund.to_bytes(), 11_000);
    run.call("A fund: by an executor", E2, a, Call::Fund.to_bytes(), 500);
    run.call(
        "A start: nothing to start",
        CONSUMER,
        a,
        Call::Start.to_bytes(),
        0,
    );
    for who in [E0, E1, E2] {
        run.call("A register", who, a, Call::RegisterExecutor.to_bytes(), 0);
    }
    run.call(
        "A register: twice",
        E0,
        a,
        Call::RegisterExecutor.to_bytes(),
        0,
    );
    run.call(
        "A participation: stranger",
        STRANGER,
        a,
        Call::SubmitParticipation(vec![(p[0], 20, cert(0))]).to_bytes(),
        0,
    );
    run.call(
        "A participation: no rows",
        E0,
        a,
        Call::SubmitParticipation(vec![]).to_bytes(),
        0,
    );
    run.call(
        "A participation: two rows",
        E0,
        a,
        Call::SubmitParticipation(vec![(p[0], 20, cert(0)), (p[1], 30, cert(1))]).to_bytes(),
        0,
    );
    run.call(
        "A participation: second row empty",
        E1,
        a,
        Call::SubmitParticipation(vec![(p[2], 25, cert(2)), (p[3], 0, cert(3))]).to_bytes(),
        0,
    );
    run.call(
        "A participation: second row claimed twice",
        E1,
        a,
        Call::SubmitParticipation(vec![(p[2], 25, cert(2)), (p[0], 20, cert(0))]).to_bytes(),
        0,
    );
    run.call(
        "A participation: one row",
        E1,
        a,
        Call::SubmitParticipation(vec![(p[2], 25, cert(2))]).to_bytes(),
        0,
    );
    run.sweep("A open", a, &["submit_result", "finalize", "abort"]);
    run.call("A cancel: executor", E0, a, Call::Cancel.to_bytes(), 0);
    run.call(
        "A expire: no deadline",
        STRANGER,
        a,
        Call::Expire.to_bytes(),
        0,
    );
    // Malformed while Open.
    run.call("A malformed: empty input", STRANGER, a, Vec::new(), 0);
    run.call("A malformed: unknown tag", STRANGER, a, vec![9], 0);
    run.call(
        "A malformed: participation cut in its second row",
        E1,
        a,
        cut(
            Call::SubmitParticipation(vec![(p[3], 9, cert(3)), (named("p4"), 9, cert(4))])
                .to_bytes(),
            5,
        ),
        0,
    );
    run.call(
        "A malformed: participation count 2^60",
        E1,
        a,
        [vec![2], (1u64 << 60).to_le_bytes().to_vec()].concat(),
        0,
    );
    run.call(
        "A malformed: participation cut, from a stranger",
        STRANGER,
        a,
        cut(
            Call::SubmitParticipation(vec![(p[3], 9, cert(3))]).to_bytes(),
            1,
        ),
        0,
    );
    run.call(
        "A malformed: finalize count with no rows, while open",
        CONSUMER,
        a,
        [vec![5], 1u64.to_le_bytes().to_vec()].concat(),
        0,
    );
    run.call(
        "B malformed: start and one byte, nothing to start",
        CONSUMER,
        b,
        [Call::Start.to_bytes(), vec![0]].concat(),
        0,
    );
    run.call("A start", CONSUMER, a, Call::Start.to_bytes(), 0);

    // A, Executing.
    run.sweep(
        "A executing",
        a,
        &[
            "fund",
            "register_executor",
            "submit_participation",
            "start",
            "cancel",
            "expire",
        ],
    );
    // A's terms with the timeout written as zero, the field after two
    // digests, two `u128`s, a `u32` and two `u64`s: a workload that could
    // hold its escrow forever is never deployed.
    let mut no_timeout = init(10_000, 500, 2, 10, 0, 64, None);
    no_timeout[116..120].fill(0);
    run.send(
        "deploy: no timeout",
        CONSUMER,
        TxKind::Deploy {
            code_id: WORKLOAD_CODE_ID.into(),
            init: no_timeout,
        },
    );
    let (honest, forged) = (sha256(b"honest"), sha256(b"forged"));
    run.call(
        "A result: stranger",
        STRANGER,
        a,
        Call::SubmitResult(honest).to_bytes(),
        0,
    );
    run.call("A result", E0, a, Call::SubmitResult(honest).to_bytes(), 0);
    run.call(
        "A result: twice",
        E0,
        a,
        Call::SubmitResult(forged).to_bytes(),
        0,
    );
    run.call(
        "A finalize: a contributing executor is silent",
        CONSUMER,
        a,
        Call::Finalize(vec![(p[0], 1)]).to_bytes(),
        0,
    );
    run.call("A result", E2, a, Call::SubmitResult(forged).to_bytes(), 0);
    run.call("A result", E1, a, Call::SubmitResult(honest).to_bytes(), 0);
    run.call(
        "A malformed: result cut short",
        E0,
        a,
        cut(Call::SubmitResult(honest).to_bytes(), 1),
        0,
    );
    run.call(
        "A malformed: finalize count with no rows",
        CONSUMER,
        a,
        [vec![5], 1u64.to_le_bytes().to_vec()].concat(),
        0,
    );
    run.call(
        "A finalize: share for a stranger",
        CONSUMER,
        a,
        Call::Finalize(vec![(p[0], 1), (p[3], 1)]).to_bytes(),
        0,
    );
    run.call(
        "A finalize: more than the pool",
        CONSUMER,
        a,
        Call::Finalize(vec![(p[0], 6_000), (p[1], 4_001)]).to_bytes(),
        0,
    );
    run.call(
        "A finalize: shares that wrap",
        CONSUMER,
        a,
        Call::Finalize(vec![(p[0], u128::MAX), (p[1], 2)]).to_bytes(),
        0,
    );
    run.call(
        "A finalize",
        CONSUMER,
        a,
        Call::Finalize(vec![(p[0], 3_000), (p[1], 0), (p[2], 4_000)]).to_bytes(),
        0,
    );
    run.sweep("A completed", a, &[]);

    // B: funded, then cancelled.
    run.call("B fund", CONSUMER, b, Call::Fund.to_bytes(), 700);
    run.call("B cancel", CONSUMER, b, Call::Cancel.to_bytes(), 0);
    run.sweep("B cancelled", b, &["fund", "cancel", "expire"]);

    // D: escrow in token 0.
    run.send(
        "token create",
        CONSUMER,
        TxKind::Erc20(Erc20Op::Create {
            symbol: "RWD".into(),
            initial_supply: 5_000,
        }),
    );
    run.call(
        "D fund: nothing sent yet",
        CONSUMER,
        d,
        Call::Fund.to_bytes(),
        0,
    );
    run.send(
        "token to D",
        CONSUMER,
        TxKind::Erc20(Erc20Op::Transfer {
            token,
            to: d,
            amount: 700,
        }),
    );
    run.call(
        "D fund: native value",
        CONSUMER,
        d,
        Call::Fund.to_bytes(),
        1,
    );
    run.call("D fund", CONSUMER, d, Call::Fund.to_bytes(), 0);
    run.call("D fund: nothing new", CONSUMER, d, Call::Fund.to_bytes(), 0);
    for who in [E0, E1] {
        run.call("D register", who, d, Call::RegisterExecutor.to_bytes(), 0);
    }
    run.call(
        "D participation",
        E0,
        d,
        Call::SubmitParticipation(vec![(p[0], 3, cert(0))]).to_bytes(),
        0,
    );
    run.call(
        "D start: records short",
        STRANGER,
        d,
        Call::Start.to_bytes(),
        0,
    );
    run.call(
        "D participation",
        E1,
        d,
        Call::SubmitParticipation(vec![(p[1], 3, cert(1))]).to_bytes(),
        0,
    );
    run.call("D start", STRANGER, d, Call::Start.to_bytes(), 0);
    run.call("D abort: too early", STRANGER, d, Call::Abort.to_bytes(), 0);
    run.call("D result", E0, d, Call::SubmitResult(honest).to_bytes(), 0);
    run.call("D result", E1, d, Call::SubmitResult(forged).to_bytes(), 0);
    run.call(
        "D finalize: one against one",
        CONSUMER,
        d,
        Call::Finalize(vec![(p[0], 600)]).to_bytes(),
        0,
    );
    run.call("D abort", STRANGER, d, Call::Abort.to_bytes(), 0);
    run.sweep("D aborted", d, &["submit_result", "finalize", "abort"]);

    // E: no quorum, no reward, no fee.
    run.call("E register", E0, e, Call::RegisterExecutor.to_bytes(), 0);
    run.call("E start", E0, e, Call::Start.to_bytes(), 0);
    run.call(
        "E finalize: no results",
        CONSUMER,
        e,
        Call::Finalize(vec![]).to_bytes(),
        0,
    );
    run.call("E result", E0, e, Call::SubmitResult(honest).to_bytes(), 0);
    run.call(
        "E finalize",
        CONSUMER,
        e,
        Call::Finalize(vec![]).to_bytes(),
        0,
    );

    // C: long past its deadline by now.
    run.call("C expire", STRANGER, c, Call::Expire.to_bytes(), 0);

    let mut balances = Vec::new();
    let contracts = [("A", a), ("B", b), ("C", c), ("D", d), ("E", e)];
    let people = [CONSUMER, E0, E1, E2, STRANGER].map(|who| run.addr(who));
    let everyone = people
        .iter()
        .chain(&p)
        .chain(contracts.iter().map(|(_, addr)| addr));
    for addr in everyone {
        balances.push(format!(
            "{addr} native={} token={}",
            run.chain.state.balance(addr),
            run.chain.state.erc20.balance_of(token, addr)
        ));
    }
    let mut snapshots = Vec::new();
    for (name, addr) in contracts {
        let snapshot = run.chain.state.contract_snapshot(&addr).unwrap();
        let state = WorkloadState::from_bytes(&snapshot).unwrap();
        assert_eq!(state.to_bytes(), snapshot, "{name}");
        snapshots.push(format!(
            "{name} {:?} {}",
            state.phase,
            sha256(&snapshot).to_hex()
        ));
    }
    (run.rows, balances, snapshots)
}

#[test]
fn every_call_in_and_out_of_its_phase_repeats_byte_for_byte() {
    let (rows, balances, snapshots) = script();
    for (name, got, pinned) in [
        ("receipts", &rows, RECEIPTS),
        ("balances", &balances, BALANCES),
        ("snapshots", &snapshots, SNAPSHOTS),
    ] {
        for row in got {
            println!("    \"{row}\",");
        }
        assert_eq!(got.len(), pinned.len(), "{name}");
        let moved: Vec<_> = got.iter().zip(pinned).filter(|(g, p)| g != p).collect();
        assert!(moved.is_empty(), "{name} (got, pinned): {moved:#?}");
    }
}
