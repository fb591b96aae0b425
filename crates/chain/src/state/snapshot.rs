//! The recovery snapshot: the whole state as one byte string.

use super::{ContractInstance, WorldState};
use crate::address::{Account, Address};
use crate::backend::BackendKind;
use crate::contract::ContractRegistry;
use pds2_crypto::codec::{Decode, Decoder, Encode, Encoder};

/// Encoded bytes of one account entry: address, balance, nonce.
const ACCOUNT_ENTRY_LEN: usize = 32 + 16 + 8;

impl WorldState {
    /// Serializes the complete state for a recovery snapshot. Contracts
    /// are stored as `(code_id, deployer, init, snapshot)` so restore
    /// can revive each instance through the registry constructor — the
    /// construction that succeeded at deploy time succeeds again.
    pub(crate) fn encode_snapshot(&self, enc: &mut Encoder) {
        enc.put_u64(self.accounts.len() as u64);
        for (addr, acct) in &self.accounts {
            addr.encode(enc);
            acct.encode(enc);
        }
        self.erc20.encode(enc);
        self.erc721.encode(enc);
        enc.put_u64(self.contracts.len() as u64);
        for (addr, inst) in &self.contracts {
            addr.encode(enc);
            enc.put_str(&inst.code_id);
            inst.deployer.encode(enc);
            enc.put_bytes(&inst.init);
            enc.put_bytes(&inst.committed);
        }
        enc.put_u128(self.burned);
    }

    /// Rebuilds a state from a snapshot on the `backend` the restoring
    /// chain runs. The backend holds no tree yet, so the first
    /// `state_root()` builds it from the restored maps.
    pub(crate) fn decode_snapshot(
        dec: &mut Decoder<'_>,
        registry: &ContractRegistry,
        backend: BackendKind,
    ) -> Result<WorldState, String> {
        let fail = |e: pds2_crypto::DecodeError| format!("snapshot decode: {e:?}");
        let mut st = WorldState::with_backend(backend);
        // The entries were written in key order, so the map is bulk-built
        // from them (a repeated key keeps its last value, as inserts
        // would). The count is held to what the slot can still hold
        // before anything is sized from it.
        let count = dec.get_u64().map_err(fail)?;
        let count = dec.bounded_count(count, ACCOUNT_ENTRY_LEN).map_err(fail)?;
        let mut accounts = Vec::with_capacity(count);
        for _ in 0..count {
            let addr = Address::decode(dec).map_err(fail)?;
            accounts.push((addr, Account::decode(dec).map_err(fail)?));
        }
        st.accounts = accounts.into_iter().collect();
        st.erc20 = crate::erc20::Erc20Module::decode(dec).map_err(fail)?;
        st.erc721 = crate::erc721::Erc721Module::decode(dec).map_err(fail)?;
        for _ in 0..dec.get_u64().map_err(fail)? {
            let addr = Address::decode(dec).map_err(fail)?;
            let code_id = dec.get_str().map_err(fail)?;
            let deployer = Address::decode(dec).map_err(fail)?;
            let init = dec.get_bytes().map_err(fail)?;
            let snap = dec.get_bytes().map_err(fail)?;
            let mut contract = registry
                .instantiate(&code_id, deployer, &init)
                .map_err(|e| format!("snapshot revive {code_id}: {e}"))?;
            contract
                .restore(&snap)
                .map_err(|e| format!("snapshot restore {code_id}: {e}"))?;
            // Re-encoded rather than kept: a slot's bytes that decode
            // need not be the canonical encoding the root commits to.
            st.contracts.insert(
                addr,
                ContractInstance {
                    code_id,
                    deployer,
                    init,
                    committed: contract.snapshot(),
                    contract,
                },
            );
        }
        st.burned = dec.get_u128().map_err(fail)?;
        // The supply is not in the slot: it is the sum of the balances.
        st.native_supply = st
            .accounts
            .values()
            .try_fold(0u128, |sum, a| sum.checked_add(a.balance))
            .ok_or("snapshot: native supply overflows")?;
        Ok(st)
    }
}
