//! Registration and data ingestion: who the actors are, how they join the
//! marketplace, and how a provider's devices sign readings, a batch per
//! record, into its storage subsystem.

use super::{
    actor, actor_mut, send, ConsumerAccount, ExecutorAccount, MarketError, Marketplace,
    ProviderAccount,
};
use crate::authenticity::{Device, DeviceId};
use pds2_chain::address::Address;
use pds2_chain::erc20::{Erc20Op, TokenId};
use pds2_chain::erc721::{AssetKind, Erc721Op};
use pds2_chain::tx::TxKind;
use pds2_crypto::codec::Encoder;
use pds2_crypto::schnorr::KeyPair;
use pds2_ml::data::Dataset;
use pds2_storage::semantic::Metadata;
use pds2_storage::store::{LocalStore, Record, RecordId, StorageBackend, ThirdPartyStore};
use pds2_tee::cost::CostModel;
use pds2_tee::platform::Platform;
use std::collections::HashMap;

/// Where a provider keeps its data (the Fig. 3 hardware configurations).
pub enum StorageChoice {
    /// Provider-owned hardware holding plaintext.
    Local,
    /// Outsourced sealed storage publishing metadata at the given detail
    /// level.
    ThirdParty {
        /// Metadata detail level revealed to the operator.
        publish_level: u8,
    },
}

impl Marketplace {
    /// Registers a consumer with initial funds.
    pub fn register_consumer(&mut self, seed: u64, funds: u128) -> Address {
        let keys = KeyPair::from_seed(seed);
        let addr = Address::of(&keys.public);
        self.chain.state.genesis_credit(addr, funds);
        self.consumers.insert(addr, ConsumerAccount { keys });
        addr
    }

    /// Registers a provider with a storage choice (Fig. 3). Either store
    /// is created for the provider's key and honours no one else's grants.
    pub fn register_provider(&mut self, seed: u64, storage: StorageChoice) -> Address {
        let keys = KeyPair::from_seed(seed);
        let addr = Address::of(&keys.public);
        let owner = keys.public.clone();
        let (store, sealing_key): (Box<dyn StorageBackend>, _) = match storage {
            StorageChoice::Local => (Box::new(LocalStore::new(owner)), None),
            StorageChoice::ThirdParty { publish_level } => {
                let key: [u8; 32] = pds2_crypto::hmac::hkdf(
                    b"pds2-provider-store",
                    &seed.to_le_bytes(),
                    b"key",
                    32,
                )
                .try_into()
                .expect("hkdf returns the 32 bytes asked for");
                let store = ThirdPartyStore::new(owner, key, publish_level);
                (Box::new(store), Some(key))
            }
        };
        self.providers.insert(
            addr,
            ProviderAccount {
                keys,
                store,
                sealing_key,
                devices: Vec::new(),
                reading_counts: HashMap::new(),
            },
        );
        addr
    }

    /// Registers an executor with its own TEE-capable platform.
    pub fn register_executor(&mut self, seed: u64) -> Address {
        self.register_executor_with_cost_model(seed, CostModel::default())
    }

    /// Registers an executor with an explicit TEE cost model (ablation A2).
    pub fn register_executor_with_cost_model(&mut self, seed: u64, model: CostModel) -> Address {
        let keys = KeyPair::from_seed(seed);
        let addr = Address::of(&keys.public);
        let platform = Platform::new(seed, model);
        self.attestation
            .register_platform(platform.attestation_key());
        self.executors.insert(
            addr,
            ExecutorAccount {
                keys,
                platform,
                enclaves: HashMap::new(),
                crashed: false,
                recover_at_height: None,
            },
        );
        addr
    }

    /// Creates an ERC-20 reward token minted to the consumer — used to
    /// denominate workloads in fungible tokens instead of native currency.
    pub fn consumer_create_reward_token(
        &mut self,
        consumer: Address,
        symbol: &str,
        supply: u128,
    ) -> Result<TokenId, MarketError> {
        let keys = &actor(&self.consumers, &consumer, "consumer")?.keys;
        let receipt = send(
            &mut self.chain,
            self.current_trace,
            keys,
            TxKind::Erc20(Erc20Op::Create {
                symbol: symbol.to_string(),
                initial_supply: supply,
            }),
        )?;
        Ok(TokenId(u64::from_le_bytes(
            receipt.output[..8]
                .try_into()
                .expect("create returns token id"),
        )))
    }

    /// Provisions a manufacturer-endorsed device for a provider.
    pub fn provider_add_device(&mut self, provider: Address) -> Result<DeviceId, MarketError> {
        let seed = self.next_device_seed;
        self.next_device_seed += 1;
        let device = Device::new(seed);
        self.manufacturers
            .endorse(&self.manufacturer_keys, &device)
            .expect("platform manufacturer is registered");
        let id = device.id();
        actor_mut(&mut self.providers, &provider, "provider")?
            .devices
            .push(device);
        Ok(id)
    }

    /// A provider's device signs `data` as one batch (one signature, an
    /// inclusion path per reading); the signed readings are stored as one
    /// record in the provider's storage subsystem and registered on-chain
    /// as a dataset NFT.
    pub fn provider_ingest(
        &mut self,
        provider: Address,
        device_index: usize,
        data: &Dataset,
        metadata: Metadata,
    ) -> Result<RecordId, MarketError> {
        let now = self.now;
        let account = actor_mut(&mut self.providers, &provider, "provider")?;
        let device = account
            .devices
            .get_mut(device_index)
            .ok_or(MarketError::UnknownActor("device"))?;
        let readings = device.sign_batch(
            data.x
                .iter()
                .zip(&data.y)
                .enumerate()
                .map(|(i, (row, &y))| (now + i as u64, row.clone(), y)),
        );
        let mut enc = Encoder::new();
        enc.put_seq(&readings);
        let record = Record {
            payload: enc.finish(),
            metadata,
            timestamp: now,
        };
        let id = account.store.put(record);
        account.reading_counts.insert(id, readings.len() as u64);

        // Register the dataset on-chain as an NFT committing to its hash.
        send(
            &mut self.chain,
            self.current_trace,
            &account.keys,
            TxKind::Erc721(Erc721Op::Mint {
                kind: AssetKind::Dataset,
                content: id.0,
                label: format!("dataset-{}", id.0.short()),
            }),
        )?;
        self.now += data.len() as u64;
        Ok(id)
    }
}
