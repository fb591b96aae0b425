//! Gossip learning (Ormándi, Hegedűs & Jelasity) over the event simulator.
//!
//! Each node holds a local model and its private shard. On a periodic
//! timer it pushes `(parameters, age)` to a uniformly random peer; on
//! receipt it merges the incoming model with its own and takes local SGD
//! steps on its private data. No coordinator exists — this is the
//! decentralized aggregation §III-C of the paper selects over federated
//! learning.
//!
//! The merge rule is pluggable for ablation A1: age-weighted averaging
//! (the rule from the gossip-learning papers), plain averaging, or
//! replace-if-older.

use pds2_crypto::codec::{Decode, DecodeError, Decoder, Encode, Encoder};
use pds2_crypto::Sha256;
use pds2_ml::data::Dataset;
use pds2_ml::linalg::weighted_average;
use pds2_ml::metrics::classifier_accuracy;
use pds2_ml::model::Model;
use pds2_ml::sgd;
use pds2_net::fault::FaultPlan;
use pds2_net::{Ctx, Node, NodeId, SchedulerKind};
use rand::Rng;

/// Gossip exchange pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GossipProtocol {
    /// Classic push: each cycle, send the local model to one random peer.
    Push,
    /// Push-pull: the receiver answers with its own model, doubling the
    /// mixing rate per cycle at one extra message.
    PushPull,
}

/// How an incoming model is combined with the local one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeRule {
    /// Weighted average with weights proportional to model ages.
    AgeWeighted,
    /// Plain 50/50 average.
    Average,
    /// Adopt the incoming model iff it is older (more trained).
    Replace,
}

/// Differential-privacy settings for local updates (DP-SGD style).
#[derive(Clone, Copy, Debug)]
pub struct DpConfig {
    /// L2 clip applied to each local gradient.
    pub clip: f64,
    /// Gaussian noise stddev = `noise_multiplier * clip / batch`.
    pub noise_multiplier: f64,
}

/// Gossip-learning protocol parameters.
#[derive(Clone, Debug)]
pub struct GossipConfig {
    /// Gossip cycle length in simulated microseconds.
    pub period_us: u64,
    /// Mini-batch size of each local step.
    pub batch_size: usize,
    /// Local SGD steps per received model.
    pub local_steps: usize,
    /// Learning rate for local steps.
    pub learning_rate: f64,
    /// Merge rule (ablation A1).
    pub merge: MergeRule,
    /// Exchange pattern (push vs push-pull).
    pub protocol: GossipProtocol,
    /// Optional DP noise on local updates (experiment E11).
    pub dp: Option<DpConfig>,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            period_us: 1_000_000, // 1 s cycles
            batch_size: 16,
            local_steps: 1,
            learning_rate: 0.1,
            merge: MergeRule::AgeWeighted,
            protocol: GossipProtocol::Push,
            dp: None,
        }
    }
}

/// The message gossiped between peers.
#[derive(Clone, Debug, PartialEq)]
pub struct GossipMsg {
    /// Flat model parameters.
    pub params: Vec<f64>,
    /// Number of merge+update events this model has absorbed.
    pub age: u64,
    /// Push-pull: the sender expects the receiver's model in return.
    pub want_reply: bool,
    /// Content digest over `(params, age, want_reply)`; receivers drop
    /// messages whose digest does not match (in-flight corruption).
    pub digest: u64,
}

impl GossipMsg {
    /// Builds a message with its content digest.
    pub fn new(params: Vec<f64>, age: u64, want_reply: bool) -> GossipMsg {
        let digest = Self::compute_digest(&params, age, want_reply);
        GossipMsg {
            params,
            age,
            want_reply,
            digest,
        }
    }

    /// The expected digest for the given content.
    pub fn compute_digest(params: &[f64], age: u64, want_reply: bool) -> u64 {
        let mut h = Sha256::new();
        h.update(b"pds2-gossip-v1");
        for p in params {
            h.update(&p.to_bits().to_le_bytes());
        }
        h.update(&age.to_le_bytes());
        h.update(&[want_reply as u8]);
        h.finalize().fold_u64()
    }

    /// Whether the carried digest matches the content.
    pub fn verify(&self) -> bool {
        Self::compute_digest(&self.params, self.age, self.want_reply) == self.digest
    }
}

impl Encode for GossipMsg {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.params.len() as u32);
        for p in &self.params {
            enc.put_f64(*p);
        }
        enc.put_u64(self.age);
        enc.put_bool(self.want_reply);
        enc.put_u64(self.digest);
    }
}

impl Decode for GossipMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = dec.get_u32()?;
        let n = dec.bounded_count(n.into(), 8)?;
        let mut params = Vec::with_capacity(n);
        for _ in 0..n {
            params.push(dec.get_f64()?);
        }
        Ok(GossipMsg {
            params,
            age: dec.get_u64()?,
            want_reply: dec.get_bool()?,
            digest: dec.get_u64()?,
        })
    }
}

/// A gossip-learning participant.
pub struct GossipNode<M: Model> {
    /// The node's current model.
    pub model: M,
    /// The node's private shard.
    pub data: Dataset,
    /// Model age (training maturity).
    pub age: u64,
    /// Protocol parameters.
    pub cfg: GossipConfig,
    /// Models sent by this node (communication accounting).
    pub models_sent: u64,
    /// Models received and merged.
    pub models_merged: u64,
    /// Incoming messages dropped because their digest did not match
    /// (corrupted in flight by a byzantine link).
    pub corrupted_dropped: u64,
}

impl<M: Model> GossipNode<M> {
    /// Creates a node from an initial model and its private shard.
    pub fn new(model: M, data: Dataset, cfg: GossipConfig) -> Self {
        GossipNode {
            model,
            data,
            age: 0,
            cfg,
            models_sent: 0,
            models_merged: 0,
            corrupted_dropped: 0,
        }
    }

    fn local_update(&mut self, rng: &mut rand::rngs::StdRng) {
        if self.data.is_empty() {
            return;
        }
        let lr = self.cfg.learning_rate;
        for _ in 0..self.cfg.local_steps {
            let batch = sgd::draw_batch(rng, self.data.len(), self.cfg.batch_size);
            match self.cfg.dp {
                None => {
                    let grad = self.model.gradient(&self.data, &batch);
                    sgd::step(&mut self.model, &grad, lr);
                }
                Some(dp) => {
                    let sigma = dp.noise_multiplier * dp.clip / batch.len() as f64;
                    crate::dp::sgd_step(
                        &mut self.model,
                        &self.data,
                        &batch,
                        lr,
                        dp.clip,
                        sigma,
                        rng,
                    );
                }
            }
        }
    }

    fn merge(&mut self, incoming: &GossipMsg) {
        let my = self.model.params();
        let merged = match self.cfg.merge {
            MergeRule::AgeWeighted => {
                let wa = (self.age as f64).max(1.0);
                let wb = (incoming.age as f64).max(1.0);
                weighted_average(&my, wa, &incoming.params, wb)
            }
            MergeRule::Average => weighted_average(&my, 1.0, &incoming.params, 1.0),
            MergeRule::Replace => {
                if incoming.age > self.age {
                    incoming.params.clone()
                } else {
                    my
                }
            }
        };
        self.model.set_params(&merged);
        self.age = self.age.max(incoming.age) + 1;
        self.models_merged += 1;
    }
}

impl<M: Model> Node for GossipNode<M> {
    type Msg = GossipMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        // Desynchronize cycles with a random initial offset.
        let offset = ctx.rng().random_range(0..self.cfg.period_us.max(1));
        ctx.set_timer(offset, 0);
        // Bootstrap the local model so the first gossip is meaningful.
        let mut seed_rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(ctx.id as u64)
        };
        self.local_update(&mut seed_rng);
        self.age = 1;
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GossipMsg>, from: NodeId, msg: GossipMsg) {
        if !msg.verify() {
            // Corrupted in flight: never merge a model we cannot
            // authenticate against its digest. The per-node field feeds
            // `GossipOutcome`; the registry counter is the process-wide
            // aggregate visible in `pds2_obs::snapshot()`.
            self.corrupted_dropped += 1;
            pds2_obs::counter!("learning.corrupted_dropped").inc();
            return;
        }
        let want_reply = msg.want_reply;
        self.merge(&msg);
        let mut rng = {
            use rand::SeedableRng;
            let s: u64 = ctx.rng().random();
            rand::rngs::StdRng::seed_from_u64(s)
        };
        self.local_update(&mut rng);
        if want_reply {
            ctx.send(from, GossipMsg::new(self.model.params(), self.age, false));
            self.models_sent += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GossipMsg>, _tag: u64) {
        if let Some(peer) = ctx.random_peer() {
            ctx.send(
                peer,
                GossipMsg::new(
                    self.model.params(),
                    self.age,
                    self.cfg.protocol == GossipProtocol::PushPull,
                ),
            );
            self.models_sent += 1;
        }
        ctx.set_timer(self.cfg.period_us, 0);
    }

    fn msg_size(msg: &GossipMsg) -> u64 {
        (msg.params.len() * 8 + 25) as u64
    }

    fn msg_digest(msg: &GossipMsg) -> u64 {
        msg.digest
    }

    fn corrupt_msg(msg: &GossipMsg, rng: &mut rand::rngs::StdRng) -> Option<GossipMsg> {
        // Flip one bit of one parameter but keep the stale digest: a
        // structurally valid message the digest check must reject.
        if msg.params.is_empty() {
            return None;
        }
        let mut mangled = msg.clone();
        let i = rng.random_range(0..mangled.params.len());
        let bit = rng.random_range(0..64);
        mangled.params[i] = f64::from_bits(mangled.params[i].to_bits() ^ (1u64 << bit));
        Some(mangled)
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, GossipMsg>) {
        // A recovered node rejoins the gossip schedule immediately.
        ctx.set_timer(self.cfg.period_us.max(1), 0);
    }
}

/// Everything about one gossip run except its data and its model: the
/// protocol, the network, the seed, when to evaluate, and every fault the
/// run suffers.
#[derive(Clone, Debug)]
pub struct GossipRun {
    /// Protocol parameters.
    pub cfg: GossipConfig,
    /// Link model — [`pds2_net::LinkModel::regional`] over a
    /// generator-backed topology at fleet scale.
    pub link: pds2_net::LinkModel,
    /// Simulation seed.
    pub seed: u64,
    /// Evaluation instants (µs).
    pub eval_at_us: Vec<u64>,
    /// Each evaluation averages at most this many online nodes
    /// (stride-sampled; evaluating 100k nodes would dominate the run).
    pub eval_sample: usize,
    /// The run's faults. An outage is one of this plan's crashes:
    /// permanent failures from [`FaultPlan::random_failures`], up/down
    /// sessions from [`FaultPlan::churn`].
    pub faults: FaultPlan,
    /// Event scheduler: the timing wheel, or the heap oracle.
    pub scheduler: SchedulerKind,
}

impl GossipRun {
    /// A fault-free run on the timing wheel that evaluates every online
    /// node at each of `eval_at_us`.
    pub fn new(
        cfg: GossipConfig,
        link: pds2_net::LinkModel,
        seed: u64,
        eval_at_us: &[u64],
    ) -> GossipRun {
        GossipRun {
            cfg,
            link,
            seed,
            eval_at_us: eval_at_us.to_vec(),
            eval_sample: usize::MAX,
            faults: FaultPlan::new(seed),
            scheduler: SchedulerKind::Wheel,
        }
    }
}

/// Runs gossip learning with one node per shard, each starting from
/// `make_model()`, and returns the mean test accuracy of the online nodes
/// at each evaluation instant. This is the E5/E6/E14/E19 workhorse; give
/// it [`sparse_shards`] for the fleet-scale shape.
pub fn run_gossip_experiment<M, F>(
    shards: Vec<Dataset>,
    test: &Dataset,
    run: &GossipRun,
    make_model: F,
) -> GossipOutcome
where
    M: Model,
    F: Fn() -> M,
{
    let nodes: Vec<GossipNode<M>> = shards
        .into_iter()
        .map(|shard| GossipNode::new(make_model(), shard, run.cfg.clone()))
        .collect();
    let mut sim =
        pds2_net::Simulator::with_scheduler(nodes, run.link.clone(), run.seed, run.scheduler);
    sim.install_fault_plan(run.faults.clone());
    // The experiment is the root of one causal trace: every message the
    // simulator delivers (and every eval round) descends from it, so
    // obs_report can profile the whole gossip run as a single DAG.
    let root = pds2_obs::new_trace(
        "learning",
        "gossip.experiment",
        pds2_obs::Stamp::Sim(0),
        vec![
            ("nodes", pds2_obs::Value::from(sim.len() as u64)),
            ("evals", pds2_obs::Value::from(run.eval_at_us.len() as u64)),
        ],
    );
    sim.set_root_ctx(root.ctx());
    let mut accuracy_curve = Vec::with_capacity(run.eval_at_us.len());
    for &t in &run.eval_at_us {
        let round_span = pds2_obs::span(
            "learning",
            "gossip.round",
            pds2_obs::Stamp::Sim(sim.now()),
            root.ctx(),
            vec![("eval_at", pds2_obs::Value::from(t))],
        );
        sim.run_until(t);
        let online: Vec<usize> = (0..sim.len()).filter(|&id| sim.is_online(id)).collect();
        let step = (online.len() / run.eval_sample.max(1)).max(1);
        let accs: Vec<f64> = online
            .iter()
            .step_by(step)
            .map(|&id| classifier_accuracy(&sim.node(id).model, test))
            .collect();
        let mean = if accs.is_empty() {
            0.0
        } else {
            accs.iter().sum::<f64>() / accs.len() as f64
        };
        pds2_obs::counter!("learning.gossip_evals").inc();
        pds2_obs::event!(
            "learning",
            "gossip.eval",
            pds2_obs::Stamp::Sim(t),
            round_span.ctx(),
            "round" => accuracy_curve.len(),
            "online" => online.len(),
            "accuracy" => mean,
        );
        round_span.finish(
            pds2_obs::Stamp::Sim(t),
            vec![("accuracy", pds2_obs::Value::from(mean))],
        );
        accuracy_curve.push(mean);
    }
    let stats = sim.stats();
    root.finish(
        pds2_obs::Stamp::Sim(sim.now()),
        vec![("delivered", pds2_obs::Value::from(stats.delivered))],
    );
    GossipOutcome {
        accuracy_curve,
        models_transferred: stats.delivered,
        bytes_transferred: stats.bytes_delivered,
        online_nodes: sim.online_count(),
        corrupted_dropped: sim.nodes().map(|n| n.corrupted_dropped).sum(),
    }
}

/// The fleet-scale shape, where most user devices contribute
/// connectivity and only some contribute data: `n_nodes` shards, of which
/// `holders` (clamped to `1..=n_nodes`) are IID parts of `train` placed
/// at an even stride across the id space. The rest are empty; their
/// nodes skip local SGD and only merge and relay, so per-node state stays
/// small and 100k-node fleets are practical (E19's `exp_scale`).
pub fn sparse_shards(train: &Dataset, n_nodes: usize, holders: usize, seed: u64) -> Vec<Dataset> {
    let holders = holders.clamp(1, n_nodes);
    let stride = (n_nodes / holders).max(1);
    let mut shards = train.partition_iid(holders, seed).into_iter();
    (0..n_nodes)
        .map(|id| {
            let holds = id % stride == 0 && id / stride < holders;
            holds
                .then(|| shards.next())
                .flatten()
                .unwrap_or_else(|| Dataset::new(Vec::new(), Vec::new()))
        })
        .collect()
}

/// Result of a gossip-learning run.
#[derive(Clone, Debug)]
pub struct GossipOutcome {
    /// Mean online-node test accuracy at each evaluation time.
    pub accuracy_curve: Vec<f64>,
    /// Models delivered over the network.
    pub models_transferred: u64,
    /// Bytes delivered.
    pub bytes_transferred: u64,
    /// Nodes still online at the end.
    pub online_nodes: usize,
    /// Messages receivers discarded on digest mismatch.
    pub corrupted_dropped: u64,
}

#[cfg(test)]
mod tests {
    // Every test that runs an experiment takes `pds2_obs::test_lock()`:
    // the collector is process-global, and one test compares digests.

    use super::*;
    use pds2_ml::data::gaussian_blobs;
    use pds2_ml::model::LogisticRegression;
    use pds2_net::LinkModel;

    fn quick_run(merge: MergeRule, faults: FaultPlan) -> GossipOutcome {
        let data = gaussian_blobs(600, 3, 0.7, 1);
        let (train, test) = data.split(0.25, 2);
        let shards = train.partition_iid(10, 3);
        let cfg = GossipConfig {
            period_us: 100_000,
            merge,
            ..Default::default()
        };
        let run = GossipRun {
            faults,
            ..GossipRun::new(cfg, LinkModel::instant(), 7, &[5_000_000])
        };
        run_gossip_experiment(shards, &test, &run, || LogisticRegression::new(3))
    }

    #[test]
    fn gossip_converges_on_blobs() {
        let _obs = pds2_obs::test_lock();
        let out = quick_run(MergeRule::AgeWeighted, FaultPlan::new(7));
        assert!(
            out.accuracy_curve[0] > 0.9,
            "accuracy {:?}",
            out.accuracy_curve
        );
        assert!(out.models_transferred > 100);
    }

    #[test]
    fn all_merge_rules_learn() {
        let _obs = pds2_obs::test_lock();
        for rule in [
            MergeRule::AgeWeighted,
            MergeRule::Average,
            MergeRule::Replace,
        ] {
            let out = quick_run(rule, FaultPlan::new(7));
            assert!(
                out.accuracy_curve[0] > 0.8,
                "{rule:?}: {:?}",
                out.accuracy_curve
            );
        }
    }

    #[test]
    fn gossip_survives_churn() {
        let _obs = pds2_obs::test_lock();
        // 30% of nodes fail permanently; the rest still converge —
        // the §III-C robustness claim for coordinator-free aggregation.
        let out = quick_run(
            MergeRule::AgeWeighted,
            FaultPlan::new(7).random_failures(10, 0.3, 2_000_000),
        );
        assert!(out.online_nodes < 10, "some nodes must fail");
        assert!(
            out.accuracy_curve[0] > 0.85,
            "accuracy under churn {:?}",
            out.accuracy_curve
        );
    }

    #[test]
    fn merge_age_weighted_prefers_mature_model() {
        let data = gaussian_blobs(50, 2, 1.0, 1);
        let mut node = GossipNode::new(LogisticRegression::new(2), data, GossipConfig::default());
        node.age = 1;
        let incoming = GossipMsg::new(vec![10.0, 10.0, 10.0], 9, false);
        node.merge(&incoming);
        // Age-weighted: (1*0 + 9*10)/10 = 9.
        assert!((node.model.params()[0] - 9.0).abs() < 1e-9);
        assert_eq!(node.age, 10);
        assert_eq!(node.models_merged, 1);
    }

    #[test]
    fn merge_replace_ignores_younger() {
        let data = gaussian_blobs(50, 2, 1.0, 1);
        let mut node = GossipNode::new(
            LogisticRegression::new(2),
            data,
            GossipConfig {
                merge: MergeRule::Replace,
                ..Default::default()
            },
        );
        node.age = 5;
        let before = node.model.params();
        node.merge(&GossipMsg::new(vec![9.0, 9.0, 9.0], 2, false));
        assert_eq!(node.model.params(), before, "younger model rejected");
        node.merge(&GossipMsg::new(vec![9.0, 9.0, 9.0], 20, false));
        assert_eq!(node.model.params(), vec![9.0, 9.0, 9.0]);
    }

    #[test]
    fn dp_noise_perturbs_updates() {
        let _obs = pds2_obs::test_lock();
        let data = gaussian_blobs(100, 2, 1.0, 1);
        let shards = data.partition_iid(4, 1);
        let run = |dp| {
            let cfg = GossipConfig {
                period_us: 100_000,
                dp,
                ..Default::default()
            };
            let run = GossipRun::new(cfg, LinkModel::instant(), 3, &[1_000_000]);
            run_gossip_experiment(shards.clone(), &data, &run, || LogisticRegression::new(2))
        };
        let clean = run(None);
        let noisy = run(Some(DpConfig {
            clip: 1.0,
            noise_multiplier: 20.0,
        }));
        // Heavy noise must hurt accuracy relative to the clean run.
        assert!(
            noisy.accuracy_curve[0] <= clean.accuracy_curve[0] + 0.02,
            "clean {:?} noisy {:?}",
            clean.accuracy_curve,
            noisy.accuracy_curve
        );
    }

    #[test]
    fn push_pull_doubles_mixing_per_cycle() {
        let _obs = pds2_obs::test_lock();
        let data = gaussian_blobs(400, 3, 0.7, 1);
        let (train, test) = data.split(0.25, 2);
        let shards = train.partition_iid(8, 3);
        let run = |protocol| {
            let cfg = GossipConfig {
                period_us: 200_000,
                protocol,
                ..Default::default()
            };
            let run = GossipRun::new(cfg, LinkModel::instant(), 7, &[2_000_000]);
            run_gossip_experiment(shards.clone(), &test, &run, || LogisticRegression::new(3))
        };
        let push = run(GossipProtocol::Push);
        let push_pull = run(GossipProtocol::PushPull);
        // Push-pull moves roughly twice the models in the same sim time.
        assert!(
            push_pull.models_transferred > push.models_transferred * 3 / 2,
            "push {} vs push-pull {}",
            push.models_transferred,
            push_pull.models_transferred
        );
        // Both converge on this easy task.
        assert!(push.accuracy_curve[0] > 0.9);
        assert!(push_pull.accuracy_curve[0] > 0.9);
    }

    #[test]
    fn message_size_tracks_dimension() {
        let msg = GossipMsg::new(vec![0.0; 100], 1, false);
        assert_eq!(
            <GossipNode<LogisticRegression> as Node>::msg_size(&msg),
            825
        );
    }

    #[test]
    fn digest_detects_any_single_bit_flip() {
        let msg = GossipMsg::new(vec![1.5, -2.25, 0.0], 7, true);
        assert!(msg.verify());
        let mut flipped = msg.clone();
        flipped.params[1] = f64::from_bits(flipped.params[1].to_bits() ^ 1);
        assert!(!flipped.verify());
        let mut aged = msg.clone();
        aged.age += 1;
        assert!(!aged.verify());
        let mut reply = msg.clone();
        reply.want_reply = false;
        assert!(!reply.verify());
    }

    #[test]
    fn gossip_msg_codec_roundtrip() {
        use pds2_crypto::codec::{Decode, Encode};
        let msg = GossipMsg::new(vec![0.25, f64::MAX, -0.0], 42, true);
        let back = GossipMsg::from_bytes(&msg.to_bytes()).unwrap();
        assert_eq!(back.params, msg.params);
        assert_eq!(back.age, msg.age);
        assert_eq!(back.want_reply, msg.want_reply);
        assert!(back.verify());
    }

    #[test]
    fn corrupt_msg_is_always_caught_by_digest() {
        use rand::SeedableRng;
        let msg = GossipMsg::new(vec![1.0, 2.0, 3.0], 5, false);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mangled =
                <GossipNode<LogisticRegression> as Node>::corrupt_msg(&msg, &mut rng).unwrap();
            assert!(!mangled.verify(), "stale digest must not verify");
        }
    }

    #[test]
    fn scale_run_learns_on_a_sparse_fleet_and_is_scheduler_invariant() {
        let _obs = pds2_obs::test_lock();
        // A 600-node fleet where only 12 nodes hold data: relays still
        // spread the model, the sampled eval converges, and the trace
        // digest is identical under both schedulers.
        let data = gaussian_blobs(600, 3, 0.7, 1);
        let (train, test) = data.split(0.25, 2);
        let churn = pds2_net::ChurnModel {
            horizon_us: 4_000_000,
            mean_uptime_us: 2_000_000,
            mean_downtime_us: 500_000,
            churn_fraction_x1024: 100, // ~10% of nodes churn
        };
        let run = |scheduler| {
            let cfg = GossipConfig {
                period_us: 400_000,
                ..Default::default()
            };
            let link = pds2_net::LinkModel::regional(pds2_net::Topology::five_continents(11));
            let run = GossipRun {
                eval_sample: 40,
                faults: FaultPlan::new(11).churn(&churn, 600),
                scheduler,
                ..GossipRun::new(cfg, link, 11, &[4_000_000])
            };
            let cap = pds2_obs::capture(pds2_obs::SinkKind::Null);
            let shards = sparse_shards(&train, 600, 12, 11);
            let out = run_gossip_experiment(shards, &test, &run, || LogisticRegression::new(3));
            (cap.finish().digest, out)
        };
        let (wheel_digest, wheel) = run(pds2_net::SchedulerKind::Wheel);
        let (heap_digest, heap) = run(pds2_net::SchedulerKind::Heap);
        assert_eq!(wheel_digest, heap_digest, "schedulers must agree");
        assert_eq!(wheel.models_transferred, heap.models_transferred);
        assert!(wheel.online_nodes > 500);
        assert!(
            wheel.accuracy_curve[0] > 0.8,
            "sparse fleet accuracy {:?}",
            wheel.accuracy_curve
        );
    }

    #[test]
    fn byzantine_corruption_is_dropped_not_merged() {
        let _obs = pds2_obs::test_lock();
        let data = gaussian_blobs(600, 3, 0.7, 1);
        let (train, test) = data.split(0.25, 2);
        let shards = train.partition_iid(10, 3);
        let plan = pds2_net::FaultPlan::new(7).byzantine(
            0,
            5_000_000,
            pds2_net::LinkScope::any(),
            pds2_net::LinkEffect::Corrupt { probability: 0.3 },
        );
        let cfg = GossipConfig {
            period_us: 100_000,
            ..Default::default()
        };
        let run = GossipRun {
            faults: plan,
            ..GossipRun::new(cfg, LinkModel::instant(), 7, &[5_000_000])
        };
        let out = run_gossip_experiment(shards, &test, &run, || LogisticRegression::new(3));
        assert!(out.corrupted_dropped > 0, "corruption must be observed");
        // Learning still converges because corrupt models are never merged.
        assert!(
            out.accuracy_curve[0] > 0.9,
            "accuracy under corruption {:?}",
            out.accuracy_curve
        );
    }
}
