//! # deepcat
//!
//! A from-scratch Rust reproduction of **DeepCAT** (Dou, Wang, Zhang,
//! Chen — *DeepCAT: A Cost-Efficient Online Configuration Auto-Tuning
//! Approach for Big Data Frameworks*, ICPP 2022): a deep-reinforcement-
//! learning tuner for the 32 performance knobs of a Spark/YARN/HDFS
//! pipeline, evaluated against a discrete-event cluster simulator
//! ([`spark_sim`]).
//!
//! The paper's three ingredients, all implemented here:
//!
//! * **TD3 instead of DDPG** ([`td3::Td3Agent`] vs [`ddpg::DdpgAgent`]) —
//!   twin critics with clipped double-Q targets mitigate the value
//!   overestimation that misleads DDPG-based tuners like CDBTune.
//! * **RDPER** ([`rl::RdPer`], driven from [`offline`]) — reward-driven
//!   prioritized experience replay: every training batch is guaranteed a
//!   β-fraction of rare high-reward transitions.
//! * **Twin-Q Optimizer** ([`twinq::TwinQOptimizer`]) — during online
//!   tuning, actions are scored by the twin critics before the costly
//!   real evaluation; predicted-sub-optimal actions are perturbed until
//!   an estimated close-to-optimal one emerges (Algorithm 1).
//!
//! The baselines the paper compares against are provided behind the same
//! [`tuners::Tuner`] trait: [`tuners::CdbTune`] (DDPG + TD-error PER),
//! [`tuners::OtterTune`] (Lasso + workload mapping + GP/EI), plus
//! [`tuners::BestConfig`] and [`tuners::RandomSearch`] from the
//! related-work discussion.
//!
//! Every table and figure of the paper's evaluation regenerates from
//! [`experiments`]; the `bench` crate wraps each in a bench target.
//!
//! ```
//! use deepcat::{DeepCat, Tuner, TuningEnv};
//! use spark_sim::{Cluster, InputSize, Workload, WorkloadKind};
//!
//! let workload = Workload::new(WorkloadKind::WordCount, InputSize::D1);
//! let mut offline = TuningEnv::for_workload(Cluster::cluster_a(), workload, 7);
//! let mut tuner = DeepCat::for_env(&offline, 300, 7); // tiny budget for the doctest
//! tuner.offline_train(&mut offline);
//! let mut live = TuningEnv::for_workload(
//!     Cluster::cluster_a().with_background_load(0.15), workload, 8);
//! let report = tuner.online_tune(&mut live, 5);
//! assert_eq!(report.steps.len(), 5);
//! ```

pub mod analysis;
pub mod budget;
pub mod codec;
pub mod commitlog;
pub mod config;
pub mod ddpg;
pub mod envwrap;
pub mod experiments;
pub mod guardrail;
pub mod offline;
pub mod online;
pub mod parallel;
pub mod persist;
pub mod resilience;
pub mod reward;
pub mod scheduler;
pub mod service;
pub mod storage;
pub mod supervisor;
pub mod td3;
pub mod tuners;
pub mod twinq;
pub mod whitebox;

pub use analysis::{compare, summarize, to_markdown, SessionSummary, Stat, Verdict};
pub use budget::{BudgetReport, BudgetedTuning};
pub use commitlog::{Commitlog, CommitlogPolicy, Recovered, StepDelta};
pub use config::AgentConfig;
pub use ddpg::{DdpgAgent, DdpgStats};
pub use envwrap::{StepOutcome, TuningEnv};
pub use guardrail::{
    CanaryVerdict, Guardrail, GuardrailPolicy, GuardrailSnapshot, GuardrailTotals, Screened,
};
pub use offline::{train_ddpg, train_td3, IterRecord, OfflineConfig, ReplayKind, TrainLog};
pub use online::{
    online_tune_ddpg, online_tune_td3, OnlineConfig, StepGuardrail, StepRecord, StepResilience,
    TuningReport,
};
pub use parallel::{train_td3_parallel, ParallelConfig, ParallelStats};
pub use persist::{load_td3, save_td3, OnlineCheckpoint};
pub use resilience::{
    online_tune_resilient, ChaosSessionConfig, EngineInit, EngineStep, ResiliencePolicy,
    ResilienceSnapshot, ResilientEnv, ResilientOutcome, SessionEngine, SessionOutcome,
};
pub use reward::{RewardFn, TARGET_SPEEDUP};
pub use scheduler::{Scheduler, VirtualClock};
pub use service::{
    AdmitError, PostError, ServiceConfig, ServiceFault, ServiceFaultEvent, ServiceFaultPlan,
    SessionMsg, SessionResult, SessionSpec, TuningService, SERVICE_PLAN_NAMES,
};
pub use storage::{
    shared_storage, FaultyStorage, MemStorage, RealStorage, SharedStorage, Storage, StorageError,
    StorageFault, StorageFaultEvent, StoragePlan, STORAGE_PLAN_NAMES,
};
pub use supervisor::{RestartPolicy, SessionPhase, Supervisor, SupervisorVerdict};
pub use td3::{Td3Agent, Td3Checkpoint, TrainStats};
pub use tuners::{build_repository, BestConfig, CdbTune, DeepCat, OtterTune, RandomSearch, Tuner};
pub use twinq::{TwinQOptimizer, TwinQResult};
pub use whitebox::{diagnose, online_tune_whitebox, relevant_knobs, Bottleneck, WhiteBoxTwinQ};
