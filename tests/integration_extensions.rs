//! Integration coverage of the extension features: budget-constrained
//! tuning, white-box optimization, model persistence across the
//! offline/online split, parallel training, custom job DAGs and the
//! config exporter — each exercised end-to-end through the public API.

use deepcat::{
    load_td3, online_tune_td3, online_tune_whitebox, save_td3, train_td3, train_td3_parallel,
    AgentConfig, BudgetedTuning, OfflineConfig, OnlineConfig, ParallelConfig, TuningEnv,
};
use spark_sim::{
    export_bundle, synthetic_job, Cluster, InputSize, SparkEnv, SynthParams, Workload, WorkloadKind,
};

fn quick_cfg(env: &TuningEnv) -> AgentConfig {
    let mut c = AgentConfig::for_dims(env.state_dim(), env.action_dim());
    c.hidden = vec![32, 32];
    c.warmup_steps = 96;
    c.batch_size = 32;
    c
}

#[test]
fn offline_online_split_via_model_file() {
    // Train offline, persist, reload in a "different process", tune online —
    // the deployment flow Fig. 1 of the paper assumes.
    let w = Workload::new(WorkloadKind::TeraSort, InputSize::D1);
    let mut offline = TuningEnv::for_workload(Cluster::cluster_a(), w, 501);
    let ac = quick_cfg(&offline);
    let (agent, _, _) = train_td3(&mut offline, ac, &OfflineConfig::deepcat(700, 1), &[]);
    let dir = std::env::temp_dir().join("deepcat-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.bin");
    save_td3(&agent, &path).unwrap();

    // A model saved as JSON text (the format before binary model files)
    // is refused with a clear message, never misread as weights.
    let legacy = dir.join("model.json");
    std::fs::write(&legacy, serde_json::to_string(&agent.checkpoint()).unwrap()).unwrap();
    let err = load_td3(&legacy, 99).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        err.to_string()
            .contains("not a binary DeepCAT model; retrain it"),
        "{err}"
    );

    let mut loaded = load_td3(&path, 99).unwrap();
    let mut live = TuningEnv::for_workload(Cluster::cluster_a().with_background_load(0.15), w, 502);
    let report = online_tune_td3(&mut loaded, &mut live, &OnlineConfig::deepcat(2), "DeepCAT");
    assert!(report.speedup() > 1.5, "{}", report.speedup());
}

#[test]
fn budgeted_tuning_respects_its_budget_end_to_end() {
    let w = Workload::new(WorkloadKind::WordCount, InputSize::D1);
    let mut offline = TuningEnv::for_workload(Cluster::cluster_a(), w, 503);
    let ac = quick_cfg(&offline);
    let (mut agent, _, _) = train_td3(&mut offline, ac, &OfflineConfig::deepcat(700, 2), &[]);
    let mut live = TuningEnv::for_workload(Cluster::cluster_a().with_background_load(0.15), w, 504);
    let out = BudgetedTuning::new(400.0, 3).run(&mut agent, &mut live);
    let last = out.report.steps.last().unwrap();
    assert!(out.spent_s <= 400.0 + last.exec_time_s + last.recommendation_s);
    assert!(
        out.report.best_exec_time_s < live.default_exec_time(),
        "best {:.1}s vs default {:.1}s over {} steps",
        out.report.best_exec_time_s,
        live.default_exec_time(),
        out.steps_taken
    );
}

#[test]
fn whitebox_tuning_diagnoses_and_tunes() {
    let w = Workload::new(WorkloadKind::PageRank, InputSize::D1);
    let mut offline = TuningEnv::for_workload(Cluster::cluster_a(), w, 505);
    let ac = quick_cfg(&offline);
    let (mut agent, _, _) = train_td3(&mut offline, ac, &OfflineConfig::deepcat(700, 4), &[]);
    let mut live = TuningEnv::for_workload(Cluster::cluster_a().with_background_load(0.15), w, 506);
    let (report, bottlenecks) =
        online_tune_whitebox(&mut agent, &mut live, &OnlineConfig::deepcat(5));
    assert_eq!(report.steps.len(), 5);
    assert!(bottlenecks[1..].iter().all(Option::is_some));
    assert!(report.speedup() > 1.5);
}

#[test]
fn parallel_and_serial_training_reach_similar_quality() {
    let w = Workload::new(WorkloadKind::WordCount, InputSize::D1);
    let serial = {
        let mut env = TuningEnv::for_workload(Cluster::cluster_a(), w, 507);
        let ac = quick_cfg(&env);
        let (mut agent, _, _) = train_td3(&mut env, ac, &OfflineConfig::deepcat(800, 5), &[]);
        let mut live =
            TuningEnv::for_workload(Cluster::cluster_a().with_background_load(0.15), w, 508);
        online_tune_td3(&mut agent, &mut live, &OnlineConfig::deepcat(6), "x").best_exec_time_s
    };
    let parallel = {
        let make_env = |worker: usize| {
            TuningEnv::for_workload(Cluster::cluster_a(), w, 507 + worker as u64 * 71)
        };
        let tmp_env = make_env(0);
        let ac = quick_cfg(&tmp_env);
        let (mut agent, _, stats) = train_td3_parallel(
            make_env,
            ac,
            &OfflineConfig::deepcat(800, 5),
            &ParallelConfig {
                workers: 4,
                ..Default::default()
            },
        );
        assert_eq!(stats.gradient_steps, 800);
        let mut live =
            TuningEnv::for_workload(Cluster::cluster_a().with_background_load(0.15), w, 508);
        online_tune_td3(&mut agent, &mut live, &OnlineConfig::deepcat(6), "x").best_exec_time_s
    };
    // Same gradient budget, same workload: quality should be comparable.
    assert!(
        parallel < serial * 2.0 && serial < parallel * 2.0,
        "serial {serial:.1}s vs parallel {parallel:.1}s"
    );
}

#[test]
fn custom_synthetic_pipeline_can_be_tuned() {
    let job = synthetic_job(
        &SynthParams {
            stages: 4,
            input_mb: 1024.0,
            ..Default::default()
        },
        3,
    );
    let env = SparkEnv::with_job(Cluster::cluster_a(), "custom", job.clone(), 509);
    assert_eq!(env.label(), "custom");
    let mut tuning = TuningEnv::new(env, 5);
    let ac = quick_cfg(&tuning);
    let (mut agent, _, _) = train_td3(&mut tuning, ac, &OfflineConfig::deepcat(600, 6), &[]);
    let mut live = TuningEnv::new(
        SparkEnv::with_job(Cluster::cluster_a(), "custom", job, 510),
        5,
    );
    let report = online_tune_td3(&mut agent, &mut live, &OnlineConfig::deepcat(7), "DeepCAT");
    assert_eq!(report.workload, "custom");
    assert!(report.speedup() > 1.2, "{}", report.speedup());
}

#[test]
fn best_action_exports_deployable_configs() {
    let w = Workload::new(WorkloadKind::TeraSort, InputSize::D1);
    let mut offline = TuningEnv::for_workload(Cluster::cluster_a(), w, 511);
    let ac = quick_cfg(&offline);
    let (mut agent, _, _) = train_td3(&mut offline, ac, &OfflineConfig::deepcat(600, 8), &[]);
    let mut live = TuningEnv::for_workload(Cluster::cluster_a(), w, 512);
    let report = online_tune_td3(&mut agent, &mut live, &OnlineConfig::deepcat(9), "DeepCAT");
    let space = live.spark().space();
    let cfg = space.denormalize(&report.best_action);
    let bundle = export_bundle(space, &cfg);
    assert_eq!(
        bundle
            .spark_defaults_conf
            .lines()
            .filter(|l| l.starts_with("spark."))
            .count(),
        20
    );
    assert_eq!(bundle.yarn_site_xml.matches("<property>").count(), 7);
    assert_eq!(bundle.hdfs_site_xml.matches("<property>").count(), 5);
}
