//! Cross-crate integration: engines agree with each other and with analytic
//! posteriors, locally and through the PPX protocol.

use etalumis::prelude::*;
use etalumis_core::SimCtx;
use etalumis_distributions::Distribution;
use etalumis_inference::{parallel_importance_sampling, total_variation};
use etalumis_ppx::{InProcTransport, RemoteModel, SimulatorServer};
use etalumis_simulators::{BranchingModel, GmmModel};

fn observe1(name: &str, y: f64) -> ObserveMap {
    let mut m = ObserveMap::new();
    m.insert(name.to_string(), Value::Real(y));
    m
}

#[test]
fn is_and_rmh_agree_on_gaussian_posterior() {
    let mut model = GaussianUnknownMean::standard();
    let mut obs = observe1("y0", 1.0);
    obs.insert("y1".into(), Value::Real(1.6));
    let post_is = importance_sampling(&mut model, &obs, 30_000, 1);
    let cfg = RmhConfig { iterations: 30_000, burn_in: 3_000, seed: 2, ..Default::default() };
    let (post_rmh, _) = rmh(&mut model, &obs, &cfg);
    let f = |t: &etalumis_core::Trace| t.value_by_name("mu").unwrap().as_f64();
    let (am, astd) = model.posterior(&[1.0, 1.6]);
    let h_is = post_is.histogram(f, am - 4.0 * astd, am + 4.0 * astd, 30);
    let h_rmh = post_rmh.histogram(f, am - 4.0 * astd, am + 4.0 * astd, 30);
    let tv = total_variation(&h_is, &h_rmh);
    assert!(tv < 0.08, "IS vs RMH total variation {tv}");
}

#[test]
fn engines_work_identically_through_ppx() {
    // Same model, same observation: local vs behind the protocol.
    let mut local = GmmModel::standard();
    let obs = observe1("y", 1.5);
    let post_local = importance_sampling(&mut local, &obs, 20_000, 3);

    let (ctrl, sim) = InProcTransport::pair();
    std::thread::spawn(move || {
        let mut server = SimulatorServer::new("it", GmmModel::standard());
        let mut t = sim;
        let _ = server.serve(&mut t);
    });
    let mut remote = RemoteModel::connect(ctrl, "it").unwrap();
    let post_remote = importance_sampling(&mut remote, &obs, 20_000, 3);

    let f = |t: &etalumis_core::Trace| t.value_by_name("x").unwrap().as_f64();
    let (ml, sl) = post_local.mean_std(f);
    let (mr, sr) = post_remote.mean_std(f);
    assert!((ml - mr).abs() < 0.1, "local {ml} vs remote {mr}");
    assert!((sl - sr).abs() < 0.1, "local std {sl} vs remote {sr}");
    // The bimodal prior must have collapsed toward the observed mode.
    assert!(ml > 1.0, "posterior mean should sit near +2 mode: {ml}");
}

#[test]
fn parallel_is_scales_and_preserves_statistics() {
    let obs = observe1("y", 1.2);
    let run = |workers: usize| {
        let mut pool = SimulatorPool::from_factory(workers, |_| BranchingModel::standard());
        parallel_importance_sampling(
            Backend::Local(&mut pool),
            &PriorProposerFactory,
            &obs,
            12_000,
            9,
        )
        .unwrap()
    };
    let (p1, p4) = (run(1), run(4));
    assert_eq!(p1.len(), p4.len());
    let f = |t: &etalumis_core::Trace| t.result.as_f64();
    let (m1, _) = p1.mean_std(f);
    let (m4, _) = p4.mean_std(f);
    assert!((m1 - m4).abs() < 0.05, "worker count must not bias: {m1} vs {m4}");
}

#[test]
fn rejection_loops_are_invisible_to_trace_types_through_ppx() {
    // A remote model with replace=true draws: all traces share one type.
    let (ctrl, sim) = InProcTransport::pair();
    std::thread::spawn(move || {
        let model = FnProgram::new("rej", |ctx: &mut dyn SimCtx| {
            let mut u;
            loop {
                u = ctx
                    .sample_ext(&Distribution::Uniform { low: 0.0, high: 1.0 }, "u", true, true)
                    .as_f64();
                if u < 0.4 {
                    break;
                }
            }
            let x = ctx.sample_f64(&Distribution::Normal { mean: u, std: 0.2 }, "x");
            ctx.observe(&Distribution::Normal { mean: x, std: 0.1 }, "y");
            Value::Real(x)
        });
        let mut server = SimulatorServer::new("it", model);
        let mut t = sim;
        let _ = server.serve(&mut t);
    });
    let mut remote = RemoteModel::connect(ctrl, "it").unwrap();
    let mut types = std::collections::HashSet::new();
    for seed in 0..20 {
        let t = Executor::sample_prior(&mut remote, seed);
        types.insert(t.trace_type());
        assert_eq!(t.num_controlled(), 1, "only x is controlled");
    }
    assert_eq!(types.len(), 1, "rejection redraws must not fragment trace types");
}
