//! Fig. 15a: scalable performance when co-running 1–8 application
//! instances (ZnG vs Ideal), and Fig. 15b: the read-prefetch predictor's
//! accuracy across all workloads.

use zng::{table2, Experiment, MultiApp, PlatformKind, Table};
use zng_bench::{params_light, quick, report};

fn main() {
    // ---- Fig. 15a ----
    let mut params = params_light();
    // Per-instance volume shrinks as instances grow so total work stays
    // comparable across rows.
    let counts: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4, 8] };

    // The paper's metric is each platform's *throughput scaling* relative
    // to running a single instance; ZnG should track Ideal's curve. The
    // plain ZnG/Ideal IPC ratio leads each row, so it is the headline.
    let mut t = Table::new(vec![
        "apps".into(),
        "betw ZnG/Ideal IPC".into(),
        "betw Ideal scaling".into(),
        "betw ZnG scaling".into(),
        "back Ideal scaling".into(),
        "back ZnG scaling".into(),
    ]);
    let mut base: Vec<f64> = Vec::new();
    for (row_i, &n) in counts.iter().enumerate() {
        // "Co-running multiple small-scale applications" (paper SV-D):
        // each instance shrinks so the aggregate footprint and warp count
        // stay constant across rows.
        params.total_warps = (256 / n).max(16);
        params.footprint_pages = (2048 / n).max(256);
        let exp_proto = Experiment::standard().with_params(params);
        let mut row = vec![n.to_string()];
        let mut vals = Vec::new();
        for wl in ["betw", "back"] {
            let names = vec![wl; n];
            let mix = MultiApp::from_names(&names, &params).expect("mix");
            let ideal = exp_proto
                .clone()
                .run_mix(PlatformKind::Ideal, &mix)
                .expect("ideal");
            let zng = exp_proto
                .clone()
                .run_mix(PlatformKind::Zng, &mix)
                .expect("zng");
            vals.push(ideal.ipc);
            vals.push(zng.ipc);
        }
        if row_i == 0 {
            base = vals.clone();
        }
        row.push(format!("{:.3}", vals[1] / vals[0]));
        for (v, b) in vals.iter().zip(base.iter()) {
            row.push(format!("{:.2}x", v / b));
        }
        t.row(row);
    }
    report(
        "fig15a",
        "Scalability: throughput scaling vs single instance",
        &t,
        "ZnG's scaling tracks Ideal's up to 4 apps (the AWS limit) and stays close at 8",
    );

    // ---- Fig. 15b ----
    let params = params_light();
    let mut t = Table::new(vec!["workload".into(), "predictor accuracy".into()]);
    let specs: Vec<_> = table2().iter().collect();
    let subset = if quick() { &specs[..4] } else { &specs[..] };
    let mut accs = Vec::new();
    for spec in subset {
        let mut exp = Experiment::standard().with_params(params);
        let r = exp.run(PlatformKind::Zng, &[spec.name]).expect("run");
        accs.push(r.predictor_accuracy);
        t.row(vec![
            spec.name.into(),
            format!("{:.2}", r.predictor_accuracy),
        ]);
    }
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    let worst = accs.iter().cloned().fold(1.0, f64::min);
    t.row(vec!["average".into(), format!("{mean:.2}")]);
    t.row(vec!["worst".into(), format!("{worst:.2}")]);
    assert!(mean > 0.8, "predictor accuracy must be high (paper: 93%)");
    report(
        "fig15b",
        "Prediction accuracy of the PC-based predictor",
        &t,
        "93% average accuracy, 87% worst case",
    );
}
