//! Golden-file tests for the paper-table reproductions (Tables 5–8).
//!
//! Each experiment's `Row` structs are rendered into a stable text form
//! (fixed float precision, no wall-clock telemetry) and diffed against
//! the committed snapshot under `tests/golden/`. A change in solver or
//! formulation that moves any table cell shows up as a readable diff.
//!
//! Regenerate after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p integration-tests --test golden_tables`.

use bench::experiments::{table5_threshold, table6_total, table7_output, table8_weights};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Compares `rendered` to `tests/golden/<name>`, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, rendered: String) {
    let path = golden_dir().join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &rendered).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} missing ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        expected,
        rendered,
        "{name} drifted from the committed golden file; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and commit the diff"
    );
}

fn render_table5() -> String {
    let o = table5_threshold::run();
    let mut s = String::from("threshold_pct  A1 A2 A3 A4  analyses_time  within_pct\n");
    for r in &o.rows {
        s.push_str(&format!(
            "{:>5.1}  {} {} {} {}  {:.4}  {:.4}\n",
            r.threshold_pct,
            r.counts[0],
            r.counts[1],
            r.counts[2],
            r.counts[3],
            r.analyses_time,
            r.within_pct
        ));
    }
    s
}

#[test]
fn table5_threshold_golden() {
    check_golden("table5_threshold.txt", render_table5());
}

#[test]
fn table6_total_golden() {
    let o = table6_total::run();
    let mut s = String::from("threshold_s  R1 R2 R3  within_pct\n");
    for r in &o.rows {
        s.push_str(&format!(
            "{:>7.2}  {} {} {}  {:.4}\n",
            r.threshold, r.counts[0], r.counts[1], r.counts[2], r.within_pct
        ));
    }
    check_golden("table6_total.txt", s);
}

#[test]
fn table7_output_golden() {
    let o = table7_output::run();
    let mut s = String::from("sim_outputs  output_time  threshold  analyses\n");
    for r in &o.rows {
        s.push_str(&format!(
            "{:>3}  {:.4}  {:.4}  {}\n",
            r.sim_outputs, r.output_time, r.threshold, r.analyses
        ));
    }
    s.push_str(&format!("nvram_analyses {}\n", o.nvram_analyses));
    check_golden("table7_output.txt", s);
}

#[test]
fn table8_weights_golden() {
    let o = table8_weights::run();
    let mut s = String::from("weights  F1 F2 F3\n");
    for r in &o.rows {
        s.push_str(&format!(
            "({:.1},{:.1},{:.1})  {} {} {}\n",
            r.weights[0], r.weights[1], r.weights[2], r.counts[0], r.counts[1], r.counts[2]
        ));
    }
    check_golden("table8_weights.txt", s);
}
