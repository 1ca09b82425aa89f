//! One module per paper table/figure. Each returns a structured result
//! plus a printable report; the `reproduce_all` binary prints any subset
//! of them ([`SECTIONS`]) and the integration tests assert on the *shape*
//! of every experiment.

pub mod ablation;
pub mod fig2_interp;
pub mod fig4_profiles;
pub mod fig5_moldable;
pub mod table4_postproc;
pub mod table5_threshold;
pub mod table6_total;
pub mod table7_output;
pub mod table8_weights;

/// A reproduction section: `--only` name, display title, report generator.
type Section = (&'static str, &'static str, fn() -> String);

/// Every reproduction section, in report order.
pub const SECTIONS: [Section; 9] = [
    ("fig2_interp", "Figure 2 (interpolation accuracy)", || {
        fig2_interp::run().report
    }),
    ("fig4_profiles", "Figure 4 (relative analysis profiles)", || {
        fig4_profiles::run().report
    }),
    ("table4_postproc", "Table 4 (post-processing vs in-situ)", || {
        table4_postproc::run().report
    }),
    ("table5_threshold", "Table 5 (threshold % sweep)", || {
        table5_threshold::run().report
    }),
    ("fig5_moldable", "Figure 5 (moldable jobs / strong scaling)", || {
        fig5_moldable::run().report
    }),
    ("table6_total", "Table 6 (total threshold sweep)", || {
        table6_total::run().report
    }),
    ("table7_output", "Table 7 (output time vs analyses)", || {
        table7_output::run().report
    }),
    ("table8_weights", "Table 8 (importance weights)", || {
        table8_weights::run().report
    }),
    ("ablation", "Ablations (design choices)", || {
        ablation::run().report
    }),
];

/// Runs the named sections (all of them when `only` is empty) in report
/// order and concatenates the reports. `Err` carries the first name that
/// is not a section.
pub fn run_sections(only: &[String]) -> Result<String, String> {
    if let Some(bad) = only
        .iter()
        .find(|name| !SECTIONS.iter().any(|(n, _, _)| n == name))
    {
        return Err(bad.clone());
    }
    let mut out = String::new();
    for (name, title, f) in SECTIONS {
        if only.is_empty() || only.iter().any(|o| o == name) {
            out.push_str(&format!("\n=== {title} ===\n"));
            out.push_str(&f());
        }
    }
    Ok(out)
}
