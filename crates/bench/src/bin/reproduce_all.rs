//! Runs the table/figure reproductions and prints the combined report.
//!
//! Usage: `reproduce_all [--only <section>]...` — no `--only` runs every
//! section; an unknown section name exits 2 with the list of valid ones.

use bench::experiments::{run_sections, SECTIONS};

fn usage_exit(problem: &str) -> ! {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _, _)| *name).collect();
    eprintln!(
        "{problem}; usage: reproduce_all [--only <section>]...\nsections: {}",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut only = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg != "--only" {
            usage_exit(&format!("unknown argument {arg}"));
        }
        match args.next() {
            Some(name) => only.push(name),
            None => usage_exit("--only needs a section name"),
        }
    }
    match run_sections(&only) {
        Ok(report) => println!("{report}"),
        Err(bad) => usage_exit(&format!("unknown section {bad}")),
    }
}
