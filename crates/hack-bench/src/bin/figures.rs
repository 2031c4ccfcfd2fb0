//! Runs the paper's figures and tables: `figures [id…]` runs the named ones
//! (all of them without an argument), prints every table and saves its JSON
//! under `target/experiments/`. `HACK_BENCH_REQUESTS` sets the requests per
//! simulated row.

use hack_bench::{default_requests, emit, select};
use std::process::ExitCode;

fn run() -> Result<(), String> {
    let n = default_requests()?;
    let ids: Vec<String> = std::env::args().skip(1).collect();
    for (_, figure, note) in select(&ids)? {
        for table in figure(n) {
            emit(&table)?;
        }
        if !note.is_empty() {
            println!("{note}\n");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("figures: {err}");
            ExitCode::FAILURE
        }
    }
}
