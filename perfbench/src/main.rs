//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit, clock, how it was
//! formed) and, last, the JSON result line. Exits non-zero when any answer
//! was wrong or any operation failed.

use std::process::ExitCode;

use perfbench::{Args, Threads};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = Threads::pinned(args.workload);
    println!(
        "workload {} seed {} seconds {} trace {} points {} nproc {} host_jobs {} hybrid_jobs {} superego_threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.points(),
        threads.nproc,
        threads.jobs,
        threads.jobs,
        threads.jobs
    );
    let outcome = match perfbench::run(&args, threads) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in outcome.lines() {
        println!("{line}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    println!("{}", outcome.json_line());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
