//! The `commsched` command-line tool: generate networks, schedule
//! workloads, and run flit-level simulations from the shell. See
//! `commsched help` for usage.

use commsched::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A refused command line is answered with the usage of the
    // subcommand it named; a failed run with its error alone.
    let cmd = cli::parse(&args).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        eprintln!("{}", cli::usage(args.first().map(String::as_str)));
        std::process::exit(2);
    });
    match cli::run(&cmd) {
        Ok(out) => print!("{out}"),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}
