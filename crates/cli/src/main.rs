//! Binary entry point; all logic lives in the library for testability.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(entangle_cli::run_args(&args));
}
