//! The `hotspot` binary: thin wrapper around [`hotspot_cli::run_with_status`].

fn main() {
    // A scan unwinds a cancelled or timed-out tile with a stop marker and
    // reports the tile itself, so the default hook's `panicked at` line
    // would be noise. Every other panic still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !hotspot_core::cancel::is_stop_marker(info.payload()) {
            default_hook(info);
        }
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    match hotspot_cli::run_with_status(&args) {
        Ok((output, status)) => {
            println!("{output}");
            if status != 0 {
                std::process::exit(status);
            }
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(e.exit_code());
        }
    }
}
