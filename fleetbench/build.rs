//! Bakes the compiler flags this benchmark was built with (for example
//! `-C target-cpu=native` from the repository's `.cargo/config.toml`) into
//! the binary, so every result line can stamp them.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    let flags = if flags.trim().is_empty() {
        "(none)".to_string()
    } else {
        flags
    };
    println!("cargo:rustc-env=FLEETBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
