//! waiver-syntax positive fixture: malformed waivers are findings and
//! never suppress anything.

fn serve(values: &[f64]) -> f64 {
    // lint: allow(hot-panic)
    let a = values.first().unwrap();
    // lint: allow
    let b = values.last().unwrap();
    // lint: allow(hot-panik) — misspelt rule name waives nothing
    let c = values.get(1).unwrap();
    // lint: deny(hot-panic) — not a directive we know
    a + b + c
}
