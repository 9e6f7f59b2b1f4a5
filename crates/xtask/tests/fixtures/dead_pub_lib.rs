//! Dead-pub fixture, placed at `crates/demo/src/lib.rs`: one public fn
//! per kind of caller the pass must tell apart.

/// Called only from this file's `#[cfg(test)]` module: dead.
pub fn only_unit_tested() -> u32 {
    1
}

/// Called only from `crates/demo/tests/`: dead.
pub fn only_integration_tested() -> u32 {
    2
}

/// Called only from a `src/bin/` file: shipped.
pub fn used_by_bin() -> u32 {
    3
}

/// Called only from `benchmark/src/`: shipped.
pub fn used_by_benchmark() -> u32 {
    4
}

/// Called from nowhere, kept on purpose.
// DEAD-PUB-OK: fixture reference the unit test checks against
pub fn kept_reference() -> u32 {
    5
}

/// Not public surface: never checked.
pub(crate) fn crate_private() -> u32 {
    6
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit() {
        assert_eq!(super::only_unit_tested(), super::kept_reference() - 4);
    }
}
