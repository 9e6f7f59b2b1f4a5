//! Dead-pub fixture, placed at `crates/demo/tests/it.rs`: callers here
//! are test code and keep nothing alive.

#[test]
fn integration() {
    assert_eq!(demo::only_integration_tested(), 2);
    assert_eq!(demo::only_unit_tested(), 1);
}
