//! Lint attributes that keep `unsafe_code` denied, and mentions of
//! `#[allow(unsafe_code)]` in comments and strings, are fine.
#![deny(unsafe_code)]

#[allow(dead_code, clippy::needless_return)]
fn f() -> &'static str {
    // #[allow(unsafe_code)] in a comment
    return "#[allow(unsafe_code)]";
}

#[forbid(unsafe_code)]
fn g() {}
