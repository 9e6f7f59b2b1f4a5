//! A module that opts itself out of the crate's `deny(unsafe_code)`.
#![allow(unsafe_code)]

#[allow(unsafe_code)]
fn peek(p: *const u8) -> u8 {
    unsafe { *p }
}

#[cfg_attr(not(test), allow(dead_code, unsafe_code))]
fn poke() {}

#[expect(unsafe_code)]
fn other() {}

#[cfg(test)]
mod tests {
    #[warn(unsafe_code)]
    fn in_a_test() {}
}
