//! Dead-pub fixture, placed at `crates/demo/src/bin/tool.rs`.

use demo::used_by_bin;

fn main() {
    println!("{}", used_by_bin());
}
