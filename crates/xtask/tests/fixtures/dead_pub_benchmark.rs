//! Dead-pub fixture, placed at `benchmark/src/run.rs`.

pub fn run() -> u32 {
    demo::used_by_benchmark()
}
