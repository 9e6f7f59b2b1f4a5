// Fixture: every secret-hygiene violation class in one file. Never
// compiled — scanned as text by tests/fixtures.rs.

#[derive(Debug, Clone)]
pub struct DeriveKey([u8; 20]);

#[derive(Clone, Serialize)]
pub struct AesKey([u8; 16]);

#[derive(Debug)]
struct CacheSlot {
    label: Vec<u8>,
    key: DeriveKey,
}

impl std::fmt::Display for Kdc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("oops")
    }
}

fn log_key(topic_key: &DeriveKey) {
    println!("derived {topic_key:?}");
}

fn log_raw(raw_key: &[u8]) {
    eprintln!("bytes = {:x?}", raw_key);
}
