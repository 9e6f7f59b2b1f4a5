// Fixture: the sanctioned idioms — manual redacting Debug, no tainted
// interpolation. Never compiled — scanned as text by tests/fixtures.rs.

#[derive(Clone)]
pub struct DeriveKey([u8; 20]);

impl std::fmt::Debug for DeriveKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeriveKey({})", Redacted(&self.0))
    }
}

// A slab entry holding key material simply has no Debug.
struct CacheSlot {
    label: Vec<u8>,
    key: DeriveKey,
}

// Untainted bindings may be formatted freely.
fn log_progress(topic: &str, key_count: usize) {
    println!("granted {key_count} keys for {topic}");
}

// A tainted *word* inside a string literal is not an interpolation.
fn log_note() {
    println!("the master key never leaves the KDC");
}
