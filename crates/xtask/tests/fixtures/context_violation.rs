// Fixture: secret-hygiene violations on the reusable crypto contexts.
// Pad-absorbed digest states and expanded round keys are key-equivalent,
// so the contexts are tainted types. Never compiled — scanned as text by
// tests/fixtures.rs.

#[derive(Debug, Clone)]
pub struct PrfContext {
    inner: Sha1,
    outer: Sha1,
}

#[derive(Clone, Serialize)]
pub struct HmacContext<D> {
    inner: D,
    outer: D,
}

#[derive(Debug, Clone, Default)]
pub struct ProbeTable {
    columns: Box<[u32]>,
    slot_of: Vec<u32>,
    lane_of: Vec<u32>,
}

impl std::fmt::Display for AesContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.cipher)
    }
}
