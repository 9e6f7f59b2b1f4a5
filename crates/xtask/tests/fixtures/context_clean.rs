// Fixture: the sanctioned treatment of reusable crypto contexts — manual
// redacting Debug impls, no Display, no Serialize. Never compiled —
// scanned as text by tests/fixtures.rs.

#[derive(Clone)]
pub struct PrfContext {
    inner: Sha1,
    outer: Sha1,
}

impl std::fmt::Debug for PrfContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrfContext").finish_non_exhaustive()
    }
}

#[derive(Clone)]
pub struct AesContext {
    cipher: Aes128,
}

impl std::fmt::Debug for AesContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AesContext").finish_non_exhaustive()
    }
}

#[derive(Clone, Default)]
pub struct ProbeTable {
    columns: Box<[u32]>,
    slot_of: Vec<u32>,
    lane_of: Vec<u32>,
}

impl std::fmt::Debug for ProbeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProbeTable")
            .field("live", &self.slot_of.len())
            .finish_non_exhaustive()
    }
}

fn probe(ctx: &PrfContext, nonce: &[u8], tag: &Token) -> bool {
    ctx.verify(nonce, tag)
}

fn sweep(table: &ProbeTable, nonce: &[u8; 16], tag: &Token, hits: &mut Vec<u32>) {
    table.sweep(nonce, tag, hits);
}
