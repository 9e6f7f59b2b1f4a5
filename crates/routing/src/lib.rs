//! Secure content-based event routing for PSGuard (§4 of the paper).
//!
//! Two mechanisms combine so that honest-but-curious brokers can route
//! events without learning their contents:
//!
//! * **Tokenization** ([`RoutableTag`], [`SecureFilter`], [`SecureEvent`])
//!   — Song–Wagner–Perrig searchable encryption hides the topic while
//!   still letting brokers test "does this event match this
//!   subscription?";
//! * **Probabilistic multi-path routing** ([`MultipathTree`]) — the
//!   dissemination tree gains `sibling(parent(n))` edges, yielding
//!   `ind ≤ a` vertex-disjoint publisher→subscriber paths (Theorem 4.2);
//!   each event takes one of `ind_t ∝ λ_t` paths uniformly at random,
//!   flattening the token frequencies any single broker observes.
//!
//! Leakage is quantified by entropy ([`entropy_bits`], [`EntropyReport`]),
//! and [`simulate`] reproduces the paper's frequency-inference experiments
//! under both non-collusive and collusive observers (Figures 6–8).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attack;
mod entropy;
mod multipath;
mod overlay;
mod redundant;
mod secure;

pub use attack::{simulate, AttackSimConfig, Observations};
pub use entropy::{entropy_bits, max_entropy_bits, zipf_frequencies, EntropyReport};
pub use multipath::{MultipathError, MultipathTree, TreeNode};
pub use overlay::{MultipathOverlay, OverlayReport};
pub use redundant::{apparent_entropy, DeliveryReport, PathAssignment, RedundantRouter};
pub use secure::{RoutableTag, SecureEvent, SecureFilter};
