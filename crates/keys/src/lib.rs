//! Hierarchical key derivation for PSGuard — the paper's core
//! key-management contribution (§3).
//!
//! PSGuard disassociates keys from subscriber groups: an **authorization
//! key** `K(f)` is bound to a subscription filter and an **encryption key**
//! `K(e)` to an event, embedded in a common hierarchical key space so that
//! `K(e)` is efficiently derivable from `K(f)` **iff** the event matches
//! the filter. Key-management cost is therefore independent of the number
//! of subscribers.
//!
//! The pieces:
//!
//! * [`Nakt`] / [`NaktKeySpace`] — the Numeric Attribute Key Tree for range
//!   subscriptions on numeric attributes (§3.1, Figure 1);
//! * [`CategoryKeySpace`] / [`StringKeySpace`] — ontology-subtree and
//!   string prefix/suffix matching (companion technical report);
//! * [`Kdc`] — the *stateless* key distribution center issuing topic keys,
//!   routing tokens and [`Grant`]s;
//! * [`Grant`] / [`AuthKey`] — a subscriber's capability for one filter and
//!   one epoch;
//! * [`KeyCache`] — the derived-key LRU cache of §3.2.3 (Figure 11);
//! * [`EpochSchedule`] — per-topic epoch scheduling and lazy revocation;
//! * [`RekeyWindow`] / [`GroupRekeyCoordinator`] — epoch-batched group
//!   rekeying for the subscriber-group baseline (membership changes
//!   queue per window and settle as one batched LKH update, atomic with
//!   key-space rotation);
//! * [`OpCounter`] — hash-operation accounting behind Tables 1–2.
//!
//! # End-to-end example
//!
//! ```
//! use psguard_crypto::{cbc_decrypt, cbc_encrypt, Aes128};
//! use psguard_keys::{event_key_addresses, part_from_topic_key, combine_master,
//!                    EpochId, Kdc, OpCounter, Schema, TopicScope};
//! use psguard_model::{Constraint, Event, Filter, IntRange, Op};
//!
//! let kdc = Kdc::from_seed(b"secret");
//! let schema = Schema::builder()
//!     .numeric("age", IntRange::new(0, 255).unwrap(), 1)?
//!     .build();
//! let mut ops = OpCounter::new();
//!
//! // Publisher: encrypt an event.
//! let event = Event::builder("cancerTrail").attr("age", 22i64).build();
//! let topic_key = kdc.topic_key("cancerTrail", EpochId(0), &TopicScope::Shared, &mut ops);
//! let addrs = event_key_addresses(&schema, &event)?;
//! let parts: Vec<_> = addrs
//!     .iter()
//!     .map(|a| part_from_topic_key(&topic_key, &schema, a, &mut ops))
//!     .collect();
//! let k_e = combine_master(&parts, &mut ops).content_key();
//! let ct = cbc_encrypt(&Aes128::new(k_e.as_bytes()), &[0u8; 16], b"record");
//!
//! // Subscriber: obtain a grant for ages 16..=31 and decrypt.
//! let filter = Filter::for_topic("cancerTrail")
//!     .with(Constraint::new("age", Op::Ge(16)))
//!     .with(Constraint::new("age", Op::Le(31)));
//! let grant = kdc.grant(&schema, &filter, EpochId(0), &TopicScope::Shared, &mut ops)?;
//! let k_sub = grant.event_key(&schema, &addrs, &mut ops).expect("authorized");
//! let pt = cbc_decrypt(&Aes128::new(k_sub.as_bytes()), &[0u8; 16], &ct)?;
//! assert_eq!(pt, b"record");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod cost;
mod epoch;
mod grant;
mod kdc;
mod ktid;
mod nakt;
mod rekey;
mod schema;
mod spaces;

pub use cache::{CacheStats, KeyCache};
pub use cost::OpCounter;
pub use epoch::{EpochId, EpochSchedule, RekeyWindow};
pub use grant::{
    combine_master, event_key_addresses, mac_key, part_from_topic_key, AuthKey, ConstraintGrant,
    EventKeyAddress, EventKeyError, Grant, KeyScope,
};
pub use kdc::{Kdc, KdcError, TopicScope};
pub use ktid::Ktid;
pub use nakt::{Nakt, NaktError, NaktKeySpace};
pub use rekey::GroupRekeyCoordinator;
pub use schema::{AttrSpec, Schema, SchemaBuilder};
pub use spaces::{CategoryKeySpace, ChainDirection, StringKeySpace};
