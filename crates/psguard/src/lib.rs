//! **PSGuard** — secure event dissemination for content-based
//! publish-subscribe networks.
//!
//! A from-scratch reproduction of *"Secure Event Dissemination in
//! Publish-Subscribe Networks"* (Srivatsa & Liu, ICDCS 2007). PSGuard
//! keeps the secret attributes of published events confidential from
//! unauthorized subscribers **and** from the honest-but-curious brokers
//! that route them, while preserving in-network content-based matching:
//!
//! * **Key management** (`psguard-keys`): authorization keys attach to
//!   *subscription filters* and encryption keys to *events*, embedded in
//!   hierarchical key spaces so a subscriber derives `K(e)` from `K(f)`
//!   iff the event matches the filter. Costs are logarithmic in attribute
//!   ranges and independent of the subscriber count; the KDC is stateless.
//! * **Secure routing** (`psguard-routing`): topics travel as
//!   Song–Wagner–Perrig tokens, and probabilistic multi-path routing
//!   flattens the token frequencies any curious broker observes.
//! * **Substrate** (`psguard-siena`): a Siena-like broker overlay with
//!   covering-based subscription forwarding, a discrete-event performance
//!   engine, and a real TCP transport.
//!
//! This crate is the facade tying those layers together: a [`PsGuard`]
//! deployment hands out [`Publisher`] and [`Subscriber`] handles, and
//! [`secure_cost_model`] prices the encrypted pipeline for the overlay
//! engine (`psguard_siena::Engine<SecureFilter>`).
//!
//! # Quickstart
//!
//! ```
//! use psguard::{PsGuard, PsGuardConfig};
//! use psguard_keys::Schema;
//! use psguard_model::{Constraint, Event, Filter, IntRange, Op};
//!
//! // A deployment: stateless KDC + topic schema + epoching.
//! let schema = Schema::builder()
//!     .numeric("age", IntRange::new(0, 255).unwrap(), 1)?
//!     .build();
//! let ps = PsGuard::new(b"master seed", schema, PsGuardConfig::default());
//!
//! // Publisher side.
//! let mut publisher = ps.publisher("hospital");
//! ps.authorize_publisher(&mut publisher, "cancerTrail", 0);
//! let event = Event::builder("cancerTrail")
//!     .attr("age", 25i64)
//!     .payload(b"patient record".to_vec())
//!     .build();
//! let secure = publisher.publish(&event, 0)?;
//!
//! // Subscriber side: authorized for ages > 20, so this event decrypts.
//! let mut subscriber = ps.subscriber("dr-alice");
//! let filter = Filter::for_topic("cancerTrail")
//!     .with(Constraint::new("age", Op::Gt(20)));
//! ps.authorize_subscriber(&mut subscriber, &filter, 0)?;
//! assert_eq!(subscriber.decrypt(&secure)?.payload(), b"patient record");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod publisher;
mod service;
mod subscriber;

pub use engine::{secure_cost_model, CryptoCosts};
pub use error::{DecryptError, PublishError, SubscribeError};
pub use publisher::{Publisher, PublisherCredential};
pub use service::{PsGuard, PsGuardConfig};
pub use subscriber::Subscriber;
