//! Events: the unit of publication.

use std::collections::BTreeMap;

use crate::value::{AttrName, AttrValue};

/// A monotonically assigned event identifier (publisher-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(pub u64);

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A published event: routable attributes plus a secret payload.
///
/// The paper's running example is
/// `e = ⟨⟨topic, cancerTrail⟩, ⟨age, 25⟩, ⟨patientRecord, record⟩⟩`:
/// `topic` and `age` are routable (brokers match on them), `patientRecord`
/// is the secret payload that only authorized subscribers may read.
///
/// # Example
///
/// ```
/// use psguard_model::{AttrValue, Event};
///
/// let e = Event::builder("cancerTrail")
///     .publisher("hospital-a")
///     .attr("age", AttrValue::Int(25))
///     .payload(b"record".to_vec())
///     .build();
/// assert_eq!(e.topic(), "cancerTrail");
/// assert_eq!(e.attr("age").and_then(|v| v.as_int()), Some(25));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    id: EventId,
    topic: String,
    publisher: String,
    attrs: BTreeMap<AttrName, AttrValue>,
    payload: Vec<u8>,
}

impl Event {
    /// Starts building an event on `topic`.
    pub fn builder(topic: impl Into<String>) -> EventBuilder {
        EventBuilder {
            id: EventId(0),
            topic: topic.into(),
            publisher: String::new(),
            attrs: BTreeMap::new(),
            payload: Vec::new(),
        }
    }

    /// The event identifier.
    pub fn id(&self) -> EventId {
        self.id
    }

    /// The topic keyword `w`.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The publishing principal `P`.
    pub fn publisher(&self) -> &str {
        &self.publisher
    }

    /// Looks up a routable attribute by name.
    pub fn attr(&self, name: impl AsRef<str>) -> Option<&AttrValue> {
        self.attrs.get(name.as_ref())
    }

    /// Iterates over all routable attributes in name order.
    pub fn attrs(&self) -> impl Iterator<Item = (&AttrName, &AttrValue)> {
        self.attrs.iter()
    }

    /// Number of routable attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// The secret payload (the `message`/`patientRecord` attribute). In a
    /// secure deployment this is ciphertext produced by `psguard`.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Replaces the payload, returning the previous one.
    // DEAD-PUB-OK: tamper seam for tampered_ciphertext_detected (tests/security.rs)
    pub fn replace_payload(&mut self, payload: Vec<u8>) -> Vec<u8> {
        std::mem::replace(&mut self.payload, payload)
    }
}

/// Builder for [`Event`] (see [`Event::builder`]).
#[derive(Debug, Clone)]
pub struct EventBuilder {
    id: EventId,
    topic: String,
    publisher: String,
    attrs: BTreeMap<AttrName, AttrValue>,
    payload: Vec<u8>,
}

impl EventBuilder {
    /// Sets the event identifier.
    pub fn id(mut self, id: EventId) -> Self {
        self.id = id;
        self
    }

    /// Sets the publishing principal.
    pub fn publisher(mut self, publisher: impl Into<String>) -> Self {
        self.publisher = publisher.into();
        self
    }

    /// Adds a routable attribute. Re-adding a name overwrites the value.
    pub fn attr(mut self, name: impl Into<AttrName>, value: impl Into<AttrValue>) -> Self {
        self.attrs.insert(name.into(), value.into());
        self
    }

    /// Sets the secret payload.
    pub fn payload(mut self, payload: Vec<u8>) -> Self {
        self.payload = payload;
        self
    }

    /// Finalizes the event.
    pub fn build(self) -> Event {
        Event {
            id: self.id,
            topic: self.topic,
            publisher: self.publisher,
            attrs: self.attrs,
            payload: self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let e = Event::builder("t")
            .id(EventId(9))
            .publisher("p")
            .attr("age", 25i64)
            .attr("sym", "GOOG")
            .payload(vec![1, 2, 3])
            .build();
        assert_eq!(e.id(), EventId(9));
        assert_eq!(e.publisher(), "p");
        assert_eq!(e.attr_count(), 2);
        assert_eq!(e.attr("sym").and_then(|v| v.as_str()), Some("GOOG"));
        assert_eq!(e.payload(), &[1, 2, 3]);
    }

    #[test]
    fn attr_overwrite_keeps_last() {
        let e = Event::builder("t").attr("a", 1i64).attr("a", 2i64).build();
        assert_eq!(e.attr("a").and_then(|v| v.as_int()), Some(2));
        assert_eq!(e.attr_count(), 1);
    }

    #[test]
    fn replace_payload_swaps() {
        let mut e = Event::builder("t").payload(vec![1]).build();
        let old = e.replace_payload(vec![2, 3]);
        assert_eq!(old, vec![1]);
        assert_eq!(e.payload(), &[2, 3]);
    }

    #[test]
    fn missing_attr_is_none() {
        let e = Event::builder("t").build();
        assert!(e.attr("nope").is_none());
    }

    #[test]
    fn event_id_display() {
        assert_eq!(EventId(3).to_string(), "e3");
    }
}
