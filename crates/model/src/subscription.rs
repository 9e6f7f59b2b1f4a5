//! Subscriptions: disjunctions of filters bound to a subscriber identity.

use crate::event::Event;
use crate::filter::Filter;

/// A subscription: one subscriber's interest, expressed as a disjunction of
/// conjunctive filters (the ∨ of the paper's ∧/∨ filter algebra).
///
/// # Example
///
/// ```
/// use psguard_model::{Constraint, Event, Filter, Op, Subscription};
///
/// let sub = Subscription::new("alice")
///     .or(Filter::for_topic("stocks").with(Constraint::new("price", Op::Le(100))))
///     .or(Filter::for_topic("weather"));
/// assert!(sub.matches(&Event::builder("weather").build()));
/// assert!(!sub.matches(&Event::builder("sports").build()));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription {
    subscriber: String,
    filters: Vec<Filter>,
}

impl Subscription {
    /// Creates an empty subscription for `subscriber` (matches nothing
    /// until a filter is added).
    pub fn new(subscriber: impl Into<String>) -> Self {
        Subscription {
            subscriber: subscriber.into(),
            filters: Vec::new(),
        }
    }

    /// Adds an alternative filter (builder style).
    pub fn or(mut self, filter: Filter) -> Self {
        self.filters.push(filter);
        self
    }

    /// The owning subscriber's identity.
    pub fn subscriber(&self) -> &str {
        &self.subscriber
    }

    /// The disjuncts.
    pub fn filters(&self) -> &[Filter] {
        &self.filters
    }

    /// Whether any disjunct matches the event.
    pub fn matches(&self, event: &Event) -> bool {
        self.filters.iter().any(|f| f.matches(event))
    }

    /// Whether this subscription covers `other`: every filter of `other`
    /// is covered by some filter of ours. Sound but conservative.
    pub fn covers(&self, other: &Subscription) -> bool {
        other
            .filters
            .iter()
            .all(|g| self.filters.iter().any(|f| f.covers(g)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Constraint, Op};

    #[test]
    fn empty_subscription_matches_nothing() {
        let s = Subscription::new("s");
        assert!(!s.matches(&Event::builder("t").build()));
    }

    #[test]
    fn disjunction_matches_any_branch() {
        let s = Subscription::new("s")
            .or(Filter::for_topic("a"))
            .or(Filter::for_topic("b"));
        assert!(s.matches(&Event::builder("a").build()));
        assert!(s.matches(&Event::builder("b").build()));
        assert!(!s.matches(&Event::builder("c").build()));
    }

    #[test]
    fn covering_of_disjunctions() {
        let broad = Subscription::new("x")
            .or(Filter::for_topic("a"))
            .or(Filter::for_topic("b"));
        let narrow = Subscription::new("y")
            .or(Filter::for_topic("a").with(Constraint::new("v", Op::Gt(10))));
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        // An empty subscription is covered by anything.
        assert!(narrow.covers(&Subscription::new("z")));
    }
}
