//! Subscription filters: constraints, matching and the covering relation.

use crate::category::CategoryPath;
use crate::event::Event;
use crate::range::IntRange;
use crate::value::{AttrName, AttrValue};

/// A matching operator applied to one attribute.
///
/// Numeric operators (`Lt`/`Le`/`Gt`/`Ge`/`InRange`) correspond to the
/// paper's numeric attribute matching; `Eq` is keyword matching; `StrPrefix`
/// / `StrSuffix` are the string matchers; `CategoryIn` is ontology subtree
/// matching.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Exact equality with a value of any family.
    Eq(AttrValue),
    /// Numeric strictly-less-than.
    Lt(i64),
    /// Numeric less-or-equal.
    Le(i64),
    /// Numeric strictly-greater-than.
    Gt(i64),
    /// Numeric greater-or-equal.
    Ge(i64),
    /// Numeric inclusive range `⟨num, ∈, (l, u)⟩`.
    InRange(IntRange),
    /// String prefix match.
    StrPrefix(String),
    /// String suffix match.
    StrSuffix(String),
    /// Category subtree match: the event's path must lie at or below this.
    CategoryIn(CategoryPath),
}

/// A closed numeric interval `[lo, hi]` over `i64`. An operator with no
/// bound on a side reaches that side's end of `i64`, and `lo > hi` is the
/// empty interval of an operator nothing satisfies (`Lt(i64::MIN)`,
/// `Gt(i64::MAX)`).
///
/// Every numeric operator denotes one of these (see [`Op::interval`]);
/// the covering relation compares them, the KDC intersects them into the
/// range it grants, and matching indexes use them to lay constraints out
/// in sorted boundary structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    lo: i64,
    hi: i64,
}

impl Interval {
    /// The empty interval, in the one form every operation keeps empty.
    const EMPTY: Interval = Interval {
        lo: i64::MAX,
        hi: i64::MIN,
    };

    /// The lower bound, inclusive (`i64::MIN` when unbounded below).
    pub fn lo(&self) -> i64 {
        self.lo
    }

    /// The upper bound, inclusive (`i64::MAX` when unbounded above).
    pub fn hi(&self) -> i64 {
        self.hi
    }

    /// Whether a value lies inside the interval.
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Whether `other` is fully inside `self`. The empty interval is
    /// inside every interval, and contains only itself.
    pub fn contains_interval(&self, other: &Interval) -> bool {
        other.lo > other.hi || (self.lo <= other.lo && other.hi <= self.hi)
    }
}

impl Op {
    /// Whether a single value satisfies this operator.
    pub fn matches(&self, value: &AttrValue) -> bool {
        match (self, value) {
            (Op::Eq(expect), v) => expect == v,
            (Op::Lt(u), AttrValue::Int(v)) => v < u,
            (Op::Le(u), AttrValue::Int(v)) => v <= u,
            (Op::Gt(l), AttrValue::Int(v)) => v > l,
            (Op::Ge(l), AttrValue::Int(v)) => v >= l,
            (Op::InRange(r), AttrValue::Int(v)) => r.contains(*v),
            (Op::StrPrefix(p), AttrValue::Str(s)) => s.starts_with(p.as_str()),
            (Op::StrSuffix(p), AttrValue::Str(s)) => s.ends_with(p.as_str()),
            (Op::CategoryIn(c), AttrValue::Category(p)) => c.is_ancestor_or_self_of(p),
            // Family mismatch never matches.
            _ => false,
        }
    }

    /// The numeric interval this operator denotes, if it is numeric —
    /// the introspection hook matching indexes build their sorted
    /// boundary structures from. Semi-open operators normalize to closed
    /// form (`Lt(u)` → `[i64::MIN, u-1]`, `Gt(l)` → `[l+1, i64::MAX]`), or
    /// to the empty interval when no `i64` satisfies them; `Eq` on an
    /// integer is the point interval.
    pub fn interval(&self) -> Option<Interval> {
        let (lo, hi) = match self {
            Op::Lt(u) => match u.checked_sub(1) {
                Some(hi) => (i64::MIN, hi),
                None => return Some(Interval::EMPTY),
            },
            Op::Le(u) => (i64::MIN, *u),
            Op::Gt(l) => match l.checked_add(1) {
                Some(lo) => (lo, i64::MAX),
                None => return Some(Interval::EMPTY),
            },
            Op::Ge(l) => (*l, i64::MAX),
            Op::InRange(r) => (r.lo(), r.hi()),
            Op::Eq(AttrValue::Int(v)) => (*v, *v),
            _ => return None,
        };
        Some(Interval { lo, hi })
    }

    /// Whether every value matching `other` also matches `self`
    /// (`(name other) ⇒ (name self)` in the paper's Boolean-implication
    /// formulation). The check is *sound*: `true` guarantees implication;
    /// incomparable operator families conservatively return `false`.
    pub fn covers(&self, other: &Op) -> bool {
        // Numeric operators compare as intervals.
        if let (Some(a), Some(b)) = (self.interval(), other.interval()) {
            return a.contains_interval(&b);
        }
        match (self, other) {
            (Op::Eq(a), Op::Eq(b)) => a == b,
            (Op::StrPrefix(p), Op::StrPrefix(q)) => q.starts_with(p.as_str()),
            (Op::StrPrefix(p), Op::Eq(AttrValue::Str(s))) => s.starts_with(p.as_str()),
            (Op::StrSuffix(p), Op::StrSuffix(q)) => q.ends_with(p.as_str()),
            (Op::StrSuffix(p), Op::Eq(AttrValue::Str(s))) => s.ends_with(p.as_str()),
            (Op::CategoryIn(c), Op::CategoryIn(d)) => c.is_ancestor_or_self_of(d),
            (Op::CategoryIn(c), Op::Eq(AttrValue::Category(p))) => c.is_ancestor_or_self_of(p),
            _ => false,
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::Eq(v) => write!(f, "= {v}"),
            Op::Lt(v) => write!(f, "< {v}"),
            Op::Le(v) => write!(f, "<= {v}"),
            Op::Gt(v) => write!(f, "> {v}"),
            Op::Ge(v) => write!(f, ">= {v}"),
            Op::InRange(r) => write!(f, "in {r}"),
            Op::StrPrefix(p) => write!(f, "starts-with {p:?}"),
            Op::StrSuffix(p) => write!(f, "ends-with {p:?}"),
            Op::CategoryIn(c) => write!(f, "under {c}"),
        }
    }
}

/// One attribute constraint `⟨name, op, value⟩`.
///
/// # Example
///
/// ```
/// use psguard_model::{AttrValue, Constraint, Op};
/// let c = Constraint::new("age", Op::Gt(20));
/// assert!(c.matches_value(&AttrValue::Int(25)));
/// assert!(c.covers(&Constraint::new("age", Op::Gt(30))));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Constraint {
    name: AttrName,
    op: Op,
}

impl Constraint {
    /// Creates a constraint on attribute `name`.
    pub fn new(name: impl Into<AttrName>, op: Op) -> Self {
        Constraint {
            name: name.into(),
            op,
        }
    }

    /// The constrained attribute name.
    pub fn name(&self) -> &AttrName {
        &self.name
    }

    /// The operator.
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// Whether a value satisfies this constraint.
    pub fn matches_value(&self, value: &AttrValue) -> bool {
        self.op.matches(value)
    }

    /// Whether this constraint covers `other` (same attribute, implied op).
    pub fn covers(&self, other: &Constraint) -> bool {
        self.name == other.name && self.op.covers(&other.op)
    }

    /// The numeric interval this constraint denotes, if its operator is
    /// numeric (see [`Op::interval`]).
    pub fn interval(&self) -> Option<Interval> {
        self.op.interval()
    }
}

impl std::fmt::Display for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{} {}⟩", self.name, self.op)
    }
}

/// A conjunctive subscription filter: a topic plus zero or more attribute
/// constraints that must all hold.
///
/// # Example
///
/// ```
/// use psguard_model::{AttrValue, Constraint, Event, Filter, Op};
///
/// let f = Filter::for_topic("cancerTrail")
///     .with(Constraint::new("age", Op::Ge(16)))
///     .with(Constraint::new("age", Op::Le(31)));
/// let e = Event::builder("cancerTrail").attr("age", 22i64).build();
/// assert!(f.matches(&e));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Filter {
    /// `None` matches any topic (a wildcard used by infrastructure
    /// subscriptions); `Some(w)` requires `⟨topic, EQ, w⟩`.
    topic: Option<String>,
    constraints: Vec<Constraint>,
}

impl Filter {
    /// A filter matching every event (no topic, no constraints).
    pub fn any() -> Self {
        Filter {
            topic: None,
            constraints: Vec::new(),
        }
    }

    /// A filter requiring `⟨topic, EQ, w⟩`.
    pub fn for_topic(topic: impl Into<String>) -> Self {
        Filter {
            topic: Some(topic.into()),
            constraints: Vec::new(),
        }
    }

    /// Adds a constraint (builder style). The constraint list grows by
    /// exactly one, so a filter a broker stores for a subscription's
    /// lifetime carries no spare capacity.
    pub fn with(mut self, constraint: Constraint) -> Self {
        self.constraints.reserve_exact(1);
        self.constraints.push(constraint);
        self
    }

    /// The topic requirement, if any.
    pub fn topic(&self) -> Option<&str> {
        self.topic.as_deref()
    }

    /// The attribute constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether an event satisfies the topic and every constraint. An event
    /// missing a constrained attribute does not match.
    pub fn matches(&self, event: &Event) -> bool {
        if let Some(topic) = &self.topic {
            if event.topic() != topic {
                return false;
            }
        }
        self.constraints.iter().all(|c| {
            event
                .attr(c.name().as_str())
                .is_some_and(|v| c.matches_value(v))
        })
    }

    /// Whether this filter covers `other`: every event matching `other`
    /// also matches `self`. Sound but conservative (like Siena's covering
    /// test): every constraint of `self` must be implied by some constraint
    /// of `other` on the same attribute.
    pub fn covers(&self, other: &Filter) -> bool {
        match (&self.topic, &other.topic) {
            (Some(a), Some(b)) if a != b => return false,
            (Some(_), None) => return false,
            _ => {}
        }
        self.constraints
            .iter()
            .all(|mine| other.constraints.iter().any(|theirs| mine.covers(theirs)))
    }
}

impl std::fmt::Display for Filter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.topic {
            Some(t) => write!(f, "topic={t}")?,
            None => write!(f, "topic=*")?,
        }
        for c in &self.constraints {
            write!(f, " ∧ {c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_age(age: i64) -> Event {
        Event::builder("cancerTrail").attr("age", age).build()
    }

    #[test]
    fn paper_example_matching() {
        // f = ⟨⟨topic, EQ, cancerTrail⟩, ⟨age, >, 20⟩⟩ matches age 25, not 15.
        let f = Filter::for_topic("cancerTrail").with(Constraint::new("age", Op::Gt(20)));
        assert!(f.matches(&event_age(25)));
        assert!(!f.matches(&event_age(15)));
        assert!(!f.matches(&Event::builder("weather").attr("age", 25i64).build()));
    }

    #[test]
    fn paper_example_covering() {
        // ⟨age, >, 20⟩ covers ⟨age, >, 30⟩.
        let broad = Constraint::new("age", Op::Gt(20));
        let narrow = Constraint::new("age", Op::Gt(30));
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
    }

    #[test]
    fn interval_covering_mixed_ops() {
        let any_ge = Constraint::new("a", Op::Ge(0));
        let range = Constraint::new("a", Op::InRange(IntRange::new(5, 9).unwrap()));
        let point = Constraint::new("a", Op::Eq(AttrValue::Int(7)));
        assert!(any_ge.covers(&range));
        assert!(range.covers(&point));
        assert!(!point.covers(&range));
        assert!(!range.covers(&any_ge));
    }

    #[test]
    fn lt_le_boundaries() {
        assert!(Op::Lt(10).matches(&AttrValue::Int(9)));
        assert!(!Op::Lt(10).matches(&AttrValue::Int(10)));
        assert!(Op::Le(10).matches(&AttrValue::Int(10)));
        // Lt(10) == values ≤ 9, so Le(9) covers Lt(10) and vice versa.
        assert!(Op::Le(9).covers(&Op::Lt(10)));
        assert!(Op::Lt(10).covers(&Op::Le(9)));
    }

    #[test]
    fn empty_operators_cover_only_empty_operators() {
        let empty = [Op::Lt(i64::MIN), Op::Gt(i64::MAX)];
        let numeric = [
            Op::Ge(0),
            Op::Le(i64::MAX),
            Op::Ge(i64::MIN),
            Op::Eq(AttrValue::Int(7)),
            Op::InRange(IntRange::new(5, 9).unwrap()),
        ];
        for e in &empty {
            assert!(!e.matches(&AttrValue::Int(i64::MIN)));
            assert!(!e.matches(&AttrValue::Int(i64::MAX)));
            for f in &empty {
                assert!(e.covers(f), "{e} covers {f}");
            }
            for n in &numeric {
                assert!(!e.covers(n), "{e} must not cover {n}");
                assert!(n.covers(e), "{n} covers {e}");
            }
        }
        // An unbounded side reaches the end of `i64`.
        assert!(Op::Le(i64::MAX).covers(&Op::Ge(0)));
        assert!(Op::Ge(i64::MIN).covers(&Op::Lt(0)));
    }

    #[test]
    fn string_prefix_semantics() {
        let p = Op::StrPrefix("GOO".into());
        assert!(p.matches(&AttrValue::from("GOOG")));
        assert!(!p.matches(&AttrValue::from("GO")));
        assert!(Op::StrPrefix("GO".into()).covers(&p));
        assert!(!p.covers(&Op::StrPrefix("GO".into())));
        assert!(p.covers(&Op::Eq(AttrValue::from("GOOG"))));
    }

    #[test]
    fn string_suffix_semantics() {
        let s = Op::StrSuffix("log".into());
        assert!(s.matches(&AttrValue::from("catalog")));
        assert!(!s.matches(&AttrValue::from("logs")));
        assert!(Op::StrSuffix("g".into()).covers(&s));
    }

    #[test]
    fn category_semantics() {
        let parent = Op::CategoryIn(CategoryPath::from_indices([0]));
        let child = Op::CategoryIn(CategoryPath::from_indices([0, 2]));
        assert!(parent.covers(&child));
        assert!(!child.covers(&parent));
        assert!(child.matches(&AttrValue::Category(CategoryPath::from_indices([0, 2, 1]))));
        assert!(!child.matches(&AttrValue::Category(CategoryPath::from_indices([0, 1]))));
    }

    #[test]
    fn family_mismatch_never_matches_or_covers() {
        assert!(!Op::Gt(3).matches(&AttrValue::from("str")));
        assert!(!Op::StrPrefix("a".into()).matches(&AttrValue::Int(1)));
        assert!(!Op::Gt(3).covers(&Op::StrPrefix("a".into())));
    }

    #[test]
    fn missing_attribute_fails_match() {
        let f = Filter::for_topic("t").with(Constraint::new("x", Op::Gt(0)));
        assert!(!f.matches(&Event::builder("t").build()));
    }

    #[test]
    fn wildcard_filter_matches_everything() {
        assert!(Filter::any().matches(&event_age(1)));
        assert!(Filter::any().covers(&Filter::for_topic("t")));
        assert!(!Filter::for_topic("t").covers(&Filter::any()));
    }

    #[test]
    fn filter_covering_multi_constraint() {
        let broad = Filter::for_topic("t").with(Constraint::new("age", Op::Ge(10)));
        let narrow = Filter::for_topic("t")
            .with(Constraint::new("age", Op::Ge(20)))
            .with(Constraint::new("price", Op::Le(5)));
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        assert!(broad.covers(&broad));
    }

    #[test]
    fn covering_is_consistent_with_matching_on_samples() {
        // If f covers g then every sampled event matching g matches f.
        let f = Filter::for_topic("t").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(0, 100).unwrap()),
        ));
        let g = Filter::for_topic("t").with(Constraint::new(
            "age",
            Op::InRange(IntRange::new(20, 30).unwrap()),
        ));
        assert!(f.covers(&g));
        for age in -10..120 {
            let e = event_age_topic(age, "t");
            if g.matches(&e) {
                assert!(f.matches(&e), "age={age}");
            }
        }
    }

    fn event_age_topic(age: i64, topic: &str) -> Event {
        Event::builder(topic).attr("age", age).build()
    }
}
