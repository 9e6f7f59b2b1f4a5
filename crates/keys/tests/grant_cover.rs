//! A KDC grant on a numeric attribute is the canonical cover of its
//! range, in order, keyed exactly as `NaktKeySpace::key_for` keys each
//! element, at one `H` per distinct non-root prefix of the cover. Checked
//! for every range over a binary and a ternary tree: these are the counts
//! behind Tables 1 and 2.

use std::collections::BTreeSet;

use psguard_keys::{
    EpochId, Kdc, KeyScope, Ktid, Nakt, NaktKeySpace, OpCounter, Schema, TopicScope,
};
use psguard_model::{Constraint, Filter, IntRange, Op};

fn check_every_range(nakt: Nakt) {
    let kdc = Kdc::from_seed(b"grant-cover");
    let schema = Schema::builder().numeric_tree("x", nakt.clone()).build();
    let topic_key = kdc.topic_key("w", EpochId(0), &TopicScope::Shared, &mut OpCounter::new());
    let space = NaktKeySpace::new(nakt.clone(), &topic_key, b"x");
    let r = nakt.range();
    let mut ranges = 0;
    for lo in r.lo()..=r.hi() {
        for hi in lo..=r.hi() {
            let q = IntRange::new(lo, hi).expect("ordered");
            let filter = Filter::for_topic("w").with(Constraint::new("x", Op::InRange(q)));
            let mut ops = OpCounter::new();
            let grant = kdc
                .grant(&schema, &filter, EpochId(0), &TopicScope::Shared, &mut ops)
                .expect("grantable");
            let cover = nakt.canonical_cover(&q).expect("in range");

            let alternatives = &grant.constraints[0].alternatives;
            let ktids: Vec<&Ktid> = alternatives
                .iter()
                .map(|a| match &a.scope {
                    KeyScope::Numeric { ktid, .. } => ktid,
                    other => panic!("{q}: non-numeric scope {other:?}"),
                })
                .collect();
            assert_eq!(ktids, cover.iter().collect::<Vec<_>>(), "{q}");
            for (auth, ktid) in alternatives.iter().zip(&cover) {
                assert_eq!(
                    auth.key,
                    space.key_for(ktid, &mut OpCounter::new()),
                    "{q} at {ktid}"
                );
            }

            let prefixes: BTreeSet<&[u8]> = cover
                .iter()
                .flat_map(|k| (1..=k.depth()).map(move |n| &k.digits()[..n]))
                .collect();
            assert_eq!(ops.hash_ops, prefixes.len() as u64, "{q}");
            // The topic key and the attribute's tree root.
            assert_eq!(ops.kh_ops, 2, "{q}");
            ranges += 1;
        }
    }
    let n = r.len();
    assert_eq!(ranges, n * (n + 1) / 2);
}

#[test]
fn binary_grants_are_the_cover_over_every_range() {
    check_every_range(Nakt::binary(IntRange::new(0, 63).expect("ordered"), 1).expect("valid"));
}

#[test]
fn ternary_grants_are_the_cover_over_every_range() {
    // 81 values at lc = 2 make 41 cells, padded to 3^4 = 81: ranges snap
    // outward to cells, and the padding is never granted.
    let nakt = Nakt::with_arity(IntRange::new(-20, 60).expect("ordered"), 2, 3).expect("valid");
    assert_eq!(nakt.depth(), 4);
    check_every_range(nakt);
}
