//! E1 + figure conformance: every access policy printed in the paper,
//! checked against the allowed/denied matrix its figure implies.

use peats::peo::MonotonicRegister;
use peats::{policies, LocalPeats, PolicyParams, TupleSpace};
use peats_tuplespace::{template, tuple, Value};

#[test]
fn fig1_monotonic_register_matrix() {
    let reg = MonotonicRegister::new(0, [1, 2, 3]).unwrap();
    // (pid, value, allowed)
    let cases = [
        (1, 1, true),    // writer, increasing
        (1, 1, false),   // not strictly greater
        (2, 5, true),    // another writer
        (3, 4, false),   // decrease
        (4, 100, false), // not a writer
    ];
    for (pid, v, allowed) in cases {
        assert_eq!(reg.write(pid, v).is_ok(), allowed, "write({v}) by p{pid}");
    }
    assert_eq!(reg.read(99), 5);
}

#[test]
fn fig3_weak_consensus_only_formal_cas() {
    let space = LocalPeats::new(policies::weak_consensus(), PolicyParams::new()).unwrap();
    let h = space.handle(7);
    // Allowed: the one shape from Alg. 1.
    assert!(h
        .cas(&template!["DECISION", ?d], tuple!["DECISION", 5])
        .is_ok());
    // Denied: everything else.
    assert!(h.out(tuple!["DECISION", 9]).is_err());
    assert!(h.inp(&template!["DECISION", _]).is_err());
    assert!(h.rdp(&template!["DECISION", _]).is_err());
    assert!(h
        .cas(&template!["DECISION", 5], tuple!["DECISION", 9])
        .is_err()); // non-formal template
    assert!(h.cas(&template!["OTHER", ?d], tuple!["OTHER", 9]).is_err()); // wrong tag
}

#[test]
fn fig4_strong_consensus_matrix() {
    let (n, t) = (4usize, 1usize);
    let space = LocalPeats::new(policies::strong_consensus(), PolicyParams::n_t(n, t)).unwrap();
    // Rrd: anyone reads anything.
    assert!(space.handle(9).rdp(&template![_, _, _]).is_ok());
    // Rout: own id, binary value, once.
    assert!(space.handle(0).out(tuple!["PROPOSE", 0u64, 1]).is_ok());
    assert!(space.handle(0).out(tuple!["PROPOSE", 0u64, 0]).is_err()); // twice
    assert!(space.handle(1).out(tuple!["PROPOSE", 0u64, 1]).is_err()); // spoof
    assert!(space.handle(1).out(tuple!["PROPOSE", 1u64, 2]).is_err()); // domain
    assert!(space.handle(1).out(tuple!["PROPOSE", 1u64, 1]).is_ok());
    // Rcas: justification must reference t+1 real proposals.
    let good = Value::set([Value::Int(0), Value::Int(1)]);
    let bad = Value::set([Value::Int(2), Value::Int(3)]);
    assert!(space
        .handle(2)
        .cas(&template!["DECISION", ?d, _], tuple!["DECISION", 1, bad])
        .is_err());
    assert!(space
        .handle(2)
        .cas(&template!["DECISION", ?d, _], tuple!["DECISION", 1, good])
        .unwrap()
        .inserted());
}

#[test]
fn fig5_default_consensus_bottom_rules() {
    let (n, t) = (4usize, 1usize);
    let space = LocalPeats::new(policies::default_consensus(), PolicyParams::n_t(n, t)).unwrap();
    // ⊥ cannot be proposed.
    assert!(space
        .handle(0)
        .out(tuple!["PROPOSE", 0u64, Value::Null])
        .is_err());
    // Three-way split, all real.
    for (p, v) in [(0u64, "a"), (1, "b"), (2, "c")] {
        space.handle(p).out(tuple!["PROPOSE", p, v]).unwrap();
    }
    // ⊥ justification must cover ≥ n−t proposers with sets of ≤ t.
    let undersized = Value::map([(Value::from("a"), Value::set([Value::Int(0)]))]);
    assert!(space
        .handle(3)
        .cas(
            &template!["DECISION", ?d, _],
            tuple!["DECISION", Value::Null, undersized]
        )
        .is_err());
    let honest = Value::map([
        (Value::from("a"), Value::set([Value::Int(0)])),
        (Value::from("b"), Value::set([Value::Int(1)])),
        (Value::from("c"), Value::set([Value::Int(2)])),
    ]);
    assert!(space
        .handle(3)
        .cas(
            &template!["DECISION", ?d, _],
            tuple!["DECISION", Value::Null, honest]
        )
        .unwrap()
        .inserted());
}

#[test]
fn fig7_lockfree_gap_freedom() {
    let space = LocalPeats::new(policies::lockfree_universal(), PolicyParams::new()).unwrap();
    let h = space.handle(0);
    for pos in [3i64, 2] {
        assert!(
            h.cas(&template!["SEQ", pos, ?x], tuple!["SEQ", pos, "early"])
                .is_err(),
            "position {pos} before 1"
        );
    }
    for pos in 1..=5i64 {
        assert!(h
            .cas(
                &template!["SEQ", pos, ?x],
                tuple!["SEQ", pos, format!("op{pos}")]
            )
            .unwrap()
            .inserted());
    }
}

#[test]
fn fig8_helping_conditions_exhaustive() {
    let n = 4usize;
    let mut params = PolicyParams::new();
    params.set("n", n as i64);
    let space = LocalPeats::new(policies::waitfree_universal(), params).unwrap();

    // Condition 1: no announcement from preferred(1) = 1 → anything goes.
    assert!(space
        .handle(3)
        .cas(&template!["SEQ", 1, ?x], tuple!["SEQ", 1, "w1"])
        .unwrap()
        .inserted());

    // preferred(2) = 2 announces.
    space.handle(2).out(tuple!["ANN", 2u64, "p2-op"]).unwrap();
    // Not-preferred process threading something else at 2: denied.
    assert!(space
        .handle(3)
        .cas(&template!["SEQ", 2, ?x], tuple!["SEQ", 2, "w2"])
        .is_err());
    // Condition 3: threading exactly the announced op is allowed.
    assert!(space
        .handle(3)
        .cas(&template!["SEQ", 2, ?x], tuple!["SEQ", 2, "p2-op"])
        .unwrap()
        .inserted());
    // Condition 2: announced op now threaded → position 3... preferred(3)=3
    // has no announcement, so use a fresh announcement from preferred(6)?
    // Simpler: p2's announcement is threaded, so even at a position where 2
    // is preferred again (pos 6), others may thread their own ops.
    for pos in 3..=5i64 {
        assert!(space
            .handle(0)
            .cas(
                &template!["SEQ", pos, ?x],
                tuple!["SEQ", pos, format!("fill{pos}")]
            )
            .unwrap()
            .inserted());
    }
    assert!(space
        .handle(0)
        .cas(&template!["SEQ", 6, ?x], tuple!["SEQ", 6, "w6"])
        .unwrap()
        .inserted());

    // ANN ownership: only the announcer withdraws.
    assert!(space.handle(0).inp(&template!["ANN", 2u64, _]).is_err());
    assert!(space.handle(2).inp(&template!["ANN", 2u64, _]).is_ok());
}

/// Every policy shipped in-tree — the figure constructors, the Fig. 1
/// register policy, and the permissive default — must pass static
/// analysis with zero errors: they are the checked corpus the verifier
/// is calibrated against (warnings like "inp not covered" are expected
/// and intentional for the restrictive consensus policies).
#[test]
fn every_in_tree_policy_is_analysis_clean() {
    use peats::peo::monotonic_register_policy;
    use peats_policy::{analyze, Policy, Severity};
    let corpus = [
        policies::weak_consensus(),
        policies::strong_consensus(),
        policies::kvalued_consensus(),
        policies::default_consensus(),
        policies::lockfree_universal(),
        policies::waitfree_universal(),
        monotonic_register_policy([1, 2, 3]),
        Policy::allow_all(),
    ];
    for policy in corpus {
        let diags = analyze(&policy);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "policy {} has analysis errors: {errors:?}",
            policy.name
        );
    }
}

/// What each shipped policy's state queries read, per operation kind —
/// the shards `LocalPeats` locks beside an operation's own. Every query in
/// the corpus leads with a constant channel, so no kind locks the whole
/// space.
#[test]
fn shipped_policy_footprints_are_pinned() {
    use peats::peo::monotonic_register_policy;
    use peats_policy::{parse_policy, OpKind, Policy};
    use peats_tuplespace::Footprint;
    let chans = |cs: &[&str]| Footprint::Channels(cs.iter().map(|c| Value::from(*c)).collect());
    // Kinds not listed read nothing.
    let pin = |policy: &Policy, expected: &[(OpKind, Footprint)]| {
        for kind in [
            OpKind::Out,
            OpKind::Rd,
            OpKind::In,
            OpKind::Rdp,
            OpKind::Inp,
            OpKind::Cas,
            OpKind::Count,
        ] {
            let want = expected
                .iter()
                .find(|(k, _)| *k == kind)
                .map_or(Footprint::NONE, |(_, fp)| fp.clone());
            assert_eq!(policy.footprint(kind), want, "{} {kind:?}", policy.name);
        }
    };
    let owner = parse_policy(include_str!("../perf/policies/owner.peats")).unwrap();
    pin(&owner, &[(OpKind::Cas, chans(&["BAN"]))]);

    let consensus = [
        (OpKind::Out, chans(&["PROPOSE"])),
        (OpKind::Cas, chans(&["PROPOSE"])),
    ];
    let seq_only = [(OpKind::Cas, chans(&["SEQ"]))];
    // Fig. 8's helping condition nests an `exists` on SEQ inside one on ANN.
    let seq_and_ann = [(OpKind::Cas, chans(&["SEQ", "ANN"]))];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/policies");
    type Pins<'a> = &'a [(OpKind, Footprint)];
    let corpus: [(&str, Policy, Pins<'_>); 6] = [
        ("fig3_weak_consensus.peats", policies::weak_consensus(), &[]),
        (
            "fig4_strong_consensus.peats",
            policies::strong_consensus(),
            &consensus,
        ),
        (
            "kvalued_consensus.peats",
            policies::kvalued_consensus(),
            &consensus,
        ),
        (
            "fig5_default_consensus.peats",
            policies::default_consensus(),
            &consensus,
        ),
        (
            "fig7_lockfree_universal.peats",
            policies::lockfree_universal(),
            &seq_only,
        ),
        (
            "fig8_waitfree_universal.peats",
            policies::waitfree_universal(),
            &seq_and_ann,
        ),
    ];
    for (file, embedded, expected) in corpus {
        pin(&embedded, expected);
        let src = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
        pin(&parse_policy(&src).unwrap(), expected);
    }
    // Fig. 1's register policy reads `state.r`, which no channel names.
    pin(
        &monotonic_register_policy([1, 2, 3]),
        &[(OpKind::Out, Footprint::Whole)],
    );
    pin(&Policy::allow_all(), &[]);
}

/// Every query shape that names no constant channel reads the whole space:
/// a leading `_`, `?x`, variable, `invoker()` or arithmetic, and any
/// `state.` field — written in the DSL, as policies are.
#[test]
fn channel_blind_queries_read_the_whole_space() {
    use peats_policy::{parse_policy, OpKind};
    use peats_tuplespace::Footprint;
    let policy = parse_policy(
        "policy blind(n) {
           rule Rout: out(<?v>) :- !exists(<_, v>);
           rule Rrdp: rdp(_) :- exists(<?t, 1>) { t != 2 };
           rule Rinp: inp(<?v>) :- exists(<v, 1>);
           rule Rcas: cas(_, _) :- !exists(<invoker(), 1>);
           rule Rcount: count(_) :- exists(<n + 1>);
           rule Rrd: rd(<?v>) :- v > state.r;
           rule Rin: in(_) :- exists(<\"K\", _>);
         }",
    )
    .unwrap();
    for kind in [
        OpKind::Out,
        OpKind::Rdp,
        OpKind::Inp,
        OpKind::Cas,
        OpKind::Count,
        OpKind::Rd,
    ] {
        assert_eq!(policy.footprint(kind), Footprint::Whole, "{kind:?}");
    }
    assert_eq!(
        policy.footprint(OpKind::In),
        Footprint::channel(Value::from("K"))
    );
}
