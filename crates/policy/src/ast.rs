//! Abstract syntax of access policies.
//!
//! A policy (§3) is a set of *rules*; each rule pairs an *invocation pattern*
//! with a *logical expression*. An invocation is allowed iff some rule's
//! pattern matches it and that rule's expression evaluates to true —
//! otherwise it is denied (fail-safe defaults, \[21\] in the paper).

use crate::invocation::{OpKind, ProcessId};
use peats_tuplespace::{Footprint, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Comparison operators usable between [`Term`]s.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<` (integers only)
    Lt,
    /// `<=` (integers only)
    Le,
    /// `>` (integers only)
    Gt,
    /// `>=` (integers only)
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A value-producing expression evaluated by the reference monitor.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// Literal value.
    Const(Value),
    /// Reference to a variable bound by the rule's invocation pattern, a
    /// quantifier, or (as a fallback) a policy parameter such as `n`/`t`.
    Var(String),
    /// The authenticated identity of the invoking process, as an `Int`.
    Invoker,
    /// An element of the protected object's state exposed to policies
    /// (e.g. the register value `r` in Fig. 1).
    StateField(String),
    /// Integer addition.
    Add(Box<Term>, Box<Term>),
    /// Integer subtraction.
    Sub(Box<Term>, Box<Term>),
    /// Integer remainder (Euclidean; used by the wait-free construction's
    /// `pos mod n`, Fig. 8).
    Mod(Box<Term>, Box<Term>),
    /// Cardinality `|S|` of a collection (or length of a string).
    Card(Box<Term>),
    /// Union of all values of a `Map` (each value must be a `Set`); computes
    /// `∪_w S_w` for the default-consensus rule of Fig. 5.
    UnionVals(Box<Term>),
    /// Set literal built from terms, e.g. `{0, 1}` in Fig. 4's `Rout`.
    SetOf(Vec<Term>),
}

impl Term {
    /// Literal term.
    pub fn val(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    /// `lhs + rhs`.
    // AST constructor, not arithmetic on `Term` itself — the DSL's terms are
    // built by a parser, so `Term::add(a, b)` reads better than `a + b`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(lhs: Term, rhs: Term) -> Term {
        Term::Add(Box::new(lhs), Box::new(rhs))
    }

    /// `lhs - rhs`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: Term, rhs: Term) -> Term {
        Term::Sub(Box::new(lhs), Box::new(rhs))
    }

    /// `lhs mod rhs` (Euclidean remainder).
    pub fn modulo(lhs: Term, rhs: Term) -> Term {
        Term::Mod(Box::new(lhs), Box::new(rhs))
    }

    /// `card(t)`.
    pub fn card(t: Term) -> Term {
        Term::Card(Box::new(t))
    }

    /// `true` if evaluating this term reads the protected object's state
    /// (a [`Term::StateField`] anywhere inside it).
    pub fn reads_state(&self) -> bool {
        match self {
            Term::StateField(_) => true,
            Term::Const(_) | Term::Var(_) | Term::Invoker => false,
            Term::Add(a, b) | Term::Sub(a, b) | Term::Mod(a, b) => {
                a.reads_state() || b.reads_state()
            }
            Term::Card(t) | Term::UnionVals(t) => t.reads_state(),
            Term::SetOf(ts) => ts.iter().any(Term::reads_state),
        }
    }

    /// What evaluating this term can read of the stored tuples: nothing,
    /// unless it names a state field, which may depend on any of them.
    fn footprint(&self) -> Footprint {
        if self.reads_state() {
            Footprint::Whole
        } else {
            Footprint::NONE
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Const(v) => write!(f, "{v}"),
            Term::Var(x) => write!(f, "{x}"),
            Term::Invoker => write!(f, "invoker()"),
            Term::StateField(s) => write!(f, "state.{s}"),
            Term::Add(a, b) => write!(f, "({a} + {b})"),
            Term::Sub(a, b) => write!(f, "({a} - {b})"),
            Term::Mod(a, b) => write!(f, "({a} % {b})"),
            Term::Card(t) => write!(f, "card({t})"),
            Term::UnionVals(t) => write!(f, "union_vals({t})"),
            Term::SetOf(ts) => {
                write!(f, "{{")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// One field of a [`TupleQuery`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryField {
    /// The stored tuple's field must equal the evaluated term.
    Term(Term),
    /// Any field value.
    Any,
    /// Any field value, bound to a variable visible in the `exists` body —
    /// the `∃y: ⟨ANN, p, y⟩ ∈ TS ∧ ...` joins of Fig. 8.
    Bind(String),
}

/// A pattern over the *object state* (the tuples currently in the space),
/// used by the `exists(...)` predicate — e.g.
/// `∃y: ⟨SEQ, pos−1, y⟩ ∈ TS` in Fig. 7.
#[derive(Clone, Debug, PartialEq)]
pub struct TupleQuery(pub Vec<QueryField>);

impl TupleQuery {
    /// The stored tuples this query can match: the channel named by its
    /// leading field when that is a constant, otherwise (`_`, `?x`, a
    /// variable, `invoker()`, arithmetic, or no field at all) the whole
    /// space. A state field in any of its terms also reads the whole space.
    fn footprint(&self) -> Footprint {
        let state_free = self
            .0
            .iter()
            .all(|f| !matches!(f, QueryField::Term(t) if t.reads_state()));
        match self.0.first() {
            Some(QueryField::Term(Term::Const(channel))) if state_free => {
                Footprint::channel(channel.clone())
            }
            _ => Footprint::Whole,
        }
    }
}

impl fmt::Display for TupleQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, q) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match q {
                QueryField::Term(t) => write!(f, "{t}")?,
                QueryField::Any => write!(f, "_")?,
                QueryField::Bind(x) => write!(f, "?{x}")?,
            }
        }
        write!(f, ">")
    }
}

/// A boolean expression — the right-hand side of a rule.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Comparison of two terms.
    Cmp(CmpOp, Term, Term),
    /// `formal(x)` — the invocation argument bound to `x` is a formal
    /// template field (Figs. 3–5).
    IsFormal(String),
    /// `wildcard(x)` — the invocation argument bound to `x` is the wildcard.
    IsWildcard(String),
    /// `item in collection` — set/list membership or map-key membership.
    Contains {
        /// The element looked up.
        item: Term,
        /// The collection searched.
        collection: Term,
    },
    /// `exists(⟨...⟩) { where }` — some stored tuple matches the query *and*
    /// satisfies the body with the query's `?x` binders in scope. A trivial
    /// body (`True`) gives plain existence.
    Exists {
        /// The tuple pattern over the object state.
        query: TupleQuery,
        /// Additional condition on the matched tuple's bound fields.
        where_clause: Box<Expr>,
    },
    /// `forall x in S { body }` — `body` holds for every element of the
    /// set/list `S`.
    ForAll {
        /// Loop variable bound to each element.
        var: String,
        /// The collection iterated over.
        over: Term,
        /// The per-element condition.
        body: Box<Expr>,
    },
    /// `forall (k -> v) in M { body }` — `body` holds for every entry of the
    /// map `M` (Fig. 5 iterates over the `w → S_w` collection).
    ForAllPairs {
        /// Variable bound to each key.
        key: String,
        /// Variable bound to each value.
        val: String,
        /// The map iterated over.
        over: Term,
        /// The per-entry condition.
        body: Box<Expr>,
    },
}

impl Expr {
    /// `lhs && rhs`.
    pub fn and(lhs: Expr, rhs: Expr) -> Expr {
        Expr::And(Box::new(lhs), Box::new(rhs))
    }

    /// `lhs || rhs`.
    pub fn or(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Or(Box::new(lhs), Box::new(rhs))
    }

    /// `!e`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    /// `lhs op rhs`.
    pub fn cmp(op: CmpOp, lhs: Term, rhs: Term) -> Expr {
        Expr::Cmp(op, lhs, rhs)
    }

    /// Plain existence query: `exists(q)`.
    pub fn exists(query: TupleQuery) -> Expr {
        Expr::Exists {
            query,
            where_clause: Box::new(Expr::True),
        }
    }

    /// Conjunction of all expressions (`True` when empty).
    pub fn all(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        exprs.into_iter().reduce(Expr::and).unwrap_or(Expr::True)
    }

    /// Disjunction of all expressions (`False` when empty).
    pub fn any(exprs: impl IntoIterator<Item = Expr>) -> Expr {
        exprs.into_iter().reduce(Expr::or).unwrap_or(Expr::False)
    }

    /// `true` if evaluating this expression can query the protected
    /// object's state: an `exists(...)` tuple query, or a state field
    /// reference in any term. Conservative by construction — the query
    /// terms inside an `exists` are not inspected, the query itself is the
    /// state read.
    pub fn reads_state(&self) -> bool {
        match self {
            Expr::Exists { .. } => true,
            Expr::True | Expr::False | Expr::IsFormal(_) | Expr::IsWildcard(_) => false,
            Expr::And(a, b) | Expr::Or(a, b) => a.reads_state() || b.reads_state(),
            Expr::Not(e) => e.reads_state(),
            Expr::Cmp(_, a, b) => a.reads_state() || b.reads_state(),
            Expr::Contains { item, collection } => item.reads_state() || collection.reads_state(),
            Expr::ForAll { over, body, .. } => over.reads_state() || body.reads_state(),
            Expr::ForAllPairs { over, body, .. } => over.reads_state() || body.reads_state(),
        }
    }

    /// The stored tuples evaluating this expression can read: the union of
    /// the footprints of every `exists` query in it, including those nested
    /// in `where` and quantifier bodies. A state field anywhere reads the
    /// whole space.
    pub(crate) fn footprint(&self) -> Footprint {
        match self {
            Expr::True | Expr::False | Expr::IsFormal(_) | Expr::IsWildcard(_) => Footprint::NONE,
            Expr::And(a, b) | Expr::Or(a, b) => a.footprint().union(b.footprint()),
            Expr::Not(e) => e.footprint(),
            Expr::Cmp(_, a, b)
            | Expr::Contains {
                item: a,
                collection: b,
            } => a.footprint().union(b.footprint()),
            Expr::Exists {
                query,
                where_clause,
            } => query.footprint().union(where_clause.footprint()),
            Expr::ForAll { over, body, .. } | Expr::ForAllPairs { over, body, .. } => {
                over.footprint().union(body.footprint())
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::True => write!(f, "true"),
            Expr::False => write!(f, "false"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Or(a, b) => write!(f, "({a} || {b})"),
            Expr::Not(e) => write!(f, "!{e}"),
            Expr::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Expr::IsFormal(x) => write!(f, "formal({x})"),
            Expr::IsWildcard(x) => write!(f, "wildcard({x})"),
            Expr::Contains { item, collection } => write!(f, "{item} in {collection}"),
            Expr::Exists {
                query,
                where_clause,
            } => {
                if **where_clause == Expr::True {
                    write!(f, "exists({query})")
                } else {
                    write!(f, "exists({query}) {{ {where_clause} }}")
                }
            }
            Expr::ForAll { var, over, body } => {
                write!(f, "forall {var} in {over} {{ {body} }}")
            }
            Expr::ForAllPairs {
                key,
                val,
                over,
                body,
            } => write!(f, "forall ({key} -> {val}) in {over} {{ {body} }}"),
        }
    }
}

/// One field of an argument pattern, matched against an invocation argument.
///
/// When matching a *template* argument (of `rd`/`rdp`/`in`/`inp`/`cas`), a
/// pattern field can bind a wildcard or formal field; the `formal(x)` /
/// `wildcard(x)` predicates then inspect what was bound.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldPattern {
    /// The argument field must be exactly this defined value.
    Lit(Value),
    /// Bind whatever occupies this argument field to a variable.
    Bind(String),
    /// Match anything without binding.
    Ignore,
}

impl fmt::Display for FieldPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldPattern::Lit(v) => write!(f, "{v}"),
            FieldPattern::Bind(x) => write!(f, "?{x}"),
            FieldPattern::Ignore => write!(f, "_"),
        }
    }
}

/// Pattern over one invocation argument (a tuple or a template).
#[derive(Clone, Debug, PartialEq)]
pub enum ArgPattern {
    /// Matches any argument of any arity.
    Any,
    /// Matches arguments of exactly this arity, field-wise.
    Fields(Vec<FieldPattern>),
}

impl ArgPattern {
    /// Pattern from field patterns.
    pub fn fields(fs: Vec<FieldPattern>) -> Self {
        ArgPattern::Fields(fs)
    }
}

impl fmt::Display for ArgPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgPattern::Any => write!(f, "_"),
            ArgPattern::Fields(fs) => {
                write!(f, "<")?;
                for (i, p) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ">")
            }
        }
    }
}

/// The left-hand side of a rule: which operation shapes it applies to.
#[derive(Clone, Debug, PartialEq)]
pub enum InvocationPattern {
    /// `out(entry)`.
    Out(ArgPattern),
    /// `rd(template)`.
    Rd(ArgPattern),
    /// `in(template)`.
    In(ArgPattern),
    /// `rdp(template)`.
    Rdp(ArgPattern),
    /// `inp(template)`.
    Inp(ArgPattern),
    /// `cas(template, entry)`.
    Cas(ArgPattern, ArgPattern),
    /// `count(template)`.
    Count(ArgPattern),
    /// `read(template)` — groups `rd`, `rdp`, and `count` (the paper's "all
    /// readings are allowed" rules, e.g. `Rrd` in Fig. 4).
    Read(ArgPattern),
}

impl InvocationPattern {
    /// `true` if this pattern can match invocations of operation `kind`
    /// (regardless of the argument shapes): the variant correspondence the
    /// evaluator's `match_invocation` starts from, with `Read` covering
    /// the nondestructive reads `rd`, `rdp`, and `count`.
    pub fn covers(&self, kind: OpKind) -> bool {
        match self {
            InvocationPattern::Out(_) => kind == OpKind::Out,
            InvocationPattern::Rd(_) => kind == OpKind::Rd,
            InvocationPattern::In(_) => kind == OpKind::In,
            InvocationPattern::Rdp(_) => kind == OpKind::Rdp,
            InvocationPattern::Inp(_) => kind == OpKind::Inp,
            InvocationPattern::Cas(_, _) => kind == OpKind::Cas,
            InvocationPattern::Count(_) => kind == OpKind::Count,
            InvocationPattern::Read(_) => {
                matches!(kind, OpKind::Rd | OpKind::Rdp | OpKind::Count)
            }
        }
    }
}

impl fmt::Display for InvocationPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvocationPattern::Out(a) => write!(f, "out({a})"),
            InvocationPattern::Rd(a) => write!(f, "rd({a})"),
            InvocationPattern::In(a) => write!(f, "in({a})"),
            InvocationPattern::Rdp(a) => write!(f, "rdp({a})"),
            InvocationPattern::Inp(a) => write!(f, "inp({a})"),
            InvocationPattern::Cas(t, e) => write!(f, "cas({t}, {e})"),
            InvocationPattern::Count(a) => write!(f, "count({a})"),
            InvocationPattern::Read(a) => write!(f, "read({a})"),
        }
    }
}

/// A policy rule: `execute(op) :- invoke(pattern) ∧ condition`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Rule name (e.g. `Rout`, `Rcas`), used in decisions and diagnostics.
    pub name: String,
    /// The invocation shapes this rule covers.
    pub pattern: InvocationPattern,
    /// The logical expression that must hold for the invocation to execute.
    pub condition: Expr,
}

impl Rule {
    /// Creates a rule.
    pub fn new(name: impl Into<String>, pattern: InvocationPattern, condition: Expr) -> Self {
        Rule {
            name: name.into(),
            pattern,
            condition,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule {}: {} :- {};",
            self.name, self.pattern, self.condition
        )
    }
}

/// A complete access policy: named, parameterised, made of ordered rules.
#[derive(Clone, Debug, PartialEq)]
pub struct Policy {
    /// Policy name.
    pub name: String,
    /// Names of the parameters the rules may reference (e.g. `n`, `t`).
    pub params: Vec<String>,
    /// The rules, tried in order; the invocation is allowed if any matching
    /// rule's condition holds.
    pub rules: Vec<Rule>,
}

impl Policy {
    /// Creates a policy.
    pub fn new(name: impl Into<String>, params: Vec<String>, rules: Vec<Rule>) -> Self {
        Policy {
            name: name.into(),
            params,
            rules,
        }
    }

    /// `true` if any rule's condition queries the protected object's state
    /// (`exists`/state-field reads).
    pub fn reads_state(&self) -> bool {
        self.rules.iter().any(|r| r.condition.reads_state())
    }

    /// The stored tuples deciding an invocation of `kind` can read, over
    /// the rules whose pattern covers `kind` (deciding an invocation only
    /// ever evaluates those): the constant leading field of every `exists`
    /// query in their conditions, including queries nested in `where` and
    /// quantifier bodies. A query that leads with anything else (`_`, `?x`,
    /// a variable, `invoker()`, arithmetic) and any `state.` field read the
    /// [`Footprint::Whole`] space.
    ///
    /// A concurrent space locks these channels' shards beside the
    /// operation's own, so the check reads them atomically with the
    /// effect; a kind none of whose rules reads state gets
    /// [`Footprint::NONE`] and locks only its own shard.
    pub fn footprint(&self, kind: OpKind) -> Footprint {
        self.rules
            .iter()
            .filter(|r| r.pattern.covers(kind))
            .fold(Footprint::NONE, |fp, r| fp.union(r.condition.footprint()))
    }

    /// The completely permissive policy (every invocation allowed) — useful
    /// for tests and for modelling an *unprotected* augmented tuple space.
    pub fn allow_all() -> Self {
        Policy::new(
            "allow_all",
            vec![],
            vec![
                Rule::new("Rout", InvocationPattern::Out(ArgPattern::Any), Expr::True),
                Rule::new(
                    "Rread",
                    InvocationPattern::Read(ArgPattern::Any),
                    Expr::True,
                ),
                Rule::new("Rin", InvocationPattern::In(ArgPattern::Any), Expr::True),
                Rule::new("Rinp", InvocationPattern::Inp(ArgPattern::Any), Expr::True),
                Rule::new(
                    "Rcas",
                    InvocationPattern::Cas(ArgPattern::Any, ArgPattern::Any),
                    Expr::True,
                ),
            ],
        )
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "policy {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        writeln!(f, ") {{")?;
        for r in &self.rules {
            writeln!(f, "  {r}")?;
        }
        write!(f, "}}")
    }
}

/// Concrete values for a policy's parameters, fixed when the protected
/// object is created (e.g. `n = 4`, `t = 1`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyParams(BTreeMap<String, i64>);

impl PolicyParams {
    /// No parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The common `(n, t)` parameterisation of the paper's algorithms.
    pub fn n_t(n: usize, t: usize) -> Self {
        let mut p = Self::new();
        p.set("n", n as i64);
        p.set("t", t as i64);
        p
    }

    /// Sets parameter `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: i64) -> &mut Self {
        self.0.insert(name.into(), value);
        self
    }

    /// Looks up a parameter.
    pub fn get(&self, name: &str) -> Option<i64> {
        self.0.get(name).copied()
    }

    /// Iterates over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, i64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

/// Identifies a process in ACL-style conditions; helper to build
/// `invoker() in {p1, ..., pk}` expressions programmatically.
pub fn invoker_in(ids: impl IntoIterator<Item = ProcessId>) -> Expr {
    Expr::Contains {
        item: Term::Invoker,
        collection: Term::SetOf(
            ids.into_iter()
                .map(|p| Term::Const(Value::Int(p as i64)))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_rule_resembles_paper_syntax() {
        let r = Rule::new(
            "Rcas",
            InvocationPattern::Cas(
                ArgPattern::fields(vec![
                    FieldPattern::Lit(Value::from("DECISION")),
                    FieldPattern::Bind("x".into()),
                ]),
                ArgPattern::fields(vec![
                    FieldPattern::Lit(Value::from("DECISION")),
                    FieldPattern::Bind("v".into()),
                ]),
            ),
            Expr::IsFormal("x".into()),
        );
        let s = format!("{r}");
        assert!(s.contains("rule Rcas"));
        assert!(s.contains("cas("));
        assert!(s.contains("formal(x)"));
    }

    #[test]
    fn params_round_trip() {
        let p = PolicyParams::n_t(4, 1);
        assert_eq!(p.get("n"), Some(4));
        assert_eq!(p.get("t"), Some(1));
        assert_eq!(p.get("k"), None);
    }

    #[test]
    fn expr_combinators() {
        let e = Expr::all([Expr::True, Expr::False]);
        assert_eq!(e, Expr::And(Box::new(Expr::True), Box::new(Expr::False)));
        assert_eq!(Expr::all([]), Expr::True);
        assert_eq!(Expr::any([]), Expr::False);
    }

    #[test]
    fn invoker_in_builds_set_membership() {
        let e = invoker_in([1, 2, 3]);
        match e {
            Expr::Contains { item, collection } => {
                assert_eq!(item, Term::Invoker);
                match collection {
                    Term::SetOf(ts) => assert_eq!(ts.len(), 3),
                    other => panic!("unexpected collection {other:?}"),
                }
            }
            other => panic!("unexpected expr {other:?}"),
        }
    }

    #[test]
    fn allow_all_has_rule_per_op_family() {
        let p = Policy::allow_all();
        assert_eq!(p.rules.len(), 5);
    }

    #[test]
    fn allow_all_is_state_free() {
        assert!(!Policy::allow_all().reads_state());
    }

    #[test]
    fn exists_condition_reads_state() {
        let p = Policy::new(
            "guarded",
            vec![],
            vec![Rule::new(
                "Rout",
                InvocationPattern::Out(ArgPattern::Any),
                Expr::not(Expr::exists(TupleQuery(vec![QueryField::Any]))),
            )],
        );
        assert!(p.reads_state());
    }

    #[test]
    fn footprint_is_per_operation_kind() {
        // A guarded out next to an unconditional read: only out reads the
        // state, and only the <"LIMIT"> channel.
        let p = Policy::new(
            "mixed",
            vec![],
            vec![
                Rule::new(
                    "Rout",
                    InvocationPattern::Out(ArgPattern::Any),
                    Expr::not(Expr::exists(TupleQuery(vec![QueryField::Term(Term::val(
                        "LIMIT",
                    ))]))),
                ),
                Rule::new(
                    "Rread",
                    InvocationPattern::Read(ArgPattern::Any),
                    Expr::True,
                ),
            ],
        );
        assert_eq!(
            p.footprint(OpKind::Out),
            Footprint::channel(Value::from("LIMIT"))
        );
        for kind in [
            OpKind::Rd,
            OpKind::Rdp,
            OpKind::In,
            OpKind::Inp,
            OpKind::Cas,
            OpKind::Count,
        ] {
            assert_eq!(
                p.footprint(kind),
                Footprint::NONE,
                "{kind:?} has no state-reading rule"
            );
        }
        // `read(_)` patterns cover both blocking and nonblocking reads.
        let guarded_read = Policy::new(
            "gr",
            vec![],
            vec![Rule::new(
                "Rread",
                InvocationPattern::Read(ArgPattern::Any),
                Expr::exists(TupleQuery(vec![QueryField::Any])),
            )],
        );
        assert_eq!(guarded_read.footprint(OpKind::Rd), Footprint::Whole);
        assert_eq!(guarded_read.footprint(OpKind::Rdp), Footprint::Whole);
        assert_eq!(guarded_read.footprint(OpKind::Out), Footprint::NONE);
    }

    #[test]
    fn footprint_is_the_constant_leading_field_of_each_query() {
        let query = |lead: QueryField| TupleQuery(vec![lead, QueryField::Any]);
        let exists = |lead: QueryField| Expr::exists(query(lead));
        let chan = |c: &str| Footprint::channel(Value::from(c));
        assert_eq!(
            exists(QueryField::Term(Term::val("A"))).footprint(),
            chan("A")
        );
        // Nested in a where body and under quantifiers.
        let nested = Expr::and(
            Expr::Exists {
                query: query(QueryField::Term(Term::val("A"))),
                where_clause: Box::new(exists(QueryField::Term(Term::val("B")))),
            },
            Expr::ForAll {
                var: "q".into(),
                over: Term::var("S"),
                body: Box::new(Expr::not(exists(QueryField::Term(Term::val("C"))))),
            },
        );
        assert_eq!(
            nested.footprint(),
            chan("A").union(chan("B")).union(chan("C"))
        );
        // Every other leading field reads the whole space.
        for lead in [
            QueryField::Any,
            QueryField::Bind("x".into()),
            QueryField::Term(Term::var("x")),
            QueryField::Term(Term::Invoker),
            QueryField::Term(Term::add(Term::val(1), Term::val(2))),
        ] {
            assert_eq!(
                exists(lead.clone()).footprint(),
                Footprint::Whole,
                "{lead:?}"
            );
        }
        assert_eq!(
            Expr::exists(TupleQuery(vec![])).footprint(),
            Footprint::Whole
        );
        // So does a state field, in a query or anywhere else.
        let state = Term::StateField("r".into());
        let in_query = Expr::exists(TupleQuery(vec![
            QueryField::Term(Term::val("A")),
            QueryField::Term(state.clone()),
        ]));
        assert_eq!(in_query.footprint(), Footprint::Whole);
        let in_cmp = Expr::cmp(CmpOp::Lt, state, Term::var("v"));
        assert_eq!(in_cmp.footprint(), Footprint::Whole);
        // Invocation-local conditions read nothing.
        assert_eq!(Expr::IsFormal("x".into()).footprint(), Footprint::NONE);
    }

    #[test]
    fn state_field_term_reads_state_through_nesting() {
        let cond = Expr::cmp(
            CmpOp::Lt,
            Term::add(Term::StateField("r".into()), Term::val(1)),
            Term::var("v"),
        );
        assert!(cond.reads_state());
        // Purely invocation-local conditions do not.
        let local = Expr::and(
            Expr::IsFormal("x".into()),
            Expr::cmp(CmpOp::Ge, Term::var("v"), Term::val(0)),
        );
        assert!(!local.reads_state());
    }
}
