//! Sticky bits protected by ACLs — the prior-art object model (§7, \[9\],
//! \[11\], \[13\]).
//!
//! A sticky bit holds `⊥` until the first `set(b)` with `b ∈ {0,1}`; later
//! writes are no-ops. ACL protection means each bit has a list of processes
//! allowed to write it. The paper argues ACLs are the degenerate case of
//! fine-grained policies; we make that literal by *generating* a PEATS
//! policy that implements an array of ACL-protected sticky bits — the same
//! reference-monitor machinery runs both models, which is exactly the
//! implementation-cost claim of §7.
//!
//! Bit `j` is the tuple `⟨BIT, j, v⟩`; setting is an `out` allowed only for
//! processes on bit `j`'s ACL, only with a binary value, and only while no
//! `⟨BIT, j, *⟩` exists (stickiness). Reads are universal.

use peats::{SpaceResult, TupleSpace};
use peats_policy::{
    invoker_in, ArgPattern, CmpOp, Expr, FieldPattern, InvocationPattern, Policy, ProcessId,
    QueryField, Rule, Term, TupleQuery,
};
use peats_tuplespace::{Field, Template, Tuple, Value};

/// Tag of sticky-bit tuples.
pub const BIT: &str = "BIT";

/// Generates the access policy for an array of ACL-protected sticky bits:
/// `acls[j]` is the list of processes allowed to write bit `j`.
pub fn sticky_bits_policy(acls: &[Vec<ProcessId>]) -> Policy {
    let mut rules = vec![Rule::new(
        "Rread",
        InvocationPattern::Read(ArgPattern::Any),
        Expr::True,
    )];
    for (j, acl) in acls.iter().enumerate() {
        let condition = Expr::all([
            invoker_in(acl.iter().copied()),
            // stickiness: no existing tuple for this bit
            Expr::not(Expr::exists(TupleQuery(vec![
                QueryField::Term(Term::val(BIT)),
                QueryField::Term(Term::val(j as i64)),
                QueryField::Any,
            ]))),
            // binary domain
            Expr::Contains {
                item: Term::var("v"),
                collection: Term::SetOf(vec![Term::val(0), Term::val(1)]),
            },
        ]);
        rules.push(Rule::new(
            format!("Rset{j}"),
            InvocationPattern::Out(ArgPattern::fields(vec![
                FieldPattern::Lit(Value::from(BIT)),
                FieldPattern::Lit(Value::Int(j as i64)),
                FieldPattern::Bind("v".into()),
            ])),
            condition,
        ));
    }
    // Guard: no other out shape is allowed (fail-safe default covers this,
    // but an explicit always-false rule documents the intent).
    let _ = CmpOp::Eq;
    Policy::new("acl_sticky_bits", vec![], rules)
}

/// A process's view of an ACL-protected sticky-bit array living in a
/// tuple space.
#[derive(Clone, Debug)]
pub struct StickyBitArray<S> {
    space: S,
    bits: usize,
}

impl<S: TupleSpace> StickyBitArray<S> {
    /// Wraps a handle onto a space carrying [`sticky_bits_policy`] for
    /// `bits` bits.
    pub fn new(space: S, bits: usize) -> Self {
        StickyBitArray { space, bits }
    }

    /// Number of bits in the array.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// The underlying space handle.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// `true` if the array has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Attempts `set(j, b)`. Returns `Ok(true)` if this call fixed the bit,
    /// `Ok(false)` if it was denied (not on the ACL, bit already set, or
    /// non-binary value) — sticky-bit sets report failure as `false`, the
    /// paper's denied-operation convention.
    ///
    /// # Errors
    ///
    /// Propagates infrastructure failures only.
    pub fn set(&self, j: usize, b: i64) -> SpaceResult<bool> {
        let entry = Tuple::new(vec![Value::from(BIT), Value::Int(j as i64), Value::Int(b)]);
        match self.space.out(entry) {
            Ok(()) => Ok(true),
            Err(e) if e.is_denied() => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Reads bit `j`: `None` while unset.
    ///
    /// # Errors
    ///
    /// Propagates infrastructure failures.
    pub fn read(&self, j: usize) -> SpaceResult<Option<i64>> {
        let template = Template::new(vec![
            Field::exact(BIT),
            Field::exact(Value::Int(j as i64)),
            Field::formal("v"),
        ]);
        Ok(self
            .space
            .rdp(&template)?
            .and_then(|t| t.get(2).and_then(Value::as_int)))
    }

    /// Reads the whole array.
    ///
    /// # Errors
    ///
    /// Propagates infrastructure failures.
    pub fn read_all(&self) -> SpaceResult<Vec<Option<i64>>> {
        (0..self.bits).map(|j| self.read(j)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peats::{LocalPeats, PolicyParams};

    fn array(acls: &[Vec<ProcessId>]) -> (LocalPeats, usize) {
        let space = LocalPeats::new(sticky_bits_policy(acls), PolicyParams::new()).unwrap();
        (space, acls.len())
    }

    #[test]
    fn first_set_wins() {
        let (space, bits) = array(&[vec![1, 2]]);
        let a = StickyBitArray::new(space.handle(1), bits);
        let b = StickyBitArray::new(space.handle(2), bits);
        assert!(a.set(0, 1).unwrap());
        assert!(!b.set(0, 0).unwrap()); // sticky: denied
        assert_eq!(b.read(0).unwrap(), Some(1));
    }

    #[test]
    fn acl_blocks_outsiders() {
        let (space, bits) = array(&[vec![1]]);
        let outsider = StickyBitArray::new(space.handle(9), bits);
        assert!(!outsider.set(0, 1).unwrap());
        assert_eq!(outsider.read(0).unwrap(), None);
    }

    #[test]
    fn per_bit_acls_are_independent() {
        let (space, bits) = array(&[vec![1], vec![2]]);
        let p1 = StickyBitArray::new(space.handle(1), bits);
        let p2 = StickyBitArray::new(space.handle(2), bits);
        assert!(p1.set(0, 0).unwrap());
        assert!(!p1.set(1, 0).unwrap()); // p1 not on bit 1's ACL
        assert!(p2.set(1, 1).unwrap());
        assert_eq!(p1.read_all().unwrap(), vec![Some(0), Some(1)]);
    }

    #[test]
    fn non_binary_values_are_rejected() {
        let (space, bits) = array(&[vec![1]]);
        let p1 = StickyBitArray::new(space.handle(1), bits);
        assert!(!p1.set(0, 7).unwrap());
        assert_eq!(p1.read(0).unwrap(), None);
    }

    #[test]
    fn everyone_can_read() {
        let (space, bits) = array(&[vec![1]]);
        StickyBitArray::new(space.handle(1), bits)
            .set(0, 1)
            .unwrap();
        let stranger = StickyBitArray::new(space.handle(777), bits);
        assert_eq!(stranger.read(0).unwrap(), Some(1));
    }
}
