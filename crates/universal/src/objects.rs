//! A library of emulated object types.
//!
//! These are the classic shared-memory objects the universality result
//! (Theorems 6–7) promises: registers, counters, read-modify-write
//! primitives, queues, stacks, a key-value store, and the sticky bit of
//! Plotkin \[13\] (the baseline object of §7). Each invocation is encoded as
//! a `Value::List` whose first element is the operation name.

use crate::object::ObjectType;
use peats_tuplespace::Value;
use std::collections::BTreeMap;
use std::collections::VecDeque;

fn op(name: &str, args: impl IntoIterator<Item = Value>) -> Value {
    let mut l = vec![Value::from(name)];
    l.extend(args);
    Value::List(l)
}

fn decode(invocation: &Value) -> Option<(&str, &[Value])> {
    let l = invocation.as_list()?;
    let name = l.first()?.as_str()?;
    Some((name, &l[1..]))
}

/// A multi-writer multi-reader atomic register holding any [`Value`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Register;

impl Register {
    /// `read()` invocation.
    pub fn read() -> Value {
        op("read", [])
    }

    /// `write(v)` invocation.
    pub fn write(v: impl Into<Value>) -> Value {
        op("write", [v.into()])
    }
}

impl ObjectType for Register {
    type State = Value;

    fn initial(&self) -> Value {
        Value::Null
    }

    fn apply(&self, state: &Value, invocation: &Value) -> (Value, Value) {
        match decode(invocation) {
            Some(("read", [])) => (state.clone(), state.clone()),
            Some(("write", [v])) => (v.clone(), Value::Bool(true)),
            _ => (state.clone(), Value::Null),
        }
    }
}

/// A saturating counter.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counter;

impl Counter {
    /// `inc()` invocation.
    pub fn increment() -> Value {
        op("inc", [])
    }

    /// `dec()` invocation.
    pub fn decrement() -> Value {
        op("dec", [])
    }

    /// `get()` invocation.
    pub fn get() -> Value {
        op("get", [])
    }
}

impl ObjectType for Counter {
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn apply(&self, state: &i64, invocation: &Value) -> (i64, Value) {
        match decode(invocation) {
            Some(("inc", [])) => (state.saturating_add(1), Value::Int(state.saturating_add(1))),
            Some(("dec", [])) => (state.saturating_sub(1), Value::Int(state.saturating_sub(1))),
            Some(("get", [])) => (*state, Value::Int(*state)),
            _ => (*state, Value::Null),
        }
    }
}

/// `fetch&add` register (returns the *previous* value).
#[derive(Clone, Copy, Debug, Default)]
pub struct FetchAdd;

impl FetchAdd {
    /// `fadd(delta)` invocation.
    pub fn fetch_add(delta: i64) -> Value {
        op("fadd", [Value::Int(delta)])
    }

    /// `get()` invocation.
    pub fn get() -> Value {
        op("get", [])
    }
}

impl ObjectType for FetchAdd {
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn apply(&self, state: &i64, invocation: &Value) -> (i64, Value) {
        match decode(invocation) {
            Some(("fadd", [d])) => match d.as_int() {
                Some(d) => (state.wrapping_add(d), Value::Int(*state)),
                None => (*state, Value::Null),
            },
            Some(("get", [])) => (*state, Value::Int(*state)),
            _ => (*state, Value::Null),
        }
    }
}

/// `test&set` bit (consensus number 2 on its own; universal here).
#[derive(Clone, Copy, Debug, Default)]
pub struct TestAndSet;

impl TestAndSet {
    /// `tas()` invocation — sets the bit, returns the previous value.
    pub fn test_and_set() -> Value {
        op("tas", [])
    }

    /// `reset()` invocation.
    pub fn reset() -> Value {
        op("reset", [])
    }
}

impl ObjectType for TestAndSet {
    type State = bool;

    fn initial(&self) -> bool {
        false
    }

    fn apply(&self, state: &bool, invocation: &Value) -> (bool, Value) {
        match decode(invocation) {
            Some(("tas", [])) => (true, Value::Bool(*state)),
            Some(("reset", [])) => (false, Value::Bool(true)),
            _ => (*state, Value::Null),
        }
    }
}

/// Compare-and-swap register over arbitrary values (the register-style
/// `cas`, footnote 2 — *not* the tuple-space `cas`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CasRegister;

impl CasRegister {
    /// `cas(expected, new)` invocation — swap iff current == expected.
    pub fn compare_and_swap(expected: impl Into<Value>, new: impl Into<Value>) -> Value {
        op("cas", [expected.into(), new.into()])
    }

    /// `read()` invocation.
    pub fn read() -> Value {
        op("read", [])
    }
}

impl ObjectType for CasRegister {
    type State = Value;

    fn initial(&self) -> Value {
        Value::Null
    }

    fn apply(&self, state: &Value, invocation: &Value) -> (Value, Value) {
        match decode(invocation) {
            Some(("cas", [expected, new])) => {
                if state == expected {
                    (new.clone(), Value::Bool(true))
                } else {
                    (state.clone(), Value::Bool(false))
                }
            }
            Some(("read", [])) => (state.clone(), state.clone()),
            _ => (state.clone(), Value::Null),
        }
    }
}

/// The sticky bit of Plotkin \[13\]: starts unset (`⊥`), the first `set`
/// wins and every later `set` is a no-op. The persistent object the
/// prior-art constructions (§7) are built from.
#[derive(Clone, Copy, Debug, Default)]
pub struct StickyBit;

impl StickyBit {
    /// `set(b)` invocation with `b ∈ {0, 1}` — returns whether this call
    /// fixed the bit.
    pub fn set(b: i64) -> Value {
        op("set", [Value::Int(b)])
    }

    /// `read()` invocation — `⊥` (`Value::Null`) when unset.
    pub fn read() -> Value {
        op("read", [])
    }
}

impl ObjectType for StickyBit {
    type State = Option<i64>;

    fn initial(&self) -> Option<i64> {
        None
    }

    fn apply(&self, state: &Option<i64>, invocation: &Value) -> (Option<i64>, Value) {
        match decode(invocation) {
            Some(("set", [b])) => match (state, b.as_int()) {
                (None, Some(b)) if b == 0 || b == 1 => (Some(b), Value::Bool(true)),
                _ => (*state, Value::Bool(false)),
            },
            Some(("read", [])) => (*state, state.map_or(Value::Null, Value::Int)),
            _ => (*state, Value::Null),
        }
    }
}

/// FIFO queue of values.
#[derive(Clone, Copy, Debug, Default)]
pub struct Queue;

impl Queue {
    /// `enq(v)` invocation.
    pub fn enqueue(v: impl Into<Value>) -> Value {
        op("enq", [v.into()])
    }

    /// `deq()` invocation — returns `⊥` on empty.
    pub fn dequeue() -> Value {
        op("deq", [])
    }

    /// `len()` invocation.
    pub fn len() -> Value {
        op("len", [])
    }
}

impl ObjectType for Queue {
    type State = VecDeque<Value>;

    fn initial(&self) -> VecDeque<Value> {
        VecDeque::new()
    }

    fn apply(&self, state: &VecDeque<Value>, invocation: &Value) -> (VecDeque<Value>, Value) {
        match decode(invocation) {
            Some(("enq", [v])) => {
                let mut s = state.clone();
                s.push_back(v.clone());
                (s, Value::Bool(true))
            }
            Some(("deq", [])) => {
                let mut s = state.clone();
                let popped = s.pop_front().unwrap_or(Value::Null);
                (s, popped)
            }
            Some(("len", [])) => (state.clone(), Value::Int(state.len() as i64)),
            _ => (state.clone(), Value::Null),
        }
    }
}

/// LIFO stack of values.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stack;

impl Stack {
    /// `push(v)` invocation.
    pub fn push(v: impl Into<Value>) -> Value {
        op("push", [v.into()])
    }

    /// `pop()` invocation — returns `⊥` on empty.
    pub fn pop() -> Value {
        op("pop", [])
    }
}

impl ObjectType for Stack {
    type State = Vec<Value>;

    fn initial(&self) -> Vec<Value> {
        Vec::new()
    }

    fn apply(&self, state: &Vec<Value>, invocation: &Value) -> (Vec<Value>, Value) {
        match decode(invocation) {
            Some(("push", [v])) => {
                let mut s = state.clone();
                s.push(v.clone());
                (s, Value::Bool(true))
            }
            Some(("pop", [])) => {
                let mut s = state.clone();
                let popped = s.pop().unwrap_or(Value::Null);
                (s, popped)
            }
            _ => (state.clone(), Value::Null),
        }
    }
}

/// A key-value store (the "almost any data structure" flexibility claim of
/// §8).
#[derive(Clone, Copy, Debug, Default)]
pub struct KvStore;

impl KvStore {
    /// `put(k, v)` invocation — returns the previous value or `⊥`.
    pub fn put(k: impl Into<Value>, v: impl Into<Value>) -> Value {
        op("put", [k.into(), v.into()])
    }

    /// `get(k)` invocation — `⊥` when absent.
    pub fn get(k: impl Into<Value>) -> Value {
        op("get", [k.into()])
    }

    /// `del(k)` invocation — returns the removed value or `⊥`.
    pub fn delete(k: impl Into<Value>) -> Value {
        op("del", [k.into()])
    }
}

impl ObjectType for KvStore {
    type State = BTreeMap<Value, Value>;

    fn initial(&self) -> BTreeMap<Value, Value> {
        BTreeMap::new()
    }

    fn apply(
        &self,
        state: &BTreeMap<Value, Value>,
        invocation: &Value,
    ) -> (BTreeMap<Value, Value>, Value) {
        match decode(invocation) {
            Some(("put", [k, v])) => {
                let mut s = state.clone();
                let prev = s.insert(k.clone(), v.clone()).unwrap_or(Value::Null);
                (s, prev)
            }
            Some(("get", [k])) => (state.clone(), state.get(k).cloned().unwrap_or(Value::Null)),
            Some(("del", [k])) => {
                let mut s = state.clone();
                let prev = s.remove(k).unwrap_or(Value::Null);
                (s, prev)
            }
            _ => (state.clone(), Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::replay;

    #[test]
    fn register_read_write() {
        let (state, replies) = replay(
            &Register,
            &[Register::read(), Register::write(5), Register::read()],
        );
        assert_eq!(state, Value::Int(5));
        assert_eq!(replies, vec![Value::Null, Value::Bool(true), Value::Int(5)]);
    }

    #[test]
    fn counter_inc_dec() {
        let (state, replies) = replay(
            &Counter,
            &[
                Counter::increment(),
                Counter::increment(),
                Counter::decrement(),
            ],
        );
        assert_eq!(state, 1);
        assert_eq!(replies.last(), Some(&Value::Int(1)));
    }

    #[test]
    fn fetch_add_returns_previous() {
        let (_, replies) = replay(
            &FetchAdd,
            &[
                FetchAdd::fetch_add(3),
                FetchAdd::fetch_add(4),
                FetchAdd::get(),
            ],
        );
        assert_eq!(replies, vec![Value::Int(0), Value::Int(3), Value::Int(7)]);
    }

    #[test]
    fn test_and_set_fires_once() {
        let (_, replies) = replay(
            &TestAndSet,
            &[TestAndSet::test_and_set(), TestAndSet::test_and_set()],
        );
        assert_eq!(replies, vec![Value::Bool(false), Value::Bool(true)]);
    }

    #[test]
    fn cas_register_swaps_conditionally() {
        let (_, replies) = replay(
            &CasRegister,
            &[
                CasRegister::compare_and_swap(Value::Null, 1),
                CasRegister::compare_and_swap(Value::Null, 2),
                CasRegister::read(),
            ],
        );
        assert_eq!(
            replies,
            vec![Value::Bool(true), Value::Bool(false), Value::Int(1)]
        );
    }

    #[test]
    fn sticky_bit_is_persistent() {
        let (_, replies) = replay(
            &StickyBit,
            &[
                StickyBit::read(),
                StickyBit::set(1),
                StickyBit::set(0),
                StickyBit::read(),
            ],
        );
        assert_eq!(
            replies,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Bool(false),
                Value::Int(1)
            ]
        );
    }

    #[test]
    fn sticky_bit_rejects_non_binary() {
        let (state, replies) = replay(&StickyBit, &[StickyBit::set(7)]);
        assert_eq!(state, None);
        assert_eq!(replies, vec![Value::Bool(false)]);
    }

    #[test]
    fn queue_is_fifo() {
        let (_, replies) = replay(
            &Queue,
            &[
                Queue::enqueue(1),
                Queue::enqueue(2),
                Queue::dequeue(),
                Queue::dequeue(),
                Queue::dequeue(),
            ],
        );
        assert_eq!(replies[2], Value::Int(1));
        assert_eq!(replies[3], Value::Int(2));
        assert_eq!(replies[4], Value::Null);
    }

    #[test]
    fn stack_is_lifo() {
        let (_, replies) = replay(&Stack, &[Stack::push(1), Stack::push(2), Stack::pop()]);
        assert_eq!(replies[2], Value::Int(2));
    }

    #[test]
    fn kv_store_put_get_del() {
        let (_, replies) = replay(
            &KvStore,
            &[
                KvStore::put("k", 1),
                KvStore::get("k"),
                KvStore::delete("k"),
                KvStore::get("k"),
            ],
        );
        assert_eq!(
            replies,
            vec![Value::Null, Value::Int(1), Value::Int(1), Value::Null]
        );
    }

    #[test]
    fn malformed_invocations_are_total() {
        // Byzantine garbage must not panic and must not change state.
        let garbage = [
            Value::Null,
            Value::Int(3),
            Value::list([Value::Int(1)]),
            Value::list([Value::from("unknown")]),
            Value::list([Value::from("write")]), // missing arg
        ];
        for g in &garbage {
            let (s, r) = Register.apply(&Register.initial(), g);
            assert_eq!(s, Register.initial());
            assert_eq!(r, Value::Null);
            let (s, _) = Queue.apply(&Queue.initial(), g);
            assert!(s.is_empty());
        }
    }
}
